"""The operator views, byte for byte.

Three checked-in transcripts pin what the operator tools print: the
dashboard replay of the recorded snapshot file, the counter report
plus per-window table ``trace udp_echo --cycles 3000`` prints, and the
linter's JSON report over every seeded-bug fixture with ``--sanitize``
(each fixture's exact findings, locations and first divergent cycles).
A refactor of the code behind them must leave all three unchanged.
"""

from pathlib import Path

from repro.tools import lint, top, trace

DATA = Path(__file__).parent / "data"


def test_top_replay_matches_golden(capsys):
    assert top.main(["--replay", str(DATA / "snapshots_udp_echo.json"),
                     "--plain"]) == 0
    golden = (DATA / "top_replay_udp_echo.txt").read_text()
    assert capsys.readouterr().out == golden


def test_trace_report_matches_golden(capsys, tmp_path):
    assert trace.main(["udp_echo", "--cycles", "3000",
                       "--out", str(tmp_path / "t.json")]) == 0
    report = capsys.readouterr().out.split("\n\ninjected")[0] + "\n"
    assert report == (DATA / "trace_report_udp_echo.txt").read_text()


# lint's order, so the report is the file byte for byte.
LINT_DEMOS = ["fig5a", "fig5b", "broken_wake", "idle_liar", "leaky_eject",
              "step_parity", "early_read", "phantom_dest", "stale_domain",
              "escaped_domain", "blind_forwarder"]


def test_lint_demo_findings_match_golden(capsys):
    assert lint.main([*LINT_DEMOS, "--sanitize", "--json"]) == 1
    golden = (DATA / "lint_demos.json").read_text()
    assert capsys.readouterr().out == golden
