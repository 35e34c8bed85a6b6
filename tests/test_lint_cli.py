"""Tests for ``python -m repro.tools.lint`` (in-process).

Pins the exit-code contract (0 clean / 1 findings / 2 unusable
target), ``--pass`` filtering across both pass families, the
``--sanitize`` plumbing (``--cycles``), and the JSON
round-trip the CI jobs consume.
"""

import json

import pytest

from repro.tools.lint import main


class TestExitCodes:
    def test_clean_design_exits_zero(self, capsys):
        assert main(["udp_echo"]) == 0
        assert "OK: 0 error(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["fig5a"]) == 1
        assert "BHV201" in capsys.readouterr().out

    def test_unknown_design_exits_two(self, capsys):
        assert main(["no_such_design"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_unreadable_xml_exits_two(self, capsys):
        assert main(["/nonexistent/design.xml"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_all_lints_every_shipped_design(self, capsys):
        assert main(["--all"]) == 0
        out = capsys.readouterr().out
        assert "udp_echo" in out and "tcp_server" in out

    def test_strict_promotes_warnings(self):
        # blind_forwarder seeds a warning-severity BHV504: clean by
        # default, a failure under --strict.
        assert main(["blind_forwarder"]) == 0
        assert main(["blind_forwarder", "--strict"]) == 1


class TestPassFiltering:
    def test_single_static_pass(self, capsys):
        # fig5a's bug is a deadlock cycle: the structural pass alone
        # must not see it (and must be the only pass that ran).
        assert main(["fig5a", "--pass", "structural", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["structural"]
        assert payload["findings"] == []

    def test_unknown_pass_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["udp_echo", "--pass", "bogus"])
        assert excinfo.value.code == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_sanitize_pass_requires_sanitize_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["udp_echo", "--pass", "idle-truth"])
        assert excinfo.value.code == 2
        assert "--sanitize" in capsys.readouterr().err

    def test_sanitize_pass_with_flag(self, capsys):
        assert main(["idle_liar", "--sanitize", "--pass", "idle-truth",
                     "--cycles", "300"]) == 1
        out = capsys.readouterr().out
        assert "BHV401" in out

    def test_mixed_families_one_invocation(self, capsys):
        assert main(["broken_wake", "--sanitize",
                     "--pass", "wake-contract",
                     "--pass", "lost-wake", "--cycles", "300"]) == 1
        out = capsys.readouterr().out
        assert "BHV301" in out and "BHV402" in out


class TestSanitize:
    def test_broken_wake_caught_dynamically(self, capsys):
        assert main(["broken_wake", "--sanitize",
                     "--cycles", "400"]) == 1
        out = capsys.readouterr().out
        assert "BHV401" in out and "BHV402" in out

    def test_clean_design_stays_clean(self):
        assert main(["udp_echo", "--sanitize", "--cycles", "400"]) == 0

    def test_without_flag_no_simulation_runs(self, capsys):
        # idle_liar's bug is dynamic-only: without --sanitize the
        # linter must not see it (and must not silently simulate).
        assert main(["idle_liar"]) == 0
        assert "BHV401" not in capsys.readouterr().out

    def test_bad_cycles_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["udp_echo", "--sanitize", "--cycles", "0"])
        assert excinfo.value.code == 2
        assert "--cycles" in capsys.readouterr().err

    def test_step_parity_fires_without_a_flag(self, capsys):
        # step_parity only diverges against a naive-kernel run, which
        # the determinism pass always makes: its reference side.
        assert main(["step_parity", "--sanitize", "--cycles", "400"]) == 1
        assert "BHV404" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["step_parity", "--sanitize", "--combos",
                  "scheduled/flat/flat"])
        assert excinfo.value.code == 2  # the flag is gone


class TestJson:
    def test_round_trip_single_target(self, capsys):
        assert main(["broken_wake", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "broken_wake"
        assert any(f["code"] == "BHV301"
                   for f in payload["findings"])

    def test_round_trip_with_sanitize(self, capsys):
        assert main(["idle_liar", "--sanitize", "--cycles", "300",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in payload["findings"]}
        assert codes == {"BHV401"}
        assert any(p.startswith("sanitize:")
                   for p in payload["passes"])

    def test_multiple_targets_yield_list(self, capsys):
        assert main(["udp_echo", "nat_echo", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 2


class TestListing:
    def test_list_names_both_groups(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "udp_echo" in out and "idle_liar" in out
        assert "phantom_dest" in out

    def test_list_codes_includes_new_families(self, capsys):
        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in ("BHV401", "BHV402", "BHV403", "BHV404", "BHV405",
                     "BHV501", "BHV502", "BHV503", "BHV504"):
            assert code in out
