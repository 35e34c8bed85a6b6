"""Every shipped design runs under the trace and top CLIs.

Both tools list every ``repro.designs.SHIPPED`` name as a valid target,
so each one must run end to end.  A design whose ``udp_rx`` routes no
UDP port (the TCP servers) is refused with the documented message
instead: the tools drive UDP client traffic only.
"""

import re

import pytest

from repro.designs import SHIPPED, load_design
from repro.tools import top, trace

CYCLES = "500"


def _routes_udp(name: str) -> bool:
    return load_design(name)[1]().udp_port is not None


def _check(name: str, code: int, capsys) -> str:
    captured = capsys.readouterr()
    if _routes_udp(name):
        assert code == 0, captured.err
    else:
        assert code == 1
        assert "routes no UDP port" in captured.err
    return captured.out


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_trace_runs_every_shipped_design(name, tmp_path, capsys):
    code = trace.main([name, "--cycles", CYCLES,
                       "--out", str(tmp_path / "trace.json")])
    _check(name, code, capsys)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_top_runs_every_shipped_design(name, capsys):
    code = top.main([name, "--plain", "--cycles", CYCLES])
    _check(name, code, capsys)


@pytest.mark.parametrize("tool", ["trace", "top"])
def test_multi_stack_egress_is_counted(tool, tmp_path, capsys):
    """Every stack's MAC-facing TX tile is drained, not only one
    named ``eth_tx`` (the design has ``eth_tx_0`` and ``eth_tx_1``)."""
    if tool == "trace":
        code = trace.main(["multi_stack", "--cycles", CYCLES,
                           "--out", str(tmp_path / "trace.json")])
    else:
        code = top.main(["multi_stack", "--plain", "--cycles", CYCLES])
    out = _check("multi_stack", code, capsys)
    assert int(re.search(r"egressed (\d+)", out).group(1)) > 0
