"""Cross-validation: the Table I RTT model vs a discrete-event run.

The Table I benchmark samples an analytic sum of per-side costs.  This
test builds the same configuration as an actual closed-loop
client/server exchange in the event simulator — scheduled sends,
queued server turnaround, timestamped completions — and checks the two
agree.  If someone edits one model and not the other, this breaks.
"""

import pytest

from repro import params
from repro.baselines.hoststacks import (
    beehive_server,
    dpdk_side,
    linux_client_side,
    linux_server_side,
    pcie_trampoline,
    table1_configs,
    wire,
)
from repro.sim.events import EventSimulator
from repro.sim.rng import SeededStreams

N_REQUESTS = 20_000


def event_loop_rtts(components, n=N_REQUESTS, seed=0xE0E0):
    """Run the component chain as real events: each stage is a
    scheduled hop; the client is closed-loop."""
    sim = EventSimulator()
    rng = SeededStreams(seed).stream("crossval")
    rtts = []
    state = {"start": 0.0, "stage": 0}

    def advance():
        if state["stage"] == len(components):
            rtts.append(sim.now - state["start"])
            if len(rtts) >= n:
                return
            state["start"] = sim.now
            state["stage"] = 0
        stage_fn = components[state["stage"]]
        state["stage"] += 1
        sim.schedule(stage_fn(rng), advance)

    state["start"] = sim.now
    sim.schedule(0.0, advance)
    sim.run_until(float("inf"))
    return sorted(rtts)


class TestCrossValidation:
    @pytest.mark.parametrize("name,components", [
        ("dpdk_client/beehive",
         [dpdk_side, wire, beehive_server, wire, dpdk_side]),
        ("linux_client/beehive",
         [linux_client_side, wire, beehive_server, wire,
          linux_client_side]),
        ("linux_client/linux_accel",
         [linux_client_side, wire, linux_server_side, pcie_trampoline,
          pcie_trampoline, linux_server_side, wire,
          linux_client_side]),
    ])
    def test_event_run_matches_analytic_model(self, name, components):
        analytic = table1_configs()[name].run()
        event_rtts = event_loop_rtts(components)
        event_median = event_rtts[len(event_rtts) // 2] * 1e6
        event_p99 = event_rtts[int(len(event_rtts) * 0.99)] * 1e6
        assert event_median == pytest.approx(analytic.median_us,
                                             rel=0.05)
        assert event_p99 == pytest.approx(analytic.p99_us, rel=0.15)

    def test_closed_loop_throughput_is_inverse_rtt(self):
        rtts = event_loop_rtts(
            [dpdk_side, wire, beehive_server, wire, dpdk_side],
            n=5000,
        )
        mean_rtt = sum(rtts) / len(rtts)
        # One outstanding request: rate = 1 / mean RTT.
        expected_rate = 1.0 / mean_rtt
        assert expected_rate == pytest.approx(
            1e6 / (params.DPDK_STACK_ONEWAY_S * 2e6
                   + params.WIRE_SWITCH_ONEWAY_S * 2e6
                   + params.BEEHIVE_SERVER_S * 1e6
                   + 2 * params.DPDK_STACK_JITTER_S * 1e6),
            rel=0.05,
        )
