"""Section VII-I: hardware-resource scalability.

Two results: (1) the placement/timing wall — echo application tiles
added to a UDP stack until the router-to-router critical path fails
250 MHz at 28 tiles total (22 application tiles), limited by timing,
not LUTs; (2) NoC bandwidth scales with duplicated stacks up to the
load balancer's serialisation limit (the Fig 12 companion numbers).

A third, simulation-side sweep rides along: the scaled echo design is
actually *run* at growing mesh sizes under the ``fast`` profile, whose
flat mesh (``repro.noc.flatmesh``) collapses the whole fabric into one
batch-stepped component.  ``reference`` is timed only at the paper's
7x4 floorplan; the 8x8 and 16x16 rows are ``fast`` only — sizes where
per-object stepping stops being CI-friendly — showing the fast path
extends the scalability story beyond the U200's 28-tile wall.
"""

import time

import pytest

from repro import params
from repro.designs import attach_client, client_frame
from repro.designs.scaled_echo import ScaledEchoDesign
from repro.noc.message import reset_id_counters
from repro.resources import (
    max_frequency_mhz,
    max_placeable_tiles,
    tile_cost,
)

SWEEP_CYCLES = 6_000
# (width, height, app tiles, profiles to time): the 7x4 row is the
# paper's U200 floorplan and runs both profiles; larger meshes fast
# only.
SWEEP_POINTS = (
    (7, 4, 22, ("reference", "fast")),
    (8, 8, 58, ("fast",)),
    (16, 16, 250, ("fast",)),
)


def _run_point(profile: str, width: int, height: int, n_apps: int):
    reset_id_counters()
    design = ScaledEchoDesign(n_apps=n_apps, width=width, height=height,
                              profile=profile)
    frames = [client_frame(design, bytes(1458), src_port=5000 + i)
              for i in range(min(n_apps, 32))]
    _source, sink = attach_client(design, frames, rate=None)
    started = time.perf_counter()
    design.sim.run(SWEEP_CYCLES)
    wall = time.perf_counter() - started
    return wall, len(sink.frames)


def run_simulated_sweep():
    rows = []
    for width, height, n_apps, profiles in SWEEP_POINTS:
        walls = {}
        frames = None
        for profile in profiles:
            wall, got = _run_point(profile, width, height, n_apps)
            walls[profile] = wall
            assert frames is None or frames == got, \
                "profiles disagreed on delivered frames"
            frames = got
        rows.append((width, height, n_apps, frames,
                     walls.get("reference"), walls["fast"]))
    return rows


def run_scalability():
    stack_tiles = 6  # eth/ip/udp rx + tx
    rows = []
    for app_tiles in (1, 8, 16, 22, 23):
        total = stack_tiles + app_tiles
        fmax = max_frequency_mhz(total)
        luts = (sum(tile_cost(k).luts for k in
                    ("eth_rx", "ip_rx", "udp_rx", "udp_tx", "ip_tx",
                     "eth_tx"))
                + app_tiles * tile_cost("echo_app").luts)
        rows.append((app_tiles, total, fmax, luts,
                     100 * luts / params.U200_TOTAL_LUTS))
    return rows, max_placeable_tiles()


def bench_sec7i_scalability(benchmark, report):
    rows, ceiling = benchmark.pedantic(run_scalability, rounds=1,
                                       iterations=1)

    report.table(
        ["app tiles", "total tiles", "fmax MHz", "LUTs", "% LUTs"],
        [[apps, total, f"{fmax:.1f}", luts, f"{pct:.1f}"]
         for apps, total, fmax, luts, pct in rows],
    )
    report.row()
    report.row(f"placement ceiling at 250 MHz: {ceiling} tiles "
               "(paper: 28 total / 22 application tiles)")
    last_ok = rows[-2]
    report.row(f"at the ceiling the design uses only "
               f"{last_ok[4]:.1f}% of LUTs — limited by timing "
               "(512-bit router fan-out + chiplet crossings), not "
               "resources, as the paper reports")

    assert ceiling == 28
    by_apps = {row[0]: row for row in rows}
    assert by_apps[22][2] >= 250.0   # 22 app tiles close timing
    assert by_apps[23][2] < 250.0    # 23 do not
    assert by_apps[22][4] < 25.0     # LUTs are nowhere near the wall

    sweep = run_simulated_sweep()
    report.row()
    report.table(
        ["mesh", "app tiles", "frames", "reference s", "fast s"],
        [[f"{w}x{h}", apps, frames,
          "-" if ref is None else f"{ref:.2f}", f"{fast:.2f}"]
         for w, h, apps, frames, ref, fast in sweep],
    )
    report.row("simulated sweep: 6k cycles of saturating MTU echo; "
               "8x8 and 16x16 run under the fast profile only")
    # Every row — including 16x16/250 apps, past the paper's 28-tile
    # wall — must actually move traffic end to end.
    for _w, _h, _apps, frames, _ref, _fast in sweep:
        assert frames and frames > 0
