"""Flat (array-of-struct) mesh backend speed vs the object mesh.

``repro.noc.flatmesh`` compiles the whole mesh into flat parallel
arrays stepped by one batch loop per cycle, replacing one ``Router``
object and five ``StagedFifo`` objects per router (see the module
docstring for the equivalence argument; the differential suite in
``tests/test_kernel_equivalence.py`` pins bit-identity).  This
benchmark measures what that buys and writes ``BENCH_mesh.json``:

- *idle-heavy*: the 4x2 UDP echo design paced at 10% line rate.  The
  mesh is quiescent most of the time, so both backends ride the
  activity-scheduled kernel's idle skipping and run near parity; the
  row guards against the flat backend taxing the idle path.
- *saturating*: the section VII-I scaled echo design (22 application
  tiles on the paper's 7x4 U200 floorplan) under back-to-back
  MTU-sized requests, on the *naive* kernel so the row measures the
  mesh backends and not how the scheduler treats the object mesh's
  ~115 components (a scheduled kernel that steps only the routers and
  ports with work speeds the object side up 1.5x and moves the ratio
  without the flat mesh changing).  Those components collapse into
  one batch-stepped core, and wormholes stretch across the whole
  fabric: this is where the flat backend pays off (~3.3x measured
  locally).
- *tiles saturating*: the tile-engine axis — ``tile_backend="flat"``
  vs ``"object"`` with the mesh held flat on both sides.  A 12x10
  scaled echo (114 application tiles) under back-to-back MTU-sized
  requests, on the *naive* kernel so the kernel treats both engines
  identically (step everything, every cycle) and the measured gap is
  the tile engine's alone: the object engine pays one Python
  ``Tile.step`` dispatch per tile per cycle while
  :class:`~repro.tiles.flatcore.FlatTileCore` batch-steps the busy
  subset from one loop.  The advantage grows with tile count, which
  is the point of a batch engine (~2.2x measured locally at 162
  tiles).
- *16x16 scalability*: the same scaled stack generalised to a 16x16
  mesh (256 routers, 70 tiles) — a size whose object-backend
  construction and stepping costs push past comfortable CI budgets.
  The row runs flat-only and completes in seconds, demonstrating the
  sweep headroom ``bench_sec7i_scalability`` exploits.

All two-backend rows assert bit-identical results (frame bytes and
emit cycles) across backends — speed must never change simulated
behaviour.
"""

import json
import time
from pathlib import Path

from repro.designs import FrameSink, FrameSource, UdpEchoDesign
from repro.designs.scaled_echo import ScaledEchoDesign
from repro.noc.message import reset_id_counters
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")

LINE_RATE = 50.0                 # bytes/cycle, the modelled MAC rate
IDLE_RATE = LINE_RATE / 10.0     # "10% line rate" injection pacing
PAYLOAD = 1458                   # MTU-sized UDP payload
IDLE_CYCLES = 100_000
SAT_CYCLES = 20_000
SWEEP_CYCLES = 8_000
SWEEP_APPS = 64                  # 16x16 hosts up to 250
REPS = 2                         # best-of-N wall clock per config

# Tile-engine axis operating point: big enough that per-tile Python
# dispatch dominates the object engine (the flat engine's win scales
# with tile count), on the naive kernel so scheduling treats both
# engines identically.  Best-of-3 because the ratio floor is tight.
TILE_APPS = 162
TILE_WIDTH = 14
TILE_HEIGHT = 12
TILE_REPS = 3

# Hard regression floors.  The saturating point measures 3.3-3.5x
# locally (best-of-2, three runs 3.33-3.48; 2.93-3.26 before the flat
# mesh stopped building a Flit per flit, which the object mesh still
# does); the floor is 0.8x the lowest of those — above the ~1.5x a
# per-router scan reaches, so a step that goes back to paying per busy
# router fails the gate.
MIN_SAT_SPEEDUP = 2.65
MIN_IDLE_SPEEDUP = 0.8
# Tile axis: 2.21-2.42x measured locally (best-of-3, 162 tiles);
# 0.8x the lowest.
MIN_TILE_SPEEDUP = 1.75

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_mesh.json"


def _run_udp(backend: str, rate: float | None, cycles: int):
    """Idle-heavy operating point: the 4x2 UDP echo design."""
    reset_id_counters()
    design = UdpEchoDesign(udp_port=7,
                           line_rate_bytes_per_cycle=LINE_RATE,
                           mesh_backend=backend)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                 CLIENT_IP, design.server_ip, 5555, 7,
                                 bytes(PAYLOAD))
    source = FrameSource(design.inject, lambda i: frame, rate=rate)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    started = time.perf_counter()
    design.sim.run(cycles)
    wall = time.perf_counter() - started
    return wall, list(sink.frames)


def _run_scaled(backend: str, cycles: int, n_apps: int = 22,
                width: int | None = None, height: int | None = None,
                tile_backend: str = "object",
                kernel: str = "scheduled"):
    """Saturating operating point: the section VII-I scaled echo."""
    reset_id_counters()
    design = ScaledEchoDesign(n_apps=n_apps, mesh_backend=backend,
                              width=width, height=height,
                              tile_backend=tile_backend, kernel=kernel)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frames = [build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                   CLIENT_IP, design.server_ip,
                                   5000 + i, 7, bytes(PAYLOAD))
              for i in range(n_apps)]
    source = FrameSource(design.inject,
                         lambda i: frames[i % len(frames)], rate=None)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    started = time.perf_counter()
    design.sim.run(cycles)
    wall = time.perf_counter() - started
    return wall, list(sink.frames)


def _run_sat(backend: str, cycles: int):
    """Mesh axis: object tiles, naive kernel on both sides."""
    return _run_scaled(backend, cycles, kernel="naive")


def _run_tiles(tile_backend: str, cycles: int):
    """Tile-engine axis: mesh held flat, naive kernel on both sides."""
    return _run_scaled("flat", cycles, TILE_APPS, TILE_WIDTH,
                       TILE_HEIGHT, tile_backend=tile_backend,
                       kernel="naive")


def _measure(run, *args, reps: int = REPS) -> dict:
    """Both backends on one workload, best-of-``reps`` wall clock.

    Reps interleave object/flat so slow host drift cancels instead of
    biasing whichever backend ran last.
    """
    object_wall, object_frames = run("object", *args)
    flat_wall, flat_frames = run("flat", *args)
    for _ in range(reps - 1):
        object_wall = min(object_wall, run("object", *args)[0])
        flat_wall = min(flat_wall, run("flat", *args)[0])
    # Bit-identical results: same frame bytes at the same emit cycles.
    assert object_frames == flat_frames, \
        "flat backend diverged from object (frames or emit cycles)"
    return {
        "frames": len(flat_frames),
        "object_wall_s": round(object_wall, 4),
        "flat_wall_s": round(flat_wall, 4),
        "speedup": round(object_wall / flat_wall, 3),
    }


def run_mesh_backend() -> dict:
    idle = _measure(_run_udp, IDLE_RATE, IDLE_CYCLES)
    idle.update(design="UdpEchoDesign 4x2",
                cycles=IDLE_CYCLES, rate_bytes_per_cycle=IDLE_RATE)
    sat = _measure(_run_sat, SAT_CYCLES)
    sat.update(design="ScaledEchoDesign 7x4 (22 apps), naive kernel",
               cycles=SAT_CYCLES, rate_bytes_per_cycle=None,
               kernel="naive")
    tiles = _measure(_run_tiles, SAT_CYCLES, reps=TILE_REPS)
    tiles.update(design=(f"ScaledEchoDesign {TILE_WIDTH}x{TILE_HEIGHT} "
                         f"({TILE_APPS} apps), naive kernel"),
                 cycles=SAT_CYCLES, rate_bytes_per_cycle=None,
                 mesh_backend="flat", kernel="naive")

    # 16x16 row: flat-only — the point is that the size is reachable.
    wall, frames = _run_scaled("flat", SWEEP_CYCLES, SWEEP_APPS, 16, 16)
    wall = min(wall,
               _run_scaled("flat", SWEEP_CYCLES, SWEEP_APPS, 16, 16)[0])
    sweep = {
        "design": f"ScaledEchoDesign 16x16 ({SWEEP_APPS} apps)",
        "cycles": SWEEP_CYCLES,
        "frames": len(frames),
        "flat_wall_s": round(wall, 4),
        "backend": "flat",
    }
    return {
        "benchmark": "flat vs object mesh backend (UDP echo designs)",
        "payload_bytes": PAYLOAD,
        "idle_heavy": idle,
        "saturating": sat,
        "tiles_saturating": tiles,
        "scalability_16x16": sweep,
    }


def bench_mesh_backend(benchmark, report):
    results = benchmark.pedantic(run_mesh_backend, rounds=1,
                                 iterations=1)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    rows = []
    for tag in ("idle_heavy", "saturating", "tiles_saturating"):
        r = results[tag]
        rows.append([tag, r["design"], r["frames"], r["object_wall_s"],
                     r["flat_wall_s"], r["speedup"]])
    sweep = results["scalability_16x16"]
    rows.append(["scalability", sweep["design"], sweep["frames"], "-",
                 sweep["flat_wall_s"], "-"])
    report.table(
        ["load", "design", "frames", "object s", "flat s", "speedup"],
        rows,
    )
    report.row()
    report.row(f"results written to {RESULTS_PATH.name}")

    sat = results["saturating"]
    assert sat["speedup"] >= MIN_SAT_SPEEDUP, (
        f"saturating speedup {sat['speedup']}x below regression floor "
        f"{MIN_SAT_SPEEDUP}x — has the flat backend stopped paying?")
    idle = results["idle_heavy"]
    assert idle["speedup"] >= MIN_IDLE_SPEEDUP, (
        f"idle-heavy speedup {idle['speedup']}x below parity floor "
        f"{MIN_IDLE_SPEEDUP}x — the flat backend is taxing idle skip")
    tiles = results["tiles_saturating"]
    assert tiles["speedup"] >= MIN_TILE_SPEEDUP, (
        f"tile-engine speedup {tiles['speedup']}x below regression "
        f"floor {MIN_TILE_SPEEDUP}x — has the flat tile engine "
        "stopped paying?")
    assert sweep["frames"] > 0, "16x16 sweep row moved no traffic"
