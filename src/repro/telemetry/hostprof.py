"""Host-side wall-clock profiler — where does simulation time go?

The simulated clock is free; the host clock is not.  ``HostProfiler``
wraps the handful of call sites that dominate a run's wall-clock —
the kernel tick, the mesh backends' step/commit, the tiles'
``_pump_*`` phases and message handlers, and the packet codecs — and
attributes elapsed host time to named buckets with *exclusive* (self)
accounting: time spent inside a nested timed call is charged to the
inner bucket only.

Instrumentation is instance-level wherever possible (``sim.tick``,
``tile._pump_eject`` shadow the class attributes on the profiled
objects only); the packet codecs are module-level functions and
header-class methods, so those are patched at class/module scope
while the profiler is installed and restored on ``uninstall()`` —
profile one design at a time.

Like every telemetry surface here, the null path costs nothing: a
profiler you never ``install()`` touches no code path at all.

Usage::

    prof = HostProfiler().install(design)
    design.sim.run(100_000)
    prof.uninstall()
    print(prof.format_report())
"""

from __future__ import annotations

from collections.abc import Callable
from time import perf_counter


class _Bucket:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class HostProfiler:
    """Attribute host wall-clock to simulation phases.

    ``buckets`` maps phase names ("kernel.tick", "tiles.pump_process",
    "packet.codec", ...) to cumulative inclusive/exclusive seconds and
    call counts.  ``report()`` returns the structured view;
    ``format_report()`` renders it as a table sorted by self time.
    """

    def __init__(self) -> None:
        self.buckets: dict[str, _Bucket] = {}
        # (owner, attribute, original, is_instance) patches to undo.
        self._patches: list[tuple[object, str, object, bool]] = []
        # Active-call stack for exclusive-time accounting: each frame
        # is [bucket_name, child_seconds].
        self._stack: list[list] = []
        self.installed = False

    # -- timing core --------------------------------------------------------

    def _timed(self, bucket_name: str,
               fn: Callable) -> Callable:
        bucket = self.buckets.setdefault(bucket_name, _Bucket())
        stack = self._stack

        def wrapper(*args: object, **kwargs: object) -> object:
            frame = [bucket_name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                bucket.calls += 1
                bucket.total_s += elapsed
                bucket.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _patch(self, owner: object, attribute: str, bucket_name: str,
               instance: bool = True) -> None:
        """Shadow ``owner.attribute`` with a timed wrapper.

        ``instance=True`` binds the wrapper on the instance (shadowing
        the class attribute for this object only); ``instance=False``
        patches the class or module attribute itself — global while
        installed, restored on ``uninstall()``.
        """
        original = getattr(owner, attribute, None)
        if original is None or getattr(original, "__wrapped__", None):
            return
        setattr(owner, attribute, self._timed(bucket_name, original))
        self._patches.append((owner, attribute, original, instance))

    # -- wiring -------------------------------------------------------------

    def install(self, design: object) -> HostProfiler:
        """Wrap the hot call sites of ``design``; returns self."""
        if self.installed:
            raise RuntimeError("HostProfiler is already installed")
        sim = design.sim
        self._patch(sim, "tick", "kernel.tick")

        mesh = getattr(design, "mesh", None)
        core = getattr(mesh, "core", None)
        if core is not None:
            self._patch(core, "step", "noc.flatmesh.step")
            self._patch(core, "commit", "noc.flatmesh.commit")
        elif mesh is not None:
            for router in mesh.routers.values():
                self._patch(router, "step", "noc.router.step")
                self._patch(router, "commit", "noc.router.commit")
            for port in getattr(mesh, "ports", {}).values():
                self._patch(port, "step", "noc.localport.step")

        # Under the flat tile backend the core's batch step absorbs the
        # fast tiles' pump bodies, so their host time lands in the
        # ``tiles_flat`` bucket; object-mode tiles (and every tile
        # under the object backend) still hit the per-tile patches.
        tile_core = getattr(design, "tile_core", None)
        if tile_core is not None:
            self._patch(tile_core, "step", "tiles_flat")

        tiles = design.tiles
        if isinstance(tiles, dict):
            tiles = tiles.values()
        for tile in tiles:
            self._patch(tile, "_pump_eject", "tiles.pump_eject")
            self._patch(tile, "_pump_process", "tiles.pump_process")
            self._patch(tile, "handle_message", "tiles.handle_message")

        self._patch_codecs()
        self.installed = True
        return self

    def _patch_codecs(self) -> None:
        """Charge header pack/parse and checksums to ``packet.codec``.

        These are classes and module functions, not per-design
        instances, so the patch is process-wide while installed.
        """
        from repro.packet import builder, checksum
        from repro.packet import ipv4 as ipv4_mod
        from repro.packet import tcp as tcp_mod
        from repro.packet import udp as udp_mod
        from repro.packet.ethernet import EthernetHeader
        from repro.packet.ipv4 import IPv4Header
        from repro.packet.tcp import TcpHeader
        from repro.packet.udp import UdpHeader

        self._patch(builder, "parse_frame", "packet.codec", instance=False)
        self._patch(builder, "build_ipv4_udp_frame", "packet.codec",
                    instance=False)
        # The header modules import ``internet_checksum`` by value, so
        # each consumer module needs its own patch — wrapping only the
        # defining module would miss every call the headers make.
        for module in (checksum, ipv4_mod, udp_mod, tcp_mod):
            self._patch(module, "internet_checksum", "packet.codec",
                        instance=False)
        # Patch plain methods only: ``unpack`` is a classmethod, and
        # re-setting a captured bound classmethod on restore would
        # break the descriptor for subclasses.
        for header_cls in (EthernetHeader, IPv4Header, UdpHeader, TcpHeader):
            self._patch(header_cls, "pack", "packet.codec", instance=False)
        for header_cls in (UdpHeader, TcpHeader):
            self._patch(header_cls, "pack_with_checksum", "packet.codec",
                        instance=False)

    def uninstall(self) -> None:
        """Restore every patched call site (idempotent).

        Restoring the captured original is correct for both patch
        kinds: instance patches put back the bound method (shadowing
        the class attribute with an equivalent), class/module patches
        put back the exact function object.
        """
        for owner, attribute, original, _instance in reversed(
                self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        self.installed = False

    # -- reporting ----------------------------------------------------------

    def report(self) -> dict:
        """Structured profile: per-bucket calls / total / self seconds.

        ``self_pct`` is each bucket's share of the summed exclusive
        time — the honest "where did the host clock go" number.
        """
        total_self = sum(b.self_s for b in self.buckets.values()) or 1.0
        out = {}
        for name in sorted(self.buckets,
                           key=lambda n: -self.buckets[n].self_s):
            bucket = self.buckets[name]
            out[name] = {
                "calls": bucket.calls,
                "total_s": bucket.total_s,
                "self_s": bucket.self_s,
                "self_pct": 100.0 * bucket.self_s / total_self,
            }
        return out

    def format_report(self) -> str:
        lines = [
            f"{'phase':<24} {'calls':>10} {'total s':>9} "
            f"{'self s':>9} {'self %':>7}",
        ]
        for name, row in self.report().items():
            lines.append(
                f"{name:<24} {row['calls']:>10} {row['total_s']:>9.4f} "
                f"{row['self_s']:>9.4f} {row['self_pct']:>6.1f}%"
            )
        return "\n".join(lines)


def profile_run(design: object,
                cycles: int) -> tuple[HostProfiler, float]:
    """Run ``design.sim`` for ``cycles`` under a fresh profiler.

    Returns ``(profiler, wall_seconds)`` with the profiler already
    uninstalled — the one-call entry point for benchmarks and the
    tutorial.
    """
    profiler = HostProfiler().install(design)
    start = perf_counter()
    try:
        design.sim.run(cycles)
    finally:
        profiler.uninstall()
    return profiler, perf_counter() - start
