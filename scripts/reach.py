#!/usr/bin/env python3
"""What under ``src/repro`` does anything but a test reach?

    python3 scripts/reach.py

Runs every non-test entry point of the repository under a
``sys.setprofile`` hook, in five groups on two worker processes:

- ``designs``: every shipped design under both profiles, built through
  ``load_design`` and driven for 3 000 cycles with 64 B and 1 458 B
  client requests (plus one log read on the logged UDP echo);
- ``examples``: ``examples/*.py``;
- ``tools``: every ``repro.tools`` CLI on every shipped name, every lint
  demo target, and every flag at least once with a non-default value;
- ``bench``: ``pytest benchmarks --ignore=benchmarks/perflab``, in
  process;
- ``perflab``: one rep of each perflab workload at seed 1, traced and
  untraced.

It records every function under ``src/repro`` that is called and, for
every parameter with a default, whether a call bound it to anything
else.  It prints the functions nothing reached and the parameters
nothing set, as ``path:line qualname lines``, with totals.  Lambdas and
comprehensions are not counted, nor a function nested in one that is
itself unreached, nor the parameters of an unreached function.

The exit status is non-zero when an entry point raised, when a listed
function or parameter has no entry in :data:`KEEP`, or when a ``KEEP``
entry is no longer listed (it was reached, set or deleted), so the
table cannot go stale.  A full run takes about ten minutes on two cores.
"""

from __future__ import annotations

import ast
import contextlib
import multiprocessing
import os
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

# The only reasons an unreached function or a never-set parameter stays.
DOCUMENTED = "public API that README or TUTORIAL documents"
REFERENCE = "a reference-only path, or a reference tests compare against"
FIXTURE = "a seeded-bug fixture in repro.analysis.demo"
SAFETY = "safety code: fault recovery or an input check"
DEPLOYMENT = "a deployment setting: an address or a port"
REASONS = (DOCUMENTED, REFERENCE, FIXTURE, SAFETY, DEPLOYMENT)

#: qualified name -> why it stays although only tests reach it.  A
#: function is ``module.qualname``; a parameter is
#: ``module.qualname(parameter)``.
KEEP: dict[str, str] = {
    # -- seeded-bug fixtures: the linter's own negative cases -------------------
    "repro.analysis.demo.LeakyEjectTile.handle_message": FIXTURE,
    "repro.analysis.demo.EarlyReadTile.handle_message": FIXTURE,
    # -- TUTORIAL section 9: the fault plan and what carries it out -------------
    "repro.faults.plan.FaultPlan.wire(delay_range)": DOCUMENTED,
    "repro.telemetry.trace.Tracer.fault": DOCUMENTED,
    "repro.analysis.sanitize.build_design(fault_plan)": DOCUMENTED,
    "repro.analysis.sanitize.analyze_dynamic(fault_plan)": DOCUMENTED,
    # -- TUTORIAL section 10: Prometheus text over the probe's last sample ------
    "repro.telemetry.export.prometheus_text": DOCUMENTED,
    "repro.telemetry.export._prom_name": DOCUMENTED,
    "repro.telemetry.export._prom_value": DOCUMENTED,
    "repro.telemetry.export._field": DOCUMENTED,
    "repro.telemetry.metrics.Histogram.buckets": DOCUMENTED,
    # -- TUTORIAL sections 2, 6 and 11: registry, views, profiles ---------------
    "repro.config.registry.register_tile_type": DOCUMENTED,
    "repro.sim.kernel.ClockedComponent.step": DOCUMENTED,
    "repro.sim.kernel.ClockedComponent.commit": DOCUMENTED,
    "repro.sim.kernel.StagedFifo.peek": DOCUMENTED,
    "repro.loadgen.flows.build_competing_flows(profile)": DOCUMENTED,
    "repro.loadgen.sweep.run_point(profile)": DOCUMENTED,
    "repro.designs.vr_design.VrWitnessDesign.spec(duplicate_udp)": DOCUMENTED,
    # -- design-file <param>s and <dest policy>: TUTORIAL section 2's schema ----
    "repro.designs.managed_stack.ManagedNatEchoDesign.spec"
    "(line_rate_bytes_per_cycle)": DOCUMENTED,
    "repro.designs.multi_stack.MultiStackDesign.spec"
    "(line_rate_bytes_per_cycle)": DOCUMENTED,
    "repro.designs.scaled_echo.ScaledEchoDesign.spec"
    "(line_rate_bytes_per_cycle)": DOCUMENTED,
    "repro.designs.rs_design.RsDesign.spec(rs_gbps)": DOCUMENTED,
    "repro.designs.tcp_stack.TcpServerDesign.spec(congestion_control)":
        DOCUMENTED,
    "repro.apps.reed_solomon.tile.RsEncoderTile.__init__(data_shards)":
        DOCUMENTED,
    "repro.apps.reed_solomon.tile.RsEncoderTile.__init__(parity_shards)":
        DOCUMENTED,
    "repro.apps.reed_solomon.tile.RsEncoderTile.__init__(gbps)": DOCUMENTED,
    "repro.tiles.logger.PacketLogTile.__init__(capacity)": DOCUMENTED,
    "repro.tcp.tx_engine.TcpTxEngineTile.__init__(congestion_control)":
        DOCUMENTED,
    "repro.tcp.app.TcpSourceAppTile.__init__(total_bytes)": DOCUMENTED,
    "repro.tiles.base.NextHopTable.__init__(policy)": DOCUMENTED,
    # -- references the tests compare against ----------------------------------
    "repro.noc.router.Router.flits_per_output": REFERENCE,
    "repro.noc.router.Router._connected_mask": REFERENCE,
    "repro.noc.router.Router.fault_misroute": REFERENCE,
    "repro.noc.router.Router.fault_block_output": REFERENCE,
    "repro.telemetry.trace.Tracer.link_stall": REFERENCE,
    "repro.apps.reed_solomon.cpu.CpuReedSolomonBaseline.encode_request":
        REFERENCE,
    "repro.apps.reed_solomon.gf.GF256.add": REFERENCE,
    "repro.apps.reed_solomon.gf.GF256.mul": REFERENCE,
    "repro.apps.reed_solomon.gf.GF256.div": REFERENCE,
    "repro.tiles.logger.LogEntry.unpack": REFERENCE,
    # -- safety: loss recovery, teardown, bounds, framing checks ---------------
    "repro.noc.mesh.handle_framing_error": SAFETY,
    "repro.noc.flatmesh._private_cache": SAFETY,
    "repro.tcp.cc.cubic_window": SAFETY,
    "repro.tcp.cc.CongestionControl.on_ack": SAFETY,
    "repro.tcp.cc.CongestionControl.on_loss": SAFETY,
    "repro.tcp.cc.CongestionControl.on_timeout": SAFETY,
    "repro.tcp.cc.RenoCC.on_timeout": SAFETY,
    "repro.tcp.cc.TahoeCC.on_loss": SAFETY,
    "repro.tcp.cc.CubicCC.on_loss": SAFETY,
    "repro.tcp.cc.CubicCC.on_timeout": SAFETY,
    "repro.tcp.flow.FlowTable.release": SAFETY,
    "repro.tcp.peer.SoftTcpPeer.close": SAFETY,
    "repro.tcp.rx_engine.TcpRxEngineTile._teardown": SAFETY,
    "repro.tcp.tx_engine.TcpTxEngineTile.fast_retransmit": SAFETY,
    "repro.tcp.tx_engine.TcpTxEngineTile.release_flow": SAFETY,
    "repro.tcp.tx_engine.TcpTxEngineTile._retransmit": SAFETY,
    "repro.tcp.tx_engine.TcpTxEngineTile.__init__(rto_cycles)": SAFETY,
    "repro.loadgen.flows.run_competing_flows(max_cycles)": SAFETY,
    "repro.tiles.logger.PacketLogTile.__init__(request_buffer)": SAFETY,
    "repro.analysis.sanitize.analyze_dynamic(traffic)": SAFETY,
    # -- deployment settings: ports, addresses, network identifiers -------------
    "repro.designs.managed_stack.ManagedNatEchoDesign.spec(udp_port)":
        DEPLOYMENT,
    "repro.designs.multi_stack.MultiStackDesign.spec(udp_port)": DEPLOYMENT,
    "repro.designs.rs_design.RsDesign.spec(udp_port)": DEPLOYMENT,
    "repro.designs.scaled_echo.ScaledEchoDesign.spec(udp_port)": DEPLOYMENT,
    "repro.designs.tcp_stack.TcpServerDesign.spec(tcp_port)": DEPLOYMENT,
    "repro.designs.udp_stack.UdpEchoDesign.spec(udp_port)": DEPLOYMENT,
    "repro.designs.udp_stack.LoggedUdpEchoDesign.spec(udp_port)": DEPLOYMENT,
    "repro.designs.virt_stack.NatEchoDesign.spec(udp_port)": DEPLOYMENT,
    "repro.designs.virt_stack.IpInIpEchoDesign.spec(udp_port)": DEPLOYMENT,
    "repro.designs.vxlan_stack.VxlanEchoDesign.spec(udp_port)": DEPLOYMENT,
    "repro.designs.vxlan_stack.VxlanEchoDesign.spec(vni)": DEPLOYMENT,
    "repro.baselines.calm.CalmUdpEcho.__init__(udp_port)": DEPLOYMENT,
    "repro.baselines.pipelined.PipelinedUdpEchoDesign.__init__(udp_port)":
        DEPLOYMENT,
    "repro.packet.vxlan.build_vxlan_frame(src_port)": DEPLOYMENT,
    "repro.tiles.ipinip.IpInIpDecapTile.__init__(tunnel_endpoints)":
        DEPLOYMENT,
}


# -- what exists ---------------------------------------------------------------


@dataclass(frozen=True)
class Function:
    """One ``def`` under ``src/repro``, as the source has it."""

    path: str              # relative to the repository root
    line: int              # its first line: the first decorator's
    end: int
    qualname: str          # module.Class.method
    defaults: dict         # parameter -> source text of its default
    parent: tuple | None   # the key of the function it is nested in

    @property
    def key(self) -> tuple[str, int]:
        return (self.path, self.line)

    @property
    def lines(self) -> int:
        return self.end - self.line + 1


def _defaults(arguments: ast.arguments) -> dict[str, str]:
    positional = arguments.posonlyargs + arguments.args
    pairs = list(zip(positional[len(positional) - len(arguments.defaults):],
                     arguments.defaults))
    pairs += [(arg, default) for arg, default
              in zip(arguments.kwonlyargs, arguments.kw_defaults)
              if default is not None]
    return {arg.arg: ast.unparse(default) for arg, default in pairs}


def inventory() -> dict[tuple[str, int], Function]:
    """Every function under ``src/repro``, by (path, first line)."""
    found: dict[tuple[str, int], Function] = {}

    def visit(node, prefix: str, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [decorator.lineno for decorator
                                             in child.decorator_list])
                function = Function(path, line, child.end_lineno,
                                    f"{prefix}.{child.name}",
                                    _defaults(child.args), parent)
                found[function.key] = function
                visit(child, f"{prefix}.{child.name}.<locals>",
                      function.key)
            else:
                visit(child, prefix, parent)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = str(file.relative_to(ROOT))
        parts = file.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(file.read_text(), path), module, None)
    return found


# -- the profile hook ----------------------------------------------------------

_MISSING = object()


def _same(a, b) -> bool:
    if a is b:
        return True
    try:
        return type(a) is type(b) and bool(a == b)
    except Exception:  # noqa: BLE001 - an uncomparable value differs
        return False


class Recorder:
    """``sys.setprofile`` hook: which functions ran, and up to two
    distinct values each defaulted parameter was bound to."""

    def __init__(self, functions: dict[tuple[str, int], Function]):
        self.functions = functions
        self.prefix = str(PACKAGE) + os.sep
        self.reached: set[tuple[str, int]] = set()
        self.values: dict[tuple, list] = {}
        self._codes: dict[int, tuple] = {}   # id(code) -> (code, todo)

    def __call__(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        entry = self._codes.get(id(code))
        if entry is None:
            entry = self._codes[id(code)] = (code, self._first_call(code))
        todo = entry[1]
        if not todo:
            return
        local = frame.f_locals
        key = todo[0]
        for param in todo[1:]:
            value = local.get(param, _MISSING)
            seen = self.values.setdefault((key, param), [])
            if not any(_same(old, value) for old in seen):
                seen.append(value)
                if len(seen) > 1:           # two values: one is not
                    todo.remove(param)      # the default
        if len(todo) == 1:
            self._codes[id(code)] = (code, None)

    def _first_call(self, code):
        filename = code.co_filename
        if not filename.startswith(self.prefix):
            return None
        key = (str(Path(filename).relative_to(ROOT)), code.co_firstlineno)
        function = self.functions.get(key)
        if function is None or code.co_name != function.qualname.rsplit(
                ".", 1)[-1]:
            return None     # a lambda, a comprehension, a class body
        self.reached.add(key)
        return [key, *function.defaults] if function.defaults else None

    def set_params(self) -> set[tuple]:
        """(key, parameter) for every parameter bound to a value other
        than its default at least once."""
        defaults = _runtime_defaults()
        result = set()
        for (key, param), seen in self.values.items():
            if len(seen) > 1:
                result.add((key, param))
                continue
            default = defaults.get(key, {}).get(param, _MISSING)
            if default is _MISSING:
                try:
                    default = ast.literal_eval(
                        self.functions[key].defaults[param])
                except ValueError:
                    result.add((key, param))    # cannot tell: not listed
                    continue
            if not _same(seen[0], default):
                result.add((key, param))
        return result


def _runtime_defaults() -> dict[tuple[str, int], dict]:
    """(path, first line) -> {parameter: default value} for every
    function reachable from a loaded ``repro`` module."""
    result: dict[tuple[str, int], dict] = {}
    visited: set[int] = set()

    def visit(obj) -> None:
        if id(obj) in visited:
            return
        visited.add(id(obj))
        if isinstance(obj, (staticmethod, classmethod)):
            visit(obj.__func__)
        elif isinstance(obj, property):
            for accessor in (obj.fget, obj.fset, obj.fdel):
                if accessor is not None:
                    visit(accessor)
        elif isinstance(obj, type):
            if obj.__module__.split(".")[0] == "repro":
                for member in vars(obj).values():
                    visit(member)
        elif callable(obj):
            wrapped = getattr(obj, "__wrapped__", None)
            if wrapped is not None:
                visit(wrapped)
            code = getattr(obj, "__code__", None)
            if code is None or not code.co_filename.startswith(str(PACKAGE)):
                return
            names = code.co_varnames[:code.co_argcount]
            values = dict(zip(names[len(names) - len(obj.__defaults__ or ()):],
                              obj.__defaults__ or ()))
            values.update(obj.__kwdefaults__ or {})
            key = (str(Path(code.co_filename).relative_to(ROOT)),
                   code.co_firstlineno)
            result[key] = values

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for member in list(vars(module).values()):
                visit(member)
    return result


# -- the entry points ----------------------------------------------------------


def _each(runs) -> None:
    """Call every ``(label, thunk)``; raise once, at the end, naming
    every run that raised."""
    failures = []
    for label, thunk in runs:
        try:
            thunk()
        except SystemExit:
            pass        # argparse: a usage error is a reached path too
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(f"{label}: {type(error).__name__}: {error}")
    if failures:
        raise RuntimeError("\n".join(failures))


def _drive(name: str, profile: str) -> None:
    import struct

    from repro.designs import attach_client, client_frame, load_design

    design = load_design(name)[1](profile=profile)
    port = design.udp_port or 7
    frames = [client_frame(design, bytes(size), dst_port=port)
              for size in (64, 1458)]
    log_port = getattr(design, "LOG_PORT", None)
    if log_port is not None:
        frames.append(client_frame(design, struct.pack("!I", 0),
                                   dst_port=log_port))
    attach_client(design, frames)
    design.sim.run(3000)


def _designs(tmp: Path) -> None:
    from functools import partial

    from repro.designs import SHIPPED

    _each((f"{name} ({profile})", partial(_drive, name, profile))
          for name in sorted(SHIPPED) for profile in ("fast", "reference"))


def _examples(tmp: Path) -> None:
    import runpy

    def run(path: Path) -> None:
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")

    _each((path.name, lambda path=path: run(path))
          for path in sorted((ROOT / "examples").glob("*.py")))


def _tool_runs(tmp: Path) -> list[tuple[str, list[str]]]:
    from repro.analysis.demo import FIXTURES
    from repro.config.examples import UDP_ECHO_XML
    from repro.designs import SHIPPED

    xml = tmp / "udp_echo.xml"
    xml.write_text(UDP_ECHO_XML)
    # The two malformed files the CI lint job feeds the design tools.
    bad_type = tmp / "bad_type.xml"
    bad_type.write_text(UDP_ECHO_XML.replace("<type>echo_app</type>",
                                             "<type>echo_ap</type>"))
    no_mac = tmp / "no_mac.xml"
    no_mac.write_text(UDP_ECHO_XML.replace(
        '<y>1</y>\n    <param name="my_mac" value="02:be:e0:00:00:01"/>',
        "<y>1</y>"))
    snapshots = str(tmp / "snapshots.json")
    out = str(tmp / "out.json")
    runs: list[tuple[str, list[str]]] = []
    for name in sorted(SHIPPED) + [str(xml)]:
        for command in ("validate", "analyze", "generate", "resources"):
            runs.append(("design", [command, name]))
        runs.append(("trace", [name, "--cycles", "500", "--out", out]))
        runs.append(("top", [name, "--plain", "--cycles", "500"]))
        runs.append(("lint", [name, "--sanitize", "--cycles", "300"]))
        runs.append(("chaos", [f"design:{name}", "--seeds", "1"]))
    runs += [
        ("design", ["loc", "udp_echo", "app"]),
        ("design", ["validate", str(bad_type)]),
        ("design", ["validate", str(no_mac)]),
        ("lint", [str(no_mac)]),
        ("lint", ["fig5a", "--json"]),
        ("lint", ["--list"]),
        ("lint", ["--list-codes"]),
        ("lint", ["--all", "--json"]),
        ("lint", ["--all", "--strict"]),
        ("lint", ["udp_echo", "--pass", "structural", "--pass", "dataflow"]),
        ("lint", ["udp_echo", "--sanitize", "--pass", "idle-truth",
                  "--cycles", "300"]),
        ("trace", ["udp_echo", "--cycles", "2000", "--rate", "max",
                   "--payload", "1458", "--port", "7", "--window", "250",
                   "--out", out, "--quiet"]),
        ("top", ["udp_echo", "--plain", "--cycles", "1500", "--interval",
                 "250", "--rate", "20", "--payload", "128", "--save",
                 snapshots]),
        ("top", ["--replay", snapshots, "--plain"]),
        ("top", ["--replay", snapshots, "--frame", "-1"]),
        ("chaos", ["all", "--seeds", "1", "--base-seed", "7",
                   "--budget-s", "120", "--loss", "0.02"]),
        ("load", ["--offered", "20,60", "--duration", "20000", "--warmup",
                  "5000", "--seed", "7", "--payload", "256", "--zipf-keys",
                  "16", "--zipf-skew", "1.2", "--max-admission", "32",
                  "--out", out]),
        ("load", ["--offered", "40", "--arrival", "bursty", "--duration",
                  "20000", "--warmup", "5000"]),
        ("load", ["--offered", "40", "--arrival", "diurnal", "--duration",
                  "20000", "--warmup", "5000"]),
    ]
    for cc in ("tahoe", "reno", "cubic"):
        runs.append(("load", ["--flows", "2", "--cc", cc, "--loss", "0.02",
                              "--stream-bytes", "8192", "--seed", "7",
                              "--out", out]))
    for demo in sorted(FIXTURES):
        runs.append(("lint", [demo, "--sanitize", "--cycles", "400"]))
    return runs


def _tools(tmp: Path) -> None:
    import importlib
    from functools import partial

    _each((f"{tool} {' '.join(argv)}",
           partial(importlib.import_module(f"repro.tools.{tool}").main, argv))
          for tool, argv in _tool_runs(tmp))


def _bench(tmp: Path) -> None:
    import pytest

    status = pytest.main(["benchmarks", "--ignore=benchmarks/perflab",
                          "--benchmark-disable", "-q", "-p",
                          "no:cacheprovider"])
    if status != 0:
        raise RuntimeError(f"benchmarks failed (pytest exit {status})")


def _perflab(tmp: Path) -> None:
    from benchmarks.perflab.worker import run_rep
    from benchmarks.perflab.workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        for traced in (False, True):
            run_rep(name, workload.build, 1, traced=traced)


#: Longest first, so the two workers finish together.
GROUPS: dict[str, Callable[[Path], None]] = {
    "perflab": _perflab,
    "bench": _bench,
    "tools": _tools,
    "examples": _examples,
    "designs": _designs,
}


def run_group(name: str) -> tuple[str, set, set, float, str | None]:
    """Run one group under the hook: (name, reached, set parameters,
    seconds, the traceback if it raised)."""
    recorder = Recorder(inventory())
    failure = None
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, \
            open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        os.chdir(ROOT)
        sys.setprofile(recorder)
        try:
            # The flat mesh's C step is built once per cache: an empty
            # one per group reaches the build whatever the checkout's
            # own cache holds.
            import repro.noc.flatmesh as flatmesh
            flatmesh._CACHE = str(Path(tmp) / "flatstep")
            GROUPS[name](Path(tmp))
        except BaseException:   # noqa: BLE001 - reported, the run goes on
            failure = traceback.format_exc()
        finally:
            sys.setprofile(None)
    return (name, recorder.reached, recorder.set_params(),
            time.perf_counter() - started, failure)


# -- the report ----------------------------------------------------------------


def report(functions: dict, reached: set, set_params: set) -> int:
    unreached = [f for key, f in sorted(functions.items())
                 if key not in reached
                 and (f.parent is None or f.parent in reached)]
    never_set = [(f, param) for key, f in sorted(functions.items())
                 if key in reached for param in f.defaults
                 if (key, param) not in set_params]
    all_params = sum(len(f.defaults) for key, f in functions.items()
                     if key in reached)
    listed = set()
    missing = 0

    def line(function: Function, name: str, tail: str) -> None:
        nonlocal missing
        listed.add(name)
        reason = KEEP.get(name)
        if reason is None:
            missing += 1
        print(f"  {function.path}:{function.line} {name}{tail}"
              f"  [{'NOT IN KEEP' if reason is None else reason}]")

    print(f"unreached functions: {len(unreached)}, "
          f"{sum(f.lines for f in unreached)} lines")
    for function in unreached:
        line(function, function.qualname, f" {function.lines}")
    print(f"never-set parameters: {len(never_set)} of {all_params} "
          "defaulted parameters of reached functions")
    for function, param in never_set:
        line(function, f"{function.qualname}({param})", "")

    stale = sorted(set(KEEP) - listed)
    for name in stale:
        print(f"stale KEEP entry (reached, set or gone): {name}")
    kept = [name for name in listed if name in KEEP]
    print(f"KEEP: {len(kept)} entries in use"
          + "".join(f"; {sum(KEEP[n] == r for n in kept)} {r!r}"
                    for r in REASONS))
    print(f"not in KEEP: {missing}; stale KEEP entries: {len(stale)}")
    return 1 if missing or stale else 0


def main() -> int:
    if len(sys.argv) > 1:
        print("usage: python3 scripts/reach.py (no arguments)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)).rstrip(os.pathsep)
    context = multiprocessing.get_context("spawn")
    with context.Pool(2, maxtasksperchild=1) as pool:
        results = pool.map(run_group, list(GROUPS), chunksize=1)
    reached: set = set()
    set_params: set = set()
    failed = False
    for name, group_reached, group_set, seconds, failure in results:
        reached |= group_reached
        set_params |= group_set
        print(f"group {name}: {len(group_reached)} functions reached "
              f"in {seconds:.0f} s" + (" -- FAILED" if failure else ""))
        if failure:
            failed = True
            print(failure)
    status = report(inventory(), reached, set_params)
    return 1 if failed else status


if __name__ == "__main__":
    sys.exit(main())
