"""Simulation-backed sanitizer passes (BHV4xx).

The static passes (BHV1xx–BHV3xx, BHV5xx) reason about structure: what
is wired, what is declared, what *could* route.  This module closes
the remaining gap — contract violations only visible while a design
executes — by running short, bounded, fully instrumented simulations
and reporting through the same :class:`~repro.analysis.findings`
pipeline:

- **idle-truth** (BHV401): every component whose stored cycle is past
  the current one is *shadow-stepped* each cycle with a state
  fingerprint taken around its own ``step``.  Stepping a component
  before the cycle it returned is a no-op by the quiescence contract;
  a fingerprint change means its ``step`` lied about when it is next
  due.  And its converse (BHV305, info): a FIFO consumer that returned
  None from every step, so was never asleep.
- **lost-wake** (BHV402): at the end of each step phase (before
  anything commits), a FIFO pushed into this cycle whose consumer is
  asleep past the next cycle — no wake reached it and no timer is due
  in time — is a lost wakeup: the dynamic twin of the static BHV301
  check, catching hooks that exist but never fire.  Under the flat
  tile engine, also a busy byte clear over a FIFO holding flits
  (``FlatTileCore.check_invariants``): the flat mesh wakes a tile only
  when it ejects into an empty FIFO.
- **conservation** (BHV403): a flit ledger per mesh.  Every flit a
  port injects must be ejected or still in flight (router input
  occupancy plus ejection-FIFO occupancy); the machinery that drops
  traffic does so outside the fabric (wire faults pre-injection, tile
  drops post-ejection), so any imbalance is unattributed loss.  And
  its time axis (BHV405): a consumer that reads its port inside a tick
  without passing the cycle (``port.receive()``) takes a flat mesh's
  flit in the cycle it was pushed, one cycle early and silently; the
  stamped FIFO is then empty at the end of that cycle.
- **determinism** (BHV404): the same traffic is replayed, cycle by
  cycle, under the ``fast`` and the ``reference`` profile; per-cycle
  digests of the design counters localize the first divergent cycle,
  and the final run records (less ``profile`` and ``kernel``) and
  egress frames are deep-compared.

The three single-run passes run under ``fast``, the profile people
run (a fixture maps a profile to its kernel over its own hand-built
mesh, see :mod:`repro.analysis.demo`).

Everything here is strictly opt-in: the normal ``tick``/``run`` paths
never consult the sanitizer, so a design that does not ask for it runs
the exact pre-sanitizer code (the overhead benchmark pins this).

Entry points::

    from repro.analysis.sanitize import analyze_dynamic
    report = analyze_dynamic(UdpEchoDesign, name="udp_echo")
    assert report.ok, report.render()

or, from a shell::

    python -m repro.tools.lint udp_echo --sanitize --cycles 2000
"""

from __future__ import annotations

import hashlib
import zlib
from collections.abc import Callable, Iterable, Sequence

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.model import DesignModel, extract
from repro.noc.message import reset_id_counters
from repro.sim.kernel import StagedFifo
from repro.telemetry.stats import run_record

#: (fire cycle, zero-argument thunk).
Action = tuple[int, Callable[[], None]]
#: (design, cycles) -> actions.
TrafficFn = Callable[[object, int], list[Action]]

#: Default bounded-run length — long enough for every shipped design
#: to move real traffic end to end, short enough to run the whole
#: fleet in CI.
DEFAULT_CYCLES = 2000

#: name -> one-line description, mirroring the static PASSES registry.
SANITIZE_PASSES: dict[str, str] = {
    "idle-truth": "shadow-step sleeping components; any observable "
                  "progress is a lie in what step returned (BHV401)",
    "lost-wake": "push into a FIFO whose consumer stays asleep past "
                 "the next cycle (BHV402)",
    "conservation": "flit ledger: injected == ejected + in-flight per "
                    "mesh (BHV403), no flit consumed in the cycle a "
                    "flat mesh ejected it (BHV405)",
    "determinism": "dual-run digest, fast against reference, "
                   "localizing the first divergence (BHV404)",
}

# Counter attributes a component (or its port / substeps) may expose;
# integers sampled into the shadow-step fingerprint.  Deliberately a
# closed list: fixture-private counters (a demo tile's step tally) are
# *not* observable state, so incrementing one while pruned is legal.
_COUNTER_ATTRS: tuple[str, ...] = (
    "messages_in", "messages_out", "bytes_in", "bytes_out", "drops",
    "messages_sent", "messages_received", "flits_injected",
    "flits_ejected", "flits_forwarded", "total_flits_forwarded",
    "_ring_total", "sent", "bytes_sent", "count", "frame_bytes",
    "payload_bytes", "malformed", "echoed", "frames_offered",
    "frames_delivered",
)

# Queue-like attributes whose length is observable state.
_QUEUE_ATTRS: tuple[str, ...] = (
    "_rx_ready", "_pending_flits", "_send_queue", "_heap", "frames_out",
)


def _component_name(component: object) -> str:
    name = getattr(component, "name", None)
    if isinstance(name, str):
        return name
    coord = getattr(component, "coord", None)
    if coord is not None:
        return f"{type(component).__name__}{coord}"
    return type(component).__name__


def build_design(factory: Callable[..., object], profile: str = "fast",
                 fault_plan: object | None = None) -> object:
    """Instantiate ``factory`` under ``profile``.  Every factory the
    linter can name takes ``profile``; ``fault_plan`` is passed only
    when there is one (the fixtures take none)."""
    if fault_plan is None:
        return factory(profile=profile)
    return factory(profile=profile, fault_plan=fault_plan)


def _payload(index: int, length: int) -> bytes:
    """Deterministic pseudo-random bytes (no RNG state involved)."""
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(
            f"bhv-sanitize-{index}-{counter}".encode()).digest()
        counter += 1
    return out[:length]


def default_traffic(design: object, cycles: int) -> list[Action]:
    """A bounded, deterministic traffic schedule for ``design``.

    Three tiers, best available first:

    1. valid UDP frames from a synthetic client, when the design
       exposes the stack conveniences (``server_ip`` / ``server_mac``
       / ``udp_port`` / ``add_client`` / ``inject``) — traffic the
       whole chain actually processes;
    2. deterministic garbage frames through ``inject`` — exercises
       ingress parsing and drop paths;
    3. ``send()`` calls for port-level demo designs.

    Frames stop well before the horizon so in-flight traffic drains
    and the conservation ledger is checked against a (near-)quiescent
    fabric.
    """
    inject = getattr(design, "inject", None)
    first = max(1, min(50, cycles // 20))
    last = max(first + 1, cycles - max(200, cycles // 4))
    count = max(4, min(32, cycles // 60))
    spread = [first + (last - first) * i // count for i in range(count)]
    actions: list[Action] = []

    server_ip = getattr(design, "server_ip", None)
    server_mac = getattr(design, "server_mac", None)
    udp_port = getattr(design, "udp_port", None)
    add_client = getattr(design, "add_client", None)
    if (inject is not None and callable(add_client)
            and server_ip is not None and server_mac is not None
            and isinstance(udp_port, int)):
        from repro.packet.builder import build_ipv4_udp_frame
        from repro.packet.ethernet import MacAddress
        from repro.packet.ipv4 import IPv4Address

        client_ip = IPv4Address("10.9.9.99")
        client_mac = MacAddress("02:be:ef:99:99:99")
        actions.append((0, lambda: add_client(client_ip, client_mac)))
        for i, at in enumerate(spread):
            frame = build_ipv4_udp_frame(
                src_mac=client_mac, dst_mac=server_mac,
                src_ip=client_ip, dst_ip=server_ip,
                src_port=40_000 + (i % 8), dst_port=udp_port,
                payload=_payload(i, 26), identification=i + 1,
            )
            actions.append(
                (at, lambda f=frame, c=at: inject(f, c)))
        return actions

    if inject is not None:
        for i, at in enumerate(spread):
            frame = _payload(i, 64)
            actions.append(
                (at, lambda f=frame, c=at: inject(f, c)))
        return actions

    send = getattr(design, "send", None)
    if callable(send):
        for at in spread:
            actions.append((at, send))
    return actions


class SanitizeObserver:
    """The per-run instrumentation behind
    :meth:`repro.sim.kernel.CycleSimulator.sanitized_tick`.

    ``shadow_step`` owns stepping every sleeping component (the kernel
    hands them over instead of stepping them) and, when the idle-truth
    pass is selected, fingerprints observable state around the step.
    ``step_phase_done`` notes which FIFO consumers are asleep (for
    :meth:`restless`) and runs the lost-wake check while this cycle's
    pushes are still distinguishable from older items, ``cycle_done``
    the early-read check.
    """

    def __init__(self, design: object, model: DesignModel,
                 passes: Iterable[str]) -> None:
        self.sim = design.sim
        self.model = model
        selected = set(passes)
        scheduled = getattr(self.sim, "kernel", "naive") == "scheduled"
        self.check_idle = "idle-truth" in selected and scheduled
        self.check_wake = "lost-wake" in selected and scheduled
        self.findings: list[Finding] = []
        self._reported_401: set[int] = set()
        self._reported_402: set[tuple[int, int]] = set()
        # The ejection FIFOs a flat mesh pushes into unstaged.
        self._stamped: list[tuple[str, StagedFifo]] = []
        if "conservation" in selected:
            for label, mesh in _meshes_of(design):
                if getattr(mesh, "core", None) is not None:
                    self._stamped.extend(
                        (f"{label}{coord}", port.eject_fifo)
                        for coord, port in mesh.ports.items())
        # id(component) -> [(probe, label), ...]
        self._plans: dict[int, list[tuple[Callable[[], object], str]]] = {}
        # (component, name, consumed StagedFifos) for the wake checks,
        # and the ids of those ever asleep after a step phase.
        self._consumers: list[tuple[object, str, list[StagedFifo]]] = []
        self._slept: set[int] = set()
        if self.check_idle or self.check_wake:
            for component in model.components():
                fifos: list[StagedFifo] = []
                pool = [component]
                pool.extend(model.substeps(component))
                for member in pool:
                    for fifo in model.consumed_fifos(member):
                        if isinstance(fifo, StagedFifo) and \
                                all(f is not fifo for f in fifos):
                            fifos.append(fifo)
                if fifos:
                    self._consumers.append(
                        (component, _component_name(component), fifos))

    # -- fingerprinting ----------------------------------------------------

    def _fingerprint_sources(self, component: object) -> list[object]:
        """The component plus everything it steps or owns: kernel
        substeps (a flat core's tiles/ports) and each member's port."""
        objs: list[object] = [component]
        objs.extend(self.model.substeps(component))
        for obj in list(objs):
            port = getattr(obj, "port", None)
            if port is not None and all(o is not port for o in objs):
                objs.append(port)
        return objs

    def _build_plan(
            self, component: object,
    ) -> list[tuple[Callable[[], object], str]]:
        plan: list[tuple[Callable[[], object], str]] = []
        fifos_seen: list[object] = []
        for obj in self._fingerprint_sources(component):
            oname = _component_name(obj)
            for attr in _COUNTER_ATTRS:
                if isinstance(getattr(obj, attr, None), int):
                    plan.append((
                        lambda o=obj, a=attr: getattr(o, a),
                        f"{oname}.{attr}"))
            for attr in _QUEUE_ATTRS:
                if hasattr(getattr(obj, attr, None), "__len__"):
                    plan.append((
                        lambda o=obj, a=attr: len(getattr(o, a)),
                        f"len({oname}.{attr})"))
            fifos: list[object] = list(self.model.consumed_fifos(obj))
            sources = getattr(obj, "wake_sources", None)
            if callable(sources):
                fifos.extend(sources())
            for fifo in fifos:
                if any(f is fifo for f in fifos_seen):
                    continue
                fifos_seen.append(fifo)
                fname = getattr(fifo, "name", "fifo")
                plan.append((
                    lambda f=fifo: (len(f), f.occupancy),
                    f"fifo {fname}"))
        return plan

    # -- sanitized_tick callbacks ------------------------------------------

    def shadow_step(self, component: object, cycle: int) -> None:
        if not self.check_idle or id(component) in self._reported_401:
            component.step(cycle)
            return
        plan = self._plans.get(id(component))
        if plan is None:
            plan = self._plans[id(component)] = self._build_plan(component)
        before = [probe() for probe, _ in plan]
        component.step(cycle)
        after = [probe() for probe, _ in plan]
        if before == after:
            return
        changed = [label for (_, label), b, a in zip(plan, before, after)
                   if b != a]
        self._reported_401.add(id(component))
        name = _component_name(component)
        self.findings.append(Finding(
            "BHV401",
            f"pruned component made observable progress when "
            f"shadow-stepped at cycle {cycle} "
            f"(changed: {', '.join(changed[:4])})"
            f"{' ...' if len(changed) > 4 else ''}",
            location=name,
            hint="step returned a later cycle (or NEVER) while work "
                 "remained — fix what it returns or wire the missing "
                 "wake source",
            data={"cycle": cycle, "changed": changed}))

    def step_phase_done(self, cycle: int) -> None:
        wake_cycle = self.sim.wake_cycle
        for component, name, fifos in self._consumers:
            due = wake_cycle(component)
            if due is None or due > cycle:
                self._slept.add(id(component))
            if not self.check_wake or due is not None and due <= cycle + 1:
                continue  # awake, woken, or a timer is due in time
            for fifo in fifos:
                if not fifo.pushed_at(cycle):
                    continue
                key = (id(component), id(fifo))
                if key in self._reported_402:
                    continue
                self._reported_402.add(key)
                self.findings.append(Finding(
                    "BHV402",
                    f"push into {fifo.name!r} at cycle {cycle} but its "
                    f"consumer {name!r} is asleep, was not woken this "
                    f"cycle, and has no timer due by cycle {cycle + 1}",
                    location=name,
                    hint="the producer's push must reach a wake hook "
                         "for this consumer: check wake_sources() "
                         "covers the FIFO",
                    data={"cycle": cycle, "fifo": fifo.name}))

    def restless(self) -> list[Finding]:
        """BHV305 for every FIFO consumer no step phase left asleep."""
        if not self.check_idle:
            return []
        return [Finding(
            "BHV305",
            f"{type(component).__name__} returned None from every step: "
            "it was stepped every cycle",
            location=name,
            hint="return the next cycle it is due (NEVER while only a "
                 "wake can give it work) and declare wake_sources() to "
                 "make it eligible for idle-skip")
            for component, name, _fifos in self._consumers
            if id(component) not in self._slept]

    def cycle_done(self, cycle: int) -> None:
        # One flit per FIFO per cycle, pushed behind whatever was
        # there: it can only be gone already if somebody popped it.
        early = [(where, fifo) for where, fifo in self._stamped
                 if fifo.pushed_at(cycle) and not fifo.occupancy]
        for where, fifo in early:
            self._stamped.remove((where, fifo))
            self.findings.append(Finding(
                "BHV405",
                f"flit ejected into {fifo.name!r} at cycle {cycle} was "
                "consumed in that same cycle",
                location=where,
                hint="a consumer stepped inside a tick must pass the "
                     "cycle it is stepping: port.receive(cycle) / "
                     "pop_flit(cycle) / eject_ready(cycle); without it "
                     "it sees a flat mesh's flit one cycle early",
                data={"cycle": cycle, "fifo": fifo.name}))


def _drive(design: object, actions: Sequence[Action], cycles: int,
           observer: SanitizeObserver) -> None:
    """Tick ``design`` to ``cycles``, firing traffic actions on their
    cycles.  Always plain per-cycle ticks (never ``run``): idle-skip
    would make runs incomparable and starve the shadow checks."""
    sim = design.sim
    ordered = sorted(actions, key=lambda action: action[0])
    index = 0
    total = len(ordered)
    while sim.cycle < cycles:
        while index < total and ordered[index][0] <= sim.cycle:
            ordered[index][1]()
            index += 1
        sim.sanitized_tick(observer)


# -- BHV403: flit conservation ---------------------------------------------

def _meshes_of(design: object) -> list[tuple[str, object]]:
    meshes: list[tuple[str, object]] = []
    mesh = getattr(design, "mesh", None)
    if mesh is not None:
        meshes.append(("mesh", mesh))
    control_mesh = getattr(getattr(design, "control", None), "mesh", None)
    if control_mesh is not None:
        meshes.append(("control.mesh", control_mesh))
    return meshes


def conservation_ledger(mesh: object) -> dict[str, int]:
    """The flit ledger of one mesh: injected, ejected, in flight.

    In-flight counts every router input (directional rings and LOCAL)
    plus every ejection FIFO, visible or not yet — anything a port
    injected that no port has ejected yet.  Flits awaiting injection
    (``_pending_flits``) are not injected yet and tile-level drops
    happen after ejection, so the identity is exact: the machinery
    never loses a flit inside the fabric.
    """
    ports = list(mesh.ports.values())
    injected = sum(port.flits_injected for port in ports)
    ejected = sum(port.flits_ejected for port in ports)
    in_flight = sum(port.eject_fifo.occupancy for port in ports)
    for router in mesh.routers.values():
        for fifo in router.inputs.values():
            in_flight += fifo.occupancy
    return {"injected": injected, "ejected": ejected,
            "in_flight": in_flight}


def _conservation_findings(design: object) -> list[Finding]:
    findings: list[Finding] = []
    for label, mesh in _meshes_of(design):
        if not getattr(mesh, "ports", None):
            continue
        ledger = conservation_ledger(mesh)
        delta = (ledger["injected"] - ledger["ejected"]
                 - ledger["in_flight"])
        if delta:
            findings.append(Finding(
                "BHV403",
                f"{abs(delta)} flit(s) "
                f"{'lost' if delta > 0 else 'conjured'} in {label}: "
                f"injected={ledger['injected']} "
                f"ejected={ledger['ejected']} "
                f"in_flight={ledger['in_flight']}",
                location=label,
                hint="something pops an ejection FIFO without counting "
                     "flits_ejected (or pushes flits outside a port); "
                     "route drains through LocalPort.receive / pop_flit",
                data={**ledger, "delta": delta}))
        # The flat core keeps its own ledger (ring total, ring stamps,
        # active outputs, lock/request state, the in-flight message
        # table its int handles name); a break there shows up as a
        # stall or a lost message long before the flit counts disagree.
        check = getattr(getattr(mesh, "core", None),
                        "check_invariants", None)
        cycle = getattr(getattr(design, "sim", None), "cycle", None)
        problems = check(cycle) if check is not None else []
        for problem in problems:
            findings.append(Finding(
                "BHV403",
                f"flat mesh state inconsistent in {label}: {problem}",
                location=label,
                hint="FlatMeshCore's active-output list, head state or "
                     "in-flight table diverged from its rings; see "
                     "FlatMeshCore.check_invariants"))
    return findings


# -- BHV402: the flat tile engine's busy-bit ledger ---------------------------

def _tile_core_findings(design: object) -> list[Finding]:
    tile_core = getattr(design, "tile_core", None)
    if tile_core is None:
        return []
    findings: list[Finding] = []
    for problem in tile_core.check_invariants():
        findings.append(Finding(
            "BHV402",
            f"flat tile engine state inconsistent: {problem}",
            location=tile_core.name,
            hint="the flat mesh wakes a tile only when it ejects "
                 "into an empty FIFO, so the busy byte must stay set "
                 "while the FIFO holds flits"))
    return findings


# -- BHV404: determinism ----------------------------------------------------

def _cycle_digest(design: object) -> int:
    """A cheap per-cycle digest over the design's observable totals."""
    parts: list[int] = []
    mesh = getattr(design, "mesh", None)
    if mesh is not None:
        parts.append(mesh.total_flits_forwarded)
        for coord in sorted(mesh.ports):
            port = mesh.ports[coord]
            parts.append(port.flits_injected)
            parts.append(port.flits_ejected)
    for tile in design.tiles.values():
        parts.append(getattr(tile, "messages_in", 0))
        parts.append(getattr(tile, "messages_out", 0))
        parts.append(getattr(tile, "drops", 0))
    return zlib.crc32(",".join(map(str, parts)).encode())


def _determinism_run(
        factory: Callable[..., object], profile: str,
        fault_plan: object | None, traffic: TrafficFn, cycles: int,
) -> tuple[list[int], dict, list | None]:
    reset_id_counters()
    design = build_design(factory, profile, fault_plan)
    actions = sorted(traffic(design, cycles), key=lambda a: a[0])
    sim = design.sim
    digests: list[int] = []
    index = 0
    total = len(actions)
    while sim.cycle < cycles:
        while index < total and actions[index][0] <= sim.cycle:
            actions[index][1]()
            index += 1
        sim.tick()
        digests.append(_cycle_digest(design))
    record = run_record(design)
    del record["profile"], record["kernel"]  # expected to differ
    eth_tx = getattr(design, "eth_tx", None)
    frames = (None if eth_tx is None
              else list(getattr(eth_tx, "frames_out", [])))
    return digests, record, frames


def _determinism_findings(
        factory: Callable[..., object],
        fault_plan: object | None, traffic: TrafficFn, cycles: int,
        target: str,
) -> list[Finding]:
    runs = [_determinism_run(factory, profile, fault_plan, traffic, cycles)
            for profile in ("fast", "reference")]
    (digests_a, counters_a, frames_a) = runs[0]
    (digests_b, counters_b, frames_b) = runs[1]
    if (digests_a == digests_b and counters_a == counters_b
            and frames_a == frames_b):
        return []
    divergent = next(
        (i for i, (a, b) in enumerate(zip(digests_a, digests_b))
         if a != b), None)
    keys = sorted(key for key in set(counters_a) | set(counters_b)
                  if counters_a.get(key) != counters_b.get(key))
    where = (f"first divergent cycle {divergent}"
             if divergent is not None else "final state only")
    detail = f"; differing counters: {', '.join(keys)}" if keys else ""
    if frames_a != frames_b:
        detail += "; egress frame streams differ"
    return [Finding(
        "BHV404",
        f"identical traffic diverged under fast vs reference: "
        f"{where}{detail}",
        location=target,
        hint="per-cycle observable state must be independent of the "
             "profile; look for state advanced by step count rather "
             "than by committed events",
        data={"first_divergent_cycle": divergent,
              "counter_keys": keys})]


# -- the entry point --------------------------------------------------------

def analyze_dynamic(
        factory: Callable[..., object], *,
        name: str | None = None,
        passes: Iterable[str] | None = None,
        cycles: int = DEFAULT_CYCLES,
        fault_plan: object | None = None,
        traffic: TrafficFn | None = None,
) -> AnalysisReport:
    """Run the selected sanitizer passes over ``factory``'s design.

    ``factory(profile=...)`` is called once per run (every run needs a
    fresh design): under ``fast`` for the three single-run passes, under
    ``fast`` and ``reference`` for determinism.  ``traffic`` (default
    :func:`default_traffic`) builds the per-run action schedule, and
    ``fault_plan`` composes the run with :mod:`repro.faults` — the
    sanitizer invariants hold under fault injection, which is precisely
    when silent loss tends to appear.
    """
    selected = (list(SANITIZE_PASSES) if passes is None
                else list(passes))
    unknown = [p for p in selected if p not in SANITIZE_PASSES]
    if unknown:
        raise KeyError(f"unknown sanitize pass(es) {unknown}; "
                       f"available: {sorted(SANITIZE_PASSES)}")
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    traffic_fn: TrafficFn = (default_traffic if traffic is None
                             else traffic)
    report = AnalysisReport(
        target=name or getattr(factory, "__name__", "design"))
    seen: set[tuple[str, str, str]] = set()

    def add(finding: Finding) -> None:
        key = (finding.code, finding.location,
               str(finding.data.get("fifo", "")))
        if key in seen:
            return
        seen.add(key)
        report.findings.append(finding)

    if {"idle-truth", "lost-wake", "conservation"} & set(selected):
        reset_id_counters()
        design = build_design(factory, "fast", fault_plan)
        model = extract(design, name=report.target)
        actions = traffic_fn(design, cycles)
        observer = SanitizeObserver(design, model, selected)
        _drive(design, actions, cycles, observer)
        for finding in observer.findings + observer.restless():
            add(finding)
        if "lost-wake" in selected:
            for finding in _tile_core_findings(design):
                add(finding)
        if "conservation" in selected:
            for finding in _conservation_findings(design):
                add(finding)

    if "determinism" in selected:
        for finding in _determinism_findings(
                factory, fault_plan, traffic_fn, cycles, report.target):
            add(finding)

    report.passes_run.extend(f"sanitize:{p}" for p in selected)
    return report
