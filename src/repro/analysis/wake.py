"""Wake-contract verification (BHV3xx).

The activity-scheduled kernel (:mod:`repro.sim.kernel`) deschedules any
component whose ``is_idle()`` returns True.  A descheduled component is
revived only by (a) a wake hook on a FIFO it consumes, (b) its
``_kernel_wake`` slot being called from an external mutator, or (c) a
timer armed from ``next_event_cycle()``.  A component that can sleep
but has no wake path for some input *stalls silently* — the benchmark
completes with wrong numbers or hangs — so this pass turns the contract
into lint findings:

- every FIFO a sleeper consumes must wake it (``wake_sources()`` must
  cover all inputs, and — under a scheduled kernel — the hook must
  actually be wired);
- a sleeper must have at least one wake mechanism;
- ``is_idle()`` / ``next_event_cycle()`` must be implemented
  consistently (probed once; the probe is side-effect-free by
  contract).
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.model import extract
from repro.sim.kernel import StagedFifo


def _name_of(component: object) -> str:
    name = getattr(component, "name", None)
    if name:
        return str(name)
    coord = getattr(component, "coord", None)
    if coord is not None:
        return f"{type(component).__name__}@{coord}"
    return type(component).__name__


def _wired_to(fifo: StagedFifo, component: object) -> bool:
    """True if one of ``fifo``'s wake hooks re-activates ``component``.

    The kernel tags each waker closure with the component it wakes
    (``waker.component``); a hook without the tag (e.g. a hand-written
    listener) is treated as unknown and does not count.
    """
    for waker in getattr(fifo, "_wakers", ()):
        if getattr(waker, "component", None) is component:
            return True
    return False


def _probe(component: object) -> tuple[object, Finding | None]:
    """Call ``is_idle()`` defensively; (value, finding-or-None)."""
    name = _name_of(component)
    try:
        idle = component.is_idle()
    except Exception as error:  # noqa: BLE001 - lint must not crash
        return None, Finding(
            "BHV304",
            f"is_idle() raised {type(error).__name__}: {error}",
            location=name)
    if not isinstance(idle, bool):
        return idle, Finding(
            "BHV304",
            f"is_idle() returned {idle!r} ({type(idle).__name__}), "
            "expected bool",
            location=name)
    return idle, None


def run(design: object) -> list[Finding]:
    """The BHV3xx lint pass over an instantiated design."""
    model = extract(design)
    findings: list[Finding] = []
    scheduled = getattr(model.sim, "kernel", None) == "scheduled"

    for component in model.components():
        name = _name_of(component)
        has_is_idle = callable(getattr(component, "is_idle", None))
        has_next_event = callable(
            getattr(component, "next_event_cycle", None))
        sources_fn = getattr(component, "wake_sources", None)
        consumed = model.consumed_fifos(component)

        if not has_is_idle:
            if has_next_event:
                findings.append(Finding(
                    "BHV303",
                    "next_event_cycle() is implemented but is_idle() "
                    "is not; the kernel never consults the timer",
                    location=name))
            if consumed and scheduled:
                # (Under the naive kernel everything is stepped every
                # cycle: the contract only buys idle-skip.)
                findings.append(Finding(
                    "BHV305",
                    f"{type(component).__name__} has no quiescence "
                    "contract; it is stepped every cycle",
                    location=name,
                    hint="implement is_idle()/wake_sources() to make "
                         "it eligible for idle-skip"))
            continue

        _, probe_finding = _probe(component)
        if probe_finding is not None:
            findings.append(probe_finding)

        declared: list[StagedFifo] = []
        if callable(sources_fn):
            try:
                declared = list(sources_fn())
            except Exception as error:  # noqa: BLE001
                findings.append(Finding(
                    "BHV304",
                    f"wake_sources() raised "
                    f"{type(error).__name__}: {error}",
                    location=name))
        declared_ids = {id(fifo) for fifo in declared}

        # Every consumed FIFO must wake the sleeper.
        for fifo in consumed:
            if scheduled:
                hooked = _wired_to(fifo, component)
            else:
                hooked = id(fifo) in declared_ids
            if not hooked:
                findings.append(Finding(
                    "BHV301",
                    f"consumes FIFO {fifo.name!r} but the push hook "
                    "never wakes it: a message arriving while it "
                    "sleeps is lost until something else happens to "
                    "wake it",
                    location=name,
                    hint="return the FIFO from wake_sources() so the "
                         "kernel wires the wake hook",
                    data={"fifo": fifo.name}))

        # A sleeper with no wake mechanism at all can never be revived.
        has_wake_slot = hasattr(component, "_kernel_wake")
        if not declared and not has_next_event and not has_wake_slot:
            findings.append(Finding(
                "BHV302",
                "implements is_idle() but has no wake_sources(), no "
                "next_event_cycle() and no _kernel_wake slot: once "
                "descheduled it sleeps forever",
                location=name))

        # Declared wake sources must be hookable (and, under a
        # scheduled kernel, actually wired by the kernel).
        for fifo in declared:
            if not isinstance(fifo, StagedFifo):
                findings.append(Finding(
                    "BHV306",
                    f"wake_sources() returned {fifo!r}, which is not "
                    "a StagedFifo the kernel can hook",
                    location=name))
            elif scheduled and not _wired_to(fifo, component):
                findings.append(Finding(
                    "BHV306",
                    f"wake source {fifo.name!r} has no wired hook for "
                    "this component (was it added to the simulator "
                    "before the FIFO existed?)",
                    location=name))

        # Substeps (components this one steps internally, e.g. local
        # ports inside the flat mesh core) sleep when the parent
        # sleeps, so each of *their* consumed FIFOs must wake the
        # parent.
        for sub in model.substeps(component):
            sub_name = f"{name}/{_name_of(sub)}"
            for fifo in model.consumed_fifos(sub):
                if scheduled:
                    hooked = _wired_to(fifo, component)
                else:
                    hooked = id(fifo) in declared_ids
                if not hooked:
                    findings.append(Finding(
                        "BHV301",
                        f"substep consumes FIFO {fifo.name!r} but the "
                        "push hook never wakes the stepping parent: a "
                        "message arriving while the parent sleeps is "
                        "lost until something else wakes it",
                        location=sub_name,
                        hint="return the FIFO from the parent's "
                             "wake_sources() so the kernel wires the "
                             "wake hook",
                        data={"fifo": fifo.name}))
    return findings
