"""Wake-contract verification (BHV3xx).

The activity-scheduled kernel (:mod:`repro.sim.kernel`) steps a
component again on the cycle its ``step`` returned.  One that asked for
:data:`~repro.sim.kernel.NEVER` — or for a cycle far off — is revived
early only by (a) a wake hook on a FIFO it consumes or (b) its
``_kernel_wake`` slot being called from an external mutator.  A
component that can sleep but has no wake path for some input *stalls
silently* — the benchmark completes with wrong numbers or hangs — so
this pass turns the contract into lint findings.  Under a scheduled
kernel any component may sleep, so every one is checked; under the
naive kernel, which steps everything every cycle, only those that
declare ``wake_sources()``:

- every FIFO it consumes must wake it (``wake_sources()`` must cover
  all inputs, and — under a scheduled kernel — the hook must actually
  be wired);
- one that declares ``wake_sources()`` must have at least one wake
  mechanism, and ``wake_sources()`` must not raise.

What ``step`` returns is only known by running it: a component that
asks for every cycle (BHV305) is the sanitizer's finding
(:mod:`repro.analysis.sanitize`).
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


def run(design: object) -> list[Finding]:
    """The BHV3xx lint pass over an instantiated design."""
    model = extract(design)
    findings: list[Finding] = []
    scheduled = getattr(model.sim, "kernel", None) == "scheduled"

    for component in model.components():
        sources_fn = getattr(component, "wake_sources", None)
        declares = callable(sources_fn)
        if not declares and not scheduled:
            continue    # the naive kernel steps it every cycle anyway
        name = _name_of(component)
        consumed = model.consumed_fifos(component)
        declared = []
        if declares:
            try:
                declared = list(sources_fn())
            except Exception as error:  # noqa: BLE001 - must not crash
                findings.append(Finding(
                    "BHV304",
                    f"wake_sources() raised {type(error).__name__}: "
                    f"{error}",
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
        if (declares and not declared
                and not hasattr(component, "_kernel_wake")):
            findings.append(Finding(
                "BHV302",
                "declares no wake source and has no _kernel_wake slot: "
                "once its step returns NEVER it sleeps forever",
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
