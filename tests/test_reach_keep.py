"""The reachability script's ``KEEP`` table names real things.

``scripts/reach.py`` takes about a quarter of an hour, so a rename that
leaves a ``KEEP`` entry pointing at nothing would only show there.
This static check catches it in tier 1: every entry names a function or
a defaulted parameter that exists under ``src/repro``, and gives one of
the allowed reasons.
"""

import functools
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"


@functools.cache
def _reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("reach", module)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@functools.cache
def _inventory():
    return _reach().inventory()


def test_keep_entries_exist_and_give_an_allowed_reason():
    reach = _reach()
    targets = set()
    for function in _inventory().values():
        targets.add(function.qualname)
        targets.update(f"{function.qualname}({param})"
                       for param in function.defaults)
    unknown = sorted(name for name in reach.KEEP if name not in targets)
    assert not unknown, f"KEEP names nothing under src/repro: {unknown}"
    bad = sorted(name for name, reason in reach.KEEP.items()
                 if reason not in reach.REASONS)
    assert not bad, f"KEEP entries with a reason not allowed: {bad}"


def test_inventory_sees_methods_parameters_and_nesting():
    functions = {f.qualname: f for f in _inventory().values()}
    attach = functions["repro.designs.harness.attach_client"]
    assert set(attach.defaults) == {"rate", "count", "keep_frames"}
    assert "repro.designs.harness.FrameSink.step" in functions
    nested = [f for f in functions.values() if ".<locals>." in f.qualname]
    assert all(f.parent is not None for f in nested)
