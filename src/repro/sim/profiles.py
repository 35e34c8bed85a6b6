"""The two ways to run a design: one value, two rows.

``"reference"``
    The executable spec: the naive kernel steps every component every
    cycle, the mesh is one object per router
    (:class:`repro.noc.mesh.Mesh`) and every tile is registered with
    the simulator on its own.
``"fast"`` (every design's default)
    The scheduled kernel over the flat engines: one
    :class:`repro.noc.flatmesh.FlatMesh` core and one
    :class:`repro.tiles.flatcore.FlatTileCore`.

The two are bit-identical (``tests/test_kernel_equivalence.py``); a
profile only decides how much host time a run costs.  Each is one mode
throughout: ``reference`` two-phase, ``fast`` single-phase (the
scheduled kernel has no commit pass and refuses a component with one).
Only designs choose a profile (:class:`repro.designs.base.Design`); a
unit test that wants a *mixed* pairing — a flat mesh under the naive
kernel, say — builds it by hand from ``CycleSimulator(kernel=...)`` and
the mesh class, which is what localises a ``fast`` != ``reference``
divergence to a layer.  Any mix with an object ``Mesh`` in it runs
under the naive kernel, the one that commits its routers.
"""

from __future__ import annotations

#: profile -> (kernel, flat mesh and tile engines?)
PROFILES: dict[str, tuple[str, bool]] = {
    "reference": ("naive", False),
    "fast": ("scheduled", True),
}


def lookup(profile: str) -> tuple[str, bool]:
    """``(kernel, flat)`` for ``profile``; anything else is refused."""
    try:
        return PROFILES[profile]
    except (KeyError, TypeError):
        raise ValueError(f"unknown profile {profile!r} (choose "
                         "'reference' or 'fast')") from None
