"""What every design shares: a simulator, a mesh, one registration step.

The paper's section V-G describes a Beehive design as a declarative
list of tiles, coordinates and next-hop entries from which tooling
generates the rest.  :class:`Design` is "the rest":
:class:`repro.config.generate.GeneratedDesign` — which every class
under :mod:`repro.designs` is, over the spec it publishes — says how
large the mesh is, builds the spec's tiles on ``self.mesh``, fills the
next-hop tables and hands the tiles and the declared message chains to
:meth:`Design.register`.

How a design is run is one value, ``profile`` — ``"fast"`` (the
default) or ``"reference"``, looked up in :mod:`repro.sim.profiles`.
Tracers, probes and load sources attach after construction
(``attach_tracer``, ``attach_probe``, ``sim.add``), as they always did.
"""

from __future__ import annotations

from repro.analysis.deadlock import assert_deadlock_free
from repro.faults import attach_faults
from repro.noc.flatmesh import FlatMesh
from repro.noc.mesh import Mesh
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address
from repro.sim.kernel import CycleSimulator
from repro.sim.profiles import lookup
from repro.tiles.flatcore import register_tiles

#: The address every shipped design answers on.
SERVER_MAC = MacAddress("02:be:e0:00:00:01")
SERVER_IP = IPv4Address("10.0.0.10")


class Design:
    """A ``width`` x ``height`` mesh and its simulator, run under
    ``profile``.

    After :meth:`register` a design exposes ``profile``, ``sim``,
    ``mesh``, ``tiles``, ``tile_core`` (the
    :class:`~repro.tiles.flatcore.FlatTileCore` under ``fast``, None
    under ``reference``), ``chains``, ``tile_coords``, ``fault_plan``
    and ``fault_engine`` — the surface the telemetry, the linter, the
    fault engine and ``benchmarks/perflab`` read.
    """

    def __init__(self, width: int, height: int, profile: str = "fast"):
        kernel, flat = lookup(profile)
        self.profile = profile
        self.sim = CycleSimulator(kernel=kernel)
        self.mesh = (FlatMesh if flat else Mesh)(width, height)

    def register(self, tiles, chains: list[list[str]],
                 fault_plan=None) -> None:
        """Everything after the wiring: put the mesh and ``tiles`` (a
        list, or a dict by name) on the simulator the way the profile
        says, check the declared ``chains`` (tile-name sequences) for
        message-level deadlock, and attach ``fault_plan``."""
        self.tiles = tiles
        self.chains = chains
        self.mesh.register(self.sim)
        members = list(tiles.values() if isinstance(tiles, dict)
                       else tiles)
        if isinstance(self.mesh, FlatMesh):
            self.tile_core = register_tiles(self.sim, members)
        else:
            self.sim.add_all(members)
            self.tile_core = None
        self.tile_coords = {tile.name: tile.coord for tile in members}
        assert_deadlock_free(chains, self.tile_coords)
        attach_faults(self, fault_plan)
