"""What the shipped designs share: each is the spec it publishes.

A class under :mod:`repro.designs` is a
:class:`~repro.config.generate.GeneratedDesign` whose constructor
keywords are the arguments of its :meth:`ShippedDesign.spec`; the
helpers here spell the parts every spec repeats — a tile, a path of
tiles each forwarding to the next, the Ethernet/IP/UDP stack at the
shared server address.  The spec's tile order is the registration
order: what the tile core adopts, within-cycle stepping and trace
order follow.
"""

from __future__ import annotations

from repro.config.generate import GeneratedDesign
from repro.config.schema import ChainSpec, DesignSpec, DestSpec, TileSpec
from repro.designs.base import SERVER_IP, SERVER_MAC


class ShippedDesign(GeneratedDesign):
    """Built from ``cls.spec(...)`` of the constructor's keywords."""

    def __init__(self, *args, profile: str = "fast", fault_plan=None,
                 **keywords):
        super().__init__(self.spec(*args, **keywords), profile, fault_plan)

    @staticmethod
    def spec(*args, **keywords) -> DesignSpec:
        """The spec for the constructor's keywords; subclasses say."""
        raise NotImplementedError


def dests(entries: dict[str, list[str]],
          policy: str = "flow_hash") -> list[DestSpec]:
    """Next-hop entries: key -> target names, balanced by ``policy``."""
    return [DestSpec(key, list(targets), policy)
            for key, targets in entries.items()]


def tile(name: str, type: str, coord: tuple[int, int],
         entries: dict[str, list[str]] | None = None,
         policy: str = "flow_hash", **params) -> TileSpec:
    """One tile spec, with the :func:`dests` of ``entries``; a param
    given as None is left out."""
    return TileSpec(name, type, *coord,
                    {key: str(value) for key, value in params.items()
                     if value is not None},
                    dests(entries or {}, policy))


#: The key a tile type forwards on to the next tile of its path.
_FORWARDS_ON = {"eth_rx": "ethertype:0x0800", "ip_rx": "proto:17"}


def path(*hops: TileSpec | tuple[TileSpec, str]) -> list[TileSpec]:
    """Wire each tile to the next and return them in order.  A hop is
    a tile — forwarding on what its type matches, ``default`` unless
    :data:`_FORWARDS_ON` says otherwise — or ``(tile, key)``; the entry
    goes in front of the destinations the tile already has."""
    pairs = [hop if isinstance(hop, tuple)
             else (hop, _FORWARDS_ON.get(hop.type, "default"))
             for hop in hops]
    for (spec, key), (following, _) in zip(pairs, pairs[1:]):
        spec.dests.insert(0, DestSpec(key, [following.name]))
    return [spec for spec, _ in pairs]


def stack_tiles(ports: dict[str, list[str]], line_rate: float | None,
                rx=((0, 0), (1, 0), (2, 0)), tx=((2, 1), (1, 1), (0, 1)),
                name=str, mac=SERVER_MAC, ip=SERVER_IP,
                ) -> tuple[list[TileSpec], list[TileSpec]]:
    """The Ethernet, IP and UDP tiles of one stack, named
    ``name(type)`` and wired to nothing but the ``ports`` (``port:N``
    -> targets) its UDP RX tile routes: the three of the receive path
    at ``rx`` and the three of the transmit path at ``tx``, each in
    path order (``eth_rx ip_rx udp_rx`` / ``udp_tx ip_tx eth_tx``)."""
    receive = [tile(name("eth_rx"), "eth_rx", rx[0], my_mac=mac),
               tile(name("ip_rx"), "ip_rx", rx[1], my_ip=ip),
               tile(name("udp_rx"), "udp_rx", rx[2], ports)]
    transmit = [tile(name("udp_tx"), "udp_tx", tx[0]),
                tile(name("ip_tx"), "ip_tx", tx[1]),
                tile(name("eth_tx"), "eth_tx", tx[2], my_mac=mac,
                     line_rate=str(line_rate).lower())]
    return receive, transmit


def design_spec(name: str, width: int, height: int,
                tiles: list[TileSpec],
                chains: list[list[TileSpec | str]]) -> DesignSpec:
    """A spec whose ``chains`` list tiles or their names."""
    return DesignSpec(name, width, height, tiles, [
        ChainSpec([getattr(hop, "name", hop) for hop in chain])
        for chain in chains])
