"""The managed NAT design: the section V-E reconfiguration scenario.

The NAT echo stack plus the internal controller tile and a separate
control NoC.  An external controller sends an RPC over UDP to the
controller port; the controller tile pushes a :class:`TableUpdate`
across the control NoC to the NAT (or Ethernet neighbour table, or a
protocol tile's next-hop table), collects the ACK, and confirms back
over UDP — the full client-migration flow.
"""

from __future__ import annotations

from repro.config.schema import ChainSpec, DesignSpec
from repro.designs.stack import dests, tile
from repro.designs.virt_stack import NatEchoDesign
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address


class ManagedNatEchoDesign(NatEchoDesign):
    """NAT echo + internal controller + control NoC."""

    CONTROL_PORT = 9000

    @classmethod
    def spec(cls, udp_port: int = 7,
             line_rate_bytes_per_cycle: float | None = 50.0) -> DesignSpec:
        # The controller is one more tile of the stack, registered (and
        # open to fault plans) with the rest; the registry attaches it
        # to the control plane it makes.
        spec = NatEchoDesign.spec(udp_port, line_rate_bytes_per_cycle)
        spec.name = "managed_nat_echo"
        spec.tiles.append(tile("controller", "controller", (4, 1),
                               {"default": ["udp_tx"]}))
        spec.tile("udp_rx").dests += dests(
            {f"port:{cls.CONTROL_PORT}": ["controller"]})
        spec.chains.append(ChainSpec([
            "controller" if name == "app" else name
            for name in spec.chains[0].tiles]))
        return spec

    def __init__(self, *args, **keywords):
        super().__init__(*args, **keywords)
        self.control = self.controller.endpoint.plane

        # NAT endpoint: the control plane rewrites the virtual->physical
        # mapping on client migration.
        nat_ep = self.control.attach(self.nat_rx.coord, "nat")
        nat_ep.on_table(
            "nat",
            lambda key, value: self.nat_table.set_mapping(
                IPv4Address(key), IPv4Address(value)
            ),
        )
        nat_ep.on_counter(
            "translations",
            lambda: self.nat_rx.translations + self.nat_tx.translations,
        )
        nat_ep.on_counter("misses",
                          lambda: self.nat_rx.misses + self.nat_tx.misses)

        # Ethernet TX endpoint: neighbour (IP -> MAC) table updates.
        eth_ep = self.control.attach(self.eth_tx.coord, "eth_tx")
        eth_ep.on_table(
            "neighbor",
            lambda key, value: self.eth_tx.add_neighbor(
                IPv4Address(key), MacAddress(value)
            ),
        )

        # UDP RX endpoint: rewrite the port hash table at runtime
        # ("the hash table can be rewritten during runtime via the
        # control plane", section V-B).
        udp_ep = self.control.attach(self.udp_rx.coord, "udp_rx")
        udp_ep.on_table(
            "udp_nexthop",
            lambda key, value: self.udp_rx.next_hop.set_entry(
                int(key), tuple(int(v) for v in value.split(","))
            ),
        )
        udp_ep.on_counter("drops", lambda: self.udp_rx.drops)

        self.endpoints = {
            "controller": self.controller.endpoint,
            "nat": nat_ep,
            "eth_tx": eth_ep,
            "udp_rx": udp_ep,
        }
        self.control.register(self.sim)
