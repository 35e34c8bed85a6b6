"""The managed NAT design: the section V-E reconfiguration scenario.

The NAT echo stack plus the internal controller tile and a separate
control NoC.  An external controller sends an RPC over UDP to the
controller port; the controller tile pushes a :class:`TableUpdate`
across the control NoC to the NAT (or Ethernet neighbour table, or a
protocol tile's next-hop table), collects the ACK, and confirms back
over UDP — the full client-migration flow.
"""

from __future__ import annotations

from repro.control.controller import InternalControllerTile
from repro.control.plane import ControlPlane
from repro.designs.base import Design
from repro.designs.virt_stack import NatEchoDesign
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address


class ManagedNatEchoDesign(NatEchoDesign):
    """NAT echo + internal controller + control NoC."""

    CONTROL_PORT = 9000

    def __init__(self, udp_port: int = 7,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 profile: str = "fast",
                 fault_plan=None):
        # Not NatEchoDesign.__init__, which registers what it built:
        # this design has a tile to add first.
        Design.__init__(self, 5, 2, profile)
        tiles, chains = self._nat_stack(udp_port,
                                        line_rate_bytes_per_cycle)
        self.control = ControlPlane(5, 2)

        # The controller is one more tile of the stack, registered (and
        # open to fault plans) with the rest.
        controller_ep = self.control.attach((4, 1), "controller")
        self.controller = InternalControllerTile(
            "controller", self.mesh, (4, 1), endpoint=controller_ep,
        )
        self.controller.next_hop.set_entry(self.controller.DEFAULT,
                                           self.udp_tx.coord)
        self.udp_rx.next_hop.set_entry(self.CONTROL_PORT,
                                       self.controller.coord)
        tiles.append(self.controller)
        chains.append(["eth_rx", "ip_rx", "nat_rx", "udp_rx",
                       "controller", "udp_tx", "nat_tx", "ip_tx",
                       "eth_tx"])

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
            "controller": controller_ep,
            "nat": nat_ep,
            "eth_tx": eth_ep,
            "udp_rx": udp_ep,
        }

        self.register(tiles, chains, fault_plan)
        self.control.register(self.sim)
