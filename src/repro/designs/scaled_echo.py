"""The section VII-I resource-scalability design: a UDP stack plus up
to 22 replicated echo application tiles — 28 tiles total, the largest
configuration that closes timing on the U200.

Layout discipline (a generalisation of Fig 5b's lesson): the receive
tiles sit in row 0 and reach applications east-then-south; replies
travel west-then-north into the transmit tiles in row 1.  Under XY
routing those link sets are disjoint, so any number of application
tiles compose deadlock-free — which the constructor verifies for all
declared chains.
"""

from __future__ import annotations

from repro.apps.echo import UdpEchoAppTile
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import ETHERTYPE_IPV4
from repro.packet.ipv4 import IPPROTO_UDP
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.udp import UdpRxTile, UdpTxTile


class ScaledEchoDesign(Design):
    """A UDP stack with replicated echo tiles, 7x4 / 22 apps default.

    ``width``/``height`` generalise the paper's 7x4 U200 floorplan so
    the ``fast`` profile can be swept to sizes (16x16 and beyond)
    ``reference`` cannot reach in CI time.  The layout rule is
    unchanged: the six stack tiles occupy columns 0-2 of rows 0-1, and
    every remaining coordinate may host an application replica.
    """

    WIDTH = 7
    HEIGHT = 4
    MAX_APPS = 22

    def __init__(self, n_apps: int = 22, udp_port: int = 7,
                 line_rate_bytes_per_cycle: float | None = None,
                 profile: str = "fast",
                 width: int | None = None,
                 height: int | None = None,
                 fault_plan=None,
                 app_coords: list[tuple[int, int]] | None = None):
        self.width = self.WIDTH if width is None else width
        self.height = self.HEIGHT if height is None else height
        if (self.width < 3 or self.height < 2
                or self.width * self.height < 7):
            raise ValueError("the stack needs at least 3 columns, 2 rows "
                             "and 7 sites (six stack tiles plus one app)")
        max_apps = self.width * self.height - 6
        if not 1 <= n_apps <= max_apps:
            raise ValueError(
                f"this layout hosts 1-{max_apps} app tiles"
            )
        super().__init__(self.width, self.height, profile)
        self.n_apps = n_apps
        self.udp_port = udp_port

        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=SERVER_MAC)
        self.ip_rx = IpRxTile("ip_rx", self.mesh, (1, 0),
                              my_ip=SERVER_IP)
        self.udp_rx = UdpRxTile("udp_rx", self.mesh, (2, 0))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (0, 1), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=line_rate_bytes_per_cycle,
        )
        self.ip_tx = IpTxTile("ip_tx", self.mesh, (1, 1))
        self.udp_tx = UdpTxTile("udp_tx", self.mesh, (2, 1))

        # App placement: the default fills every non-stack coordinate
        # row-major; an explicit ``app_coords`` pins replicas to chosen
        # sites (e.g. the far-east columns, which spreads transit
        # evenly over every column).  Either way the XY east-then-south
        # / west-then-north discipline is re-verified below.
        stack_coords = {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)}
        if app_coords is None:
            app_coords = [
                (x, y)
                for y in range(self.height)
                for x in range(self.width)
                if x > 2 or y > 1  # right of / below the stack
            ]
        else:
            app_coords = [tuple(coord) for coord in app_coords]
            if len(set(app_coords)) != len(app_coords):
                raise ValueError("app_coords has duplicates")
            for coord in app_coords:
                if len(coord) != 2:
                    raise ValueError(
                        f"app_coords entry {coord} is not an (x, y) pair")
                if coord in stack_coords:
                    raise ValueError(
                        f"app at {coord} collides with a stack tile")
                if not (0 <= coord[0] < self.width
                        and 0 <= coord[1] < self.height):
                    raise ValueError(f"app at {coord} is off-mesh")
            if len(app_coords) < n_apps:
                raise ValueError(
                    f"{n_apps} apps need {n_apps} app_coords, "
                    f"got {len(app_coords)}")
        self.apps = [
            UdpEchoAppTile(f"app{i}", self.mesh, app_coords[i])
            for i in range(n_apps)
        ]

        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        self.ip_rx.next_hop.set_entry(IPPROTO_UDP, self.udp_rx.coord)
        # One port, N replicas: the flow-hash table spreads clients.
        self.udp_rx.next_hop.set_entry(
            udp_port, [app.coord for app in self.apps]
        )
        for app in self.apps:
            app.next_hop.set_entry(app.DEFAULT, self.udp_tx.coord)
        self.udp_tx.next_hop.set_entry(self.udp_tx.DEFAULT,
                                       self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)

        self.register(
            [self.eth_rx, self.ip_rx, self.udp_rx,
             self.eth_tx, self.ip_tx, self.udp_tx, *self.apps],
            [["eth_rx", "ip_rx", "udp_rx", app.name,
              "udp_tx", "ip_tx", "eth_tx"]
             for app in self.apps],
            fault_plan)

    @property
    def total_tiles(self) -> int:
        return len(self.tiles)
