"""The fixed-pipeline UDP stack (paper Fig 8b).

The same protocol engines as the Beehive UDP echo design, but wired
directly stage to stage — no NoC routers, no NoC message construction
or deconstruction.  Packets therefore carry no header/metadata flit
overhead and the engines recover slightly faster per packet, which is
the small advantage Fig 7 shows at small packet sizes, amortising away
as payload grows.  The price is inflexibility: inserting a network
function means new top-level wires and re-engineering — the contrast
that motivates Beehive.
"""

from __future__ import annotations

import math

from repro import params
from repro.packet.builder import parse_frame
from repro.packet.ethernet import ETHERTYPE_IPV4, EthernetHeader, MacAddress
from repro.packet.ipv4 import IPPROTO_UDP, IPv4Address, IPv4Header
from repro.packet.udp import UdpHeader
from repro.packet import udp as udp_mod
from repro.sim.kernel import CycleSimulator, no_commit

SERVER_MAC = MacAddress("02:be:e0:00:00:02")
SERVER_IP = IPv4Address("10.0.0.11")


class _Stage:
    """One directly-wired pipeline stage.

    Same serialised-engine timing as a Beehive tile, minus the NoC
    flit overhead: a packet occupies the stage for
    ``max(ceil(bytes/64), occupancy)`` cycles and emerges
    ``parse_latency`` cycles after pickup.
    """

    occupancy = params.PIPELINED_MSG_OCCUPANCY_CYCLES
    parse_latency = params.TILE_PARSE_LATENCY_CYCLES
    #: Packets a stage queues before its upstream stalls.
    queue_packets = 4

    def __init__(self, name: str, transform):
        self.name = name
        self.transform = transform
        self.downstream: "_Stage | None" = None
        self._queue: list[tuple[int, object]] = []
        self._in_service = None
        self._emit_at = 0
        self._engine_free = 0
        self.packets = 0
        self.drops = 0

    def can_accept(self) -> bool:
        return len(self._queue) < self.queue_packets

    def push(self, item, cycle: int) -> None:
        self._queue.append((cycle, item))

    def step(self, cycle: int) -> None:
        if self._in_service is not None and cycle >= self._emit_at:
            item = self.transform(self._in_service, cycle)
            self._in_service = None
            if item is not None:
                self.packets += 1
                if self.downstream is not None:
                    self.downstream.push(item, cycle)
            else:
                self.drops += 1
        if (self._in_service is None and self._queue
                and cycle >= self._engine_free
                and (self.downstream is None
                     or self.downstream.can_accept())):
            arrival, item = self._queue.pop(0)
            self._in_service = item
            self._emit_at = cycle + max(1, self.parse_latency)
            size = self._item_bytes(item)
            flits = max(1, math.ceil(size / params.FLIT_BYTES))
            self._engine_free = cycle + max(flits, self.occupancy)

    @staticmethod
    def _item_bytes(item) -> int:
        data = item[0] if isinstance(item, tuple) else item
        return len(data)

    commit = no_commit


class PipelinedUdpEchoDesign:
    """Ethernet/IP/UDP echo with directly-wired engines (Fig 8b)."""

    def __init__(self, udp_port: int = 7):
        self.udp_port = udp_port
        self.sim = CycleSimulator()
        self.frames_echoed = 0
        self.payload_bytes = 0
        self.first_cycle: int | None = None
        self.last_cycle: int | None = None
        self.last_transit_cycles: int | None = None
        self.neighbor_macs: dict[IPv4Address, MacAddress] = {}
        self.drops = 0

        self.stages = [
            _Stage("eth_rx", self._eth_rx),
            _Stage("ip_rx", self._ip_rx),
            _Stage("udp_rx", self._udp_rx),
            _Stage("app", self._app),
            _Stage("udp_tx", self._udp_tx),
            _Stage("ip_tx", self._ip_tx),
            _Stage("eth_tx", self._eth_tx),
        ]
        for stage, downstream in zip(self.stages, self.stages[1:]):
            stage.downstream = downstream
        self.sim.add_all(self.stages)

    # -- host interface --------------------------------------------------------

    def add_client(self, ip: IPv4Address, mac: MacAddress) -> None:
        self.neighbor_macs[IPv4Address(ip)] = MacAddress(mac)

    def inject(self, frame: bytes, cycle: int) -> None:
        self.stages[0].push((frame, cycle), cycle)

    @property
    def server_ip(self) -> IPv4Address:
        return SERVER_IP

    @property
    def server_mac(self) -> MacAddress:
        return SERVER_MAC

    def goodput_gbps(self) -> float:
        if self.first_cycle is None or \
                self.last_cycle == self.first_cycle:
            return 0.0
        cycles = self.last_cycle - self.first_cycle
        return self.payload_bytes * 8 / (cycles
                                         * params.CYCLE_TIME_S) / 1e9

    # -- stage transforms (each strips or adds one layer) -------------------------

    def _eth_rx(self, item, cycle):
        frame, ingress = item
        try:
            eth, rest = EthernetHeader.unpack(frame)
        except ValueError:
            return None
        if eth.ethertype != ETHERTYPE_IPV4:
            return None
        return (rest, ingress)

    def _ip_rx(self, item, cycle):
        data, ingress = item
        try:
            ip, payload = IPv4Header.unpack(data)
        except ValueError:
            return None
        if ip.protocol != IPPROTO_UDP or ip.dst != SERVER_IP:
            return None
        return (payload, ingress, ip)

    def _udp_rx(self, item, cycle):
        data, ingress, ip = item
        try:
            udp, payload = UdpHeader.unpack(data)
        except ValueError:
            return None
        if not udp.verify(ip.pseudo_header(udp.length), payload):
            return None
        if udp.dst_port != self.udp_port:
            return None
        return (payload, ingress, ip, udp)

    def _app(self, item, cycle):
        payload, ingress, ip, udp = item
        return (payload, ingress, ip, udp)

    def _udp_tx(self, item, cycle):
        payload, ingress, ip, udp = item
        reply_ip = IPv4Header(src=ip.dst, dst=ip.src,
                              protocol=IPPROTO_UDP,
                              total_length=20 + udp_mod.HEADER_LEN
                              + len(payload))
        reply_udp = UdpHeader(src_port=udp.dst_port,
                              dst_port=udp.src_port,
                              length=udp_mod.HEADER_LEN + len(payload))
        udp_bytes = reply_udp.pack_with_checksum(
            reply_ip.pseudo_header(reply_udp.length), payload)
        return (udp_bytes + payload, ingress, reply_ip)

    def _ip_tx(self, item, cycle):
        data, ingress, ip = item
        header = IPv4Header(src=ip.src, dst=ip.dst,
                            protocol=IPPROTO_UDP,
                            total_length=20 + len(data))
        return (header.pack() + data, ingress, header)

    def _eth_tx(self, item, cycle):
        data, ingress, ip = item
        mac = self.neighbor_macs.get(ip.dst)
        if mac is None:
            self.drops += 1
            return None
        eth = EthernetHeader(dst=mac, src=SERVER_MAC,
                             ethertype=ETHERTYPE_IPV4)
        frame = eth.pack() + data
        emit = cycle
        self.frames_echoed += 1
        try:
            self.payload_bytes += len(parse_frame(frame).payload)
        except ValueError:
            pass
        if self.first_cycle is None:
            self.first_cycle = emit
        self.last_cycle = emit
        self.last_transit_cycles = emit - ingress
        return None
