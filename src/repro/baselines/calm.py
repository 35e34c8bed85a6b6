"""A PANIC-style crossbar framework and the CALM UDP echo (section VII-C).

PANIC connects processing elements through a central crossbar +
scheduler rather than a mesh.  The paper found its crossbar "unable to
support more than 8 endpoints, 4 of which are always used by its
infrastructure" — enforced here — and built CALM, a UDP echo, in the 4
user slots: a fixed UDP receive path, the application, and a fixed UDP
send path.  Performance is nearly identical to Beehive's (Fig 7: both
~line rate at 1024 B, CALM 362 ns vs Beehive 368 ns echo latency);
the cost is flexibility, since the fused RX/TX paths leave no seam to
insert network functions or alternate protocols into.
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

MAX_ENDPOINTS = 8
INFRASTRUCTURE_ENDPOINTS = 4  # scheduler, MAC in/out, buffer manager

SERVER_MAC = MacAddress("02:be:e0:00:00:03")
SERVER_IP = IPv4Address("10.0.0.12")


class CrossbarEndpoint:
    """A processing element attached to the crossbar."""

    #: Cycles an element holds its engine per packet, and cycles from
    #: pickup to emergence.
    occupancy = params.TILE_MSG_OCCUPANCY_CYCLES
    parse_latency = 29

    def __init__(self, name: str, handler):
        self.name = name
        self.handler = handler
        self.crossbar: "Crossbar | None" = None
        self._queue: list = []
        # CALM's fused-path elements are deeply pipelined: each packet
        # emerges parse_latency cycles after pickup, but the engine is
        # free to pick up the next one after its occupancy — latency
        # and throughput decouple, unlike the simpler Beehive tiles.
        self._in_flight: list[tuple[int, object]] = []
        self._engine_free = 0
        self.packets = 0

    def push(self, item) -> None:
        self._queue.append(item)

    def step(self, cycle: int) -> None:
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, item = self._in_flight.pop(0)
            result = self.handler(item, cycle)
            if result is not None:
                target, out = result
                self.packets += 1
                self.crossbar.send(self.name, target, out, cycle)
        if self._queue and cycle >= self._engine_free:
            item = self._queue.pop(0)
            self._in_flight.append(
                (cycle + max(1, self.parse_latency), item)
            )
            size = len(item[0]) if isinstance(item, tuple) else 64
            flits = max(1, math.ceil(size / params.FLIT_BYTES))
            self._engine_free = cycle + max(flits, self.occupancy)

    commit = no_commit


class Crossbar:
    """The central interconnect + scheduler.

    Every transfer crosses the scheduler, which has finite buffering
    and — unlike Beehive's backpressured NoC — *drops* packets when it
    runs out (PANIC's deadlock-avoidance strategy, which is also why
    TCP semantics are hard to host on it).
    """

    #: Packets the scheduler buffers before it drops, and cycles a
    #: transfer takes through it.
    buffer_packets = 64
    hop_cycles = 2

    def __init__(self, sim: CycleSimulator):
        self.sim = sim
        self.endpoints: dict[str, CrossbarEndpoint] = {}
        self._in_flight: list[tuple[int, str, object]] = []
        self.scheduler_drops = 0
        sim.add(self)

    def attach(self, endpoint: CrossbarEndpoint) -> CrossbarEndpoint:
        if len(self.endpoints) + INFRASTRUCTURE_ENDPOINTS >= \
                MAX_ENDPOINTS:
            raise ValueError(
                f"PANIC crossbar supports {MAX_ENDPOINTS} endpoints "
                f"and {INFRASTRUCTURE_ENDPOINTS} are infrastructure; "
                f"cannot attach {endpoint.name!r}"
            )
        endpoint.crossbar = self
        self.endpoints[endpoint.name] = endpoint
        self.sim.add(endpoint)
        return endpoint

    def send(self, src: str, target: str, item, cycle: int) -> None:
        if len(self._in_flight) >= self.buffer_packets:
            self.scheduler_drops += 1
            return
        self._in_flight.append((cycle + self.hop_cycles, target, item))

    def step(self, cycle: int) -> None:
        remaining = []
        for deliver_at, target, item in self._in_flight:
            if deliver_at <= cycle:
                self.endpoints[target].push(item)
            else:
                remaining.append((deliver_at, target, item))
        self._in_flight = remaining

    commit = no_commit


class CalmUdpEcho:
    """The CALM UDP echo server: rx-path, app, tx-path endpoints."""

    def __init__(self, udp_port: int = 7):
        self.udp_port = udp_port
        self.sim = CycleSimulator()
        self.crossbar = Crossbar(self.sim)
        self.neighbor_macs: dict[IPv4Address, MacAddress] = {}
        self.frames_echoed = 0
        self.payload_bytes = 0
        self.first_cycle: int | None = None
        self.last_cycle: int | None = None
        self.last_transit_cycles: int | None = None
        self.drops = 0

        self.rx_path = self.crossbar.attach(
            CrossbarEndpoint("rx_path", self._rx_path))
        self.app = self.crossbar.attach(
            CrossbarEndpoint("app", self._app))
        self.tx_path = self.crossbar.attach(
            CrossbarEndpoint("tx_path", self._tx_path))

    def add_client(self, ip: IPv4Address, mac: MacAddress) -> None:
        self.neighbor_macs[IPv4Address(ip)] = MacAddress(mac)

    def inject(self, frame: bytes, cycle: int) -> None:
        self.rx_path.push((frame, cycle))

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

    # -- endpoint handlers: whole fixed paths, not per-layer tiles ---------------

    def _rx_path(self, item, cycle):
        """Fixed Ethernet+IP+UDP receive processing in one element."""
        frame, ingress = item
        try:
            parsed = parse_frame(frame)
        except ValueError:
            self.drops += 1
            return None
        if parsed.udp is None or parsed.ip.dst != SERVER_IP or \
                parsed.udp.dst_port != self.udp_port:
            self.drops += 1
            return None
        return ("app", (parsed.payload, ingress, parsed.ip, parsed.udp))

    def _app(self, item, cycle):
        payload, ingress, ip, udp = item
        return ("tx_path", (payload, ingress, ip, udp))

    def _tx_path(self, item, cycle):
        """Fixed UDP+IP+Ethernet send processing in one element."""
        payload, ingress, ip, udp = item
        mac = self.neighbor_macs.get(ip.src)
        if mac is None:
            self.drops += 1
            return None
        reply_ip = IPv4Header(src=ip.dst, dst=ip.src,
                              protocol=IPPROTO_UDP,
                              total_length=20 + udp_mod.HEADER_LEN
                              + len(payload))
        reply_udp = UdpHeader(src_port=udp.dst_port,
                              dst_port=udp.src_port,
                              length=udp_mod.HEADER_LEN + len(payload))
        udp_bytes = reply_udp.pack_with_checksum(
            reply_ip.pseudo_header(reply_udp.length), payload)
        eth = EthernetHeader(dst=mac, src=SERVER_MAC,
                             ethertype=ETHERTYPE_IPV4)
        frame = eth.pack() + reply_ip.pack() + udp_bytes + payload
        emit = cycle
        self.frames_echoed += 1
        self.payload_bytes += len(payload)
        if self.first_cycle is None:
            self.first_cycle = emit
        self.last_cycle = emit
        self.last_transit_cycles = emit - ingress
        return None
