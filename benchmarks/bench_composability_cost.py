"""The cost of composing network functions into the stack.

The paper's modularity claim is that functionality is *inserted*, not
engineered in — NAT, IP-in-IP, logging, or a whole VXLAN overlay slot
into the chain as extra tiles.  This benchmark quantifies the price:
per-packet latency grows by roughly one tile transit (~13 cycles /
52 ns) per inserted tile, and small-packet goodput is unchanged
(the added tiles pipeline; the bottleneck stays the slowest engine).
"""

import pytest

from repro.designs import (
    CLIENT_IP,
    CLIENT_MAC,
    IpInIpEchoDesign,
    LoggedUdpEchoDesign,
    NatEchoDesign,
    UdpEchoDesign,
    VxlanEchoDesign,
    client_frame,
    saturation_goodput,
)
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.packet.builder import build_ipinip_udp_frame
from repro.packet.vxlan import build_vxlan_frame

CLIENT_VIRT = IPv4Address("172.16.0.1")
INNER_IP = IPv4Address("192.168.0.1")
INNER_MAC = MacAddress("02:aa:00:00:00:01")


def _measure(design, frame, cycles=15_000):
    """(chain tiles, one-packet latency cycles, 64 B KReq/s)."""
    design.inject(frame, 0)
    design.sim.run_until(lambda: design.eth_tx.frames_out,
                         max_cycles=5000)
    latency = design.eth_tx.last_transit_cycles
    rate = saturation_goodput(design, [frame], cycles).kreqs
    return len(design.chains[0]), latency, rate


def run_composability():
    rows = {}

    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    rows["plain UDP (7 tiles)"] = _measure(
        design, client_frame(design, bytes(64)))

    design = LoggedUdpEchoDesign(udp_port=7,
                                 line_rate_bytes_per_cycle=None)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    rows["+ logging tap (8 tiles)"] = _measure(
        design, client_frame(design, bytes(64)))

    design = NatEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    design.map_client(CLIENT_VIRT, CLIENT_IP, CLIENT_MAC)
    rows["+ NAT rx/tx (9 tiles)"] = _measure(
        design, client_frame(design, bytes(64)))

    design = IpInIpEchoDesign(udp_port=7,
                              line_rate_bytes_per_cycle=None)
    design.add_tunnel_peer(CLIENT_VIRT, CLIENT_IP, CLIENT_MAC)
    frame = build_ipinip_udp_frame(
        CLIENT_MAC, design.server_mac, CLIENT_IP,
        design.server_phys_ip, CLIENT_VIRT, design.server_virt_ip,
        5555, 7, bytes(64),
    )
    rows["+ IP-in-IP (11 tiles)"] = _measure(design, frame)

    design = VxlanEchoDesign(udp_port=7,
                             line_rate_bytes_per_cycle=None)
    design.add_overlay_peer(INNER_IP, INNER_MAC,
                            CLIENT_IP, CLIENT_MAC)
    inner = build_ipv4_udp_frame(INNER_MAC, design.server_inner_mac,
                                 INNER_IP, design.server_inner_ip,
                                 5555, 7, bytes(64))
    frame = build_vxlan_frame(CLIENT_MAC, design.server_vtep_mac,
                              CLIENT_IP, design.server_vtep_ip,
                              design.vni, inner)
    rows["+ VXLAN overlay (15 tiles)"] = _measure(design, frame)

    return rows


def bench_composability_cost(benchmark, report):
    rows = benchmark.pedantic(run_composability, rounds=1,
                              iterations=1)

    base_tiles, base_latency, base_rate = rows["plain UDP (7 tiles)"]
    table = []
    for name, (tiles, latency, rate) in rows.items():
        per_tile = ((latency - base_latency) / (tiles - base_tiles)
                    if tiles > base_tiles else 0.0)
        table.append([name, tiles, latency, latency * 4,
                      f"{per_tile:.1f}" if per_tile else "-", rate])
    report.table(
        ["configuration", "chain tiles", "latency cy", "latency ns",
         "cy/extra tile", "64B KReq/s"],
        table,
    )
    report.row()
    report.row("insertion cost: ~8-16 cycles (about one tile "
               "transit) per added tile; request rate unchanged — "
               "the chain pipelines and the slowest engine still "
               "sets the rate")

    for name, (tiles, latency, rate) in rows.items():
        if tiles > base_tiles:
            per_tile = (latency - base_latency) / (tiles - base_tiles)
            assert 5 <= per_tile <= 25  # about one tile transit each
        # Inserting functions does not tax small-packet request rate.
        assert rate == pytest.approx(base_rate, rel=0.15)
