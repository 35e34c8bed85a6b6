#!/usr/bin/env python3
"""Network virtualization + control plane (paper sections IV-F, V-E).

Demonstrates the managed NAT design: an echo service reached through a
NAT whose virtual-to-physical mapping is reconfigured *at runtime* by
an external controller speaking an RPC over UDP — the paper's
client-migration flow, end to end: RPC in over the data plane, table
update over the separate control NoC, acknowledgement back out.  Also
shows the IP-in-IP tunnel variant with its duplicated IP tiles.

Run:  python examples/network_virtualization.py
"""

import json

from repro.control.controller import encode_control_rpc
from repro.designs import (
    CLIENT_IP as CLIENT_PHYS,
    CLIENT_MAC,
    FrameSink,
    IpInIpEchoDesign,
)
from repro.designs.managed_stack import ManagedNatEchoDesign
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)
from repro.packet.builder import build_ipinip_udp_frame
from repro.packet.vxlan import VxlanHeader, build_vxlan_frame
from repro.designs import VxlanEchoDesign

CLIENT_PHYS_NEW = IPv4Address("10.0.0.99")
CLIENT_VIRT = IPv4Address("172.16.0.1")
ADMIN_IP = IPv4Address("10.0.0.200")
ADMIN_MAC = MacAddress("02:00:00:00:00:aa")


def run_until_reply(design, sink, frame):
    before = sink.count
    design.inject(frame, design.sim.cycle)
    design.sim.run_until(lambda: sink.count > before, max_cycles=5000)
    return parse_frame(sink.frames[-1][0])


def nat_migration():
    design = ManagedNatEchoDesign(udp_port=7)
    design.map_client(CLIENT_VIRT, CLIENT_PHYS, CLIENT_MAC)
    design.eth_tx.add_neighbor(ADMIN_IP, ADMIN_MAC)
    design.eth_tx.add_neighbor(CLIENT_PHYS_NEW, CLIENT_MAC)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)

    def echo(physical_ip, payload):
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, physical_ip,
            design.server_ip, 5555, 7, payload,
        )
        return run_until_reply(design, sink, frame)

    reply = echo(CLIENT_PHYS, b"before migration")
    print(f"echo to physical {reply.ip.dst} (virtual {CLIENT_VIRT}): "
          f"{reply.payload!r}")

    # The external controller migrates the client: one RPC over UDP.
    rpc = encode_control_rpc(design.nat_rx.coord, "nat", CLIENT_VIRT,
                             CLIENT_PHYS_NEW, tag=42)
    rpc_frame = build_ipv4_udp_frame(
        ADMIN_MAC, design.server_mac, ADMIN_IP, design.server_ip,
        6000, design.CONTROL_PORT, rpc,
    )
    response = json.loads(run_until_reply(design, sink,
                                          rpc_frame).payload)
    print(f"controller RPC: {response} "
          "(table updated over the control NoC)")

    reply = echo(CLIENT_PHYS_NEW, b"after migration")
    print(f"echo to new physical {reply.ip.dst}: {reply.payload!r}")
    print(f"NAT translations so far: "
          f"{design.nat_rx.translations + design.nat_tx.translations}")


def ipinip_tunnel():
    design = IpInIpEchoDesign(udp_port=7)
    design.add_tunnel_peer(CLIENT_VIRT, CLIENT_PHYS, CLIENT_MAC)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    frame = build_ipinip_udp_frame(
        CLIENT_MAC, design.server_mac,
        outer_src_ip=CLIENT_PHYS, outer_dst_ip=design.server_phys_ip,
        inner_src_ip=CLIENT_VIRT, inner_dst_ip=design.server_virt_ip,
        src_port=5555, dst_port=7, payload=b"through the tunnel",
    )
    reply = run_until_reply(design, sink, frame)
    print(f"\nIP-in-IP: outer {reply.ip.src} -> {reply.ip.dst}, "
          f"inner {reply.inner_ip.src} -> {reply.inner_ip.dst}: "
          f"{reply.payload!r}")
    print("(duplicated IP RX/TX tiles parse/build outer and inner "
          "headers — the paper's fix for repeated headers breaking "
          "resource ordering)")


def vxlan_overlay():
    design = VxlanEchoDesign(vni=7700, udp_port=7)
    inner_ip = IPv4Address("192.168.0.1")
    inner_mac = MacAddress("02:aa:00:00:00:01")
    design.add_overlay_peer(inner_ip, inner_mac, CLIENT_PHYS,
                            CLIENT_MAC)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    inner = build_ipv4_udp_frame(
        inner_mac, design.server_inner_mac, inner_ip,
        design.server_inner_ip, 5555, 7, b"tenant traffic",
    )
    frame = build_vxlan_frame(CLIENT_MAC, design.server_vtep_mac,
                              CLIENT_PHYS, design.server_vtep_ip,
                              7700, inner)
    reply = run_until_reply(design, sink, frame)
    header, inner_reply = VxlanHeader.unpack(reply.payload)
    tenant = parse_frame(inner_reply)
    print(f"\nVXLAN (VNI {header.vni}): outer {reply.ip.src} -> "
          f"{reply.ip.dst}, tenant {tenant.ip.src} -> "
          f"{tenant.ip.dst}: {tenant.payload!r}")
    print("(a complete inner Ethernet/IP/UDP pipeline behind the "
          "outer one — 15 tiles, all unmodified protocol tiles plus "
          "two VXLAN tiles)")


def main():
    nat_migration()
    ipinip_tunnel()
    vxlan_overlay()


if __name__ == "__main__":
    main()
