"""Tests for the NAT and IP-in-IP network-function tiles (section V-E)."""

from repro.designs import FrameSink, IpInIpEchoDesign, NatEchoDesign
from repro.packet import IPv4Address, MacAddress, parse_frame
from repro.packet.builder import build_ipinip_udp_frame, build_ipv4_udp_frame
from repro.tiles.nat import NatTable

CLIENT_MAC = MacAddress("02:00:00:00:00:01")
CLIENT_PHYS_IP = IPv4Address("10.0.0.1")
CLIENT_VIRT_IP = IPv4Address("172.16.0.1")


class TestNatTable:
    def test_bidirectional(self):
        table = NatTable()
        table.set_mapping(CLIENT_VIRT_IP, CLIENT_PHYS_IP)
        assert table.to_physical(CLIENT_VIRT_IP) == CLIENT_PHYS_IP
        assert table.to_virtual(CLIENT_PHYS_IP) == CLIENT_VIRT_IP

    def test_migration_replaces_old_physical(self):
        """Remapping a virtual IP (client migration) drops the old
        physical binding — the control-plane update the paper describes."""
        table = NatTable()
        table.set_mapping(CLIENT_VIRT_IP, CLIENT_PHYS_IP)
        new_phys = IPv4Address("10.0.0.99")
        table.set_mapping(CLIENT_VIRT_IP, new_phys)
        assert table.to_physical(CLIENT_VIRT_IP) == new_phys
        assert table.to_virtual(CLIENT_PHYS_IP) is None
        assert table.to_virtual(new_phys) == CLIENT_VIRT_IP

    def test_unknown_lookup_is_none(self):
        assert NatTable().to_physical(CLIENT_VIRT_IP) is None


class TestNatEcho:
    def make_design(self):
        design = NatEchoDesign(udp_port=7)
        design.map_client(CLIENT_VIRT_IP, CLIENT_PHYS_IP, CLIENT_MAC)
        return design

    def run_one(self, design, frame, cycles=3000):
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame, 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=cycles)
        return parse_frame(sink.frames[0][0])

    def test_echo_through_nat(self):
        design = self.make_design()
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_PHYS_IP,
            design.server_ip, 5555, 7, b"virtualized",
        )
        reply = self.run_one(design, frame)
        # parse_frame validates the (rewritten) UDP checksum.
        assert reply.payload == b"virtualized"
        assert reply.ip.dst == CLIENT_PHYS_IP  # translated back
        assert reply.eth.dst == CLIENT_MAC

    def test_app_sees_virtual_address(self):
        design = self.make_design()
        seen = []
        original = design.app.handle_message

        def spy(message, cycle):
            seen.append(message.metadata.ip.src)
            return original(message, cycle)

        design.app.handle_message = spy
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_PHYS_IP,
            design.server_ip, 5555, 7, b"x",
        )
        self.run_one(design, frame)
        assert seen == [CLIENT_VIRT_IP]
        assert design.nat_rx.translations == 1
        assert design.nat_tx.translations == 1

    def test_unmapped_client_passes_untranslated(self):
        design = self.make_design()
        other_ip = IPv4Address("10.0.0.77")
        design.eth_tx.add_neighbor(other_ip, CLIENT_MAC)
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, other_ip,
            design.server_ip, 5555, 7, b"x",
        )
        reply = self.run_one(design, frame)
        assert reply.ip.dst == other_ip
        assert design.nat_rx.misses == 1

    def test_migration_redirects_replies(self):
        design = self.make_design()
        new_phys = IPv4Address("10.0.0.99")
        design.map_client(CLIENT_VIRT_IP, new_phys, CLIENT_MAC)
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, new_phys,
            design.server_ip, 5555, 7, b"after-move",
        )
        reply = self.run_one(design, frame)
        assert reply.ip.dst == new_phys


class TestIpInIpEcho:
    def make_design(self):
        design = IpInIpEchoDesign(udp_port=7)
        design.add_tunnel_peer(CLIENT_VIRT_IP, CLIENT_PHYS_IP, CLIENT_MAC)
        return design

    def request(self, design, payload=b"tunneled"):
        return build_ipinip_udp_frame(
            CLIENT_MAC, design.server_mac,
            outer_src_ip=CLIENT_PHYS_IP,
            outer_dst_ip=design.server_phys_ip,
            inner_src_ip=CLIENT_VIRT_IP,
            inner_dst_ip=design.server_virt_ip,
            src_port=5555, dst_port=7, payload=payload,
        )

    def run_one(self, design, frame, cycles=3000):
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame, 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=cycles)
        return parse_frame(sink.frames[0][0])

    def test_echo_through_tunnel(self):
        design = self.make_design()
        reply = self.run_one(design, self.request(design))
        assert reply.payload == b"tunneled"
        # Reply is re-encapsulated: outer physical, inner virtual.
        assert reply.inner_ip is not None
        assert reply.ip.dst == CLIENT_PHYS_IP
        assert reply.ip.src == design.server_phys_ip
        assert reply.inner_ip.dst == CLIENT_VIRT_IP
        assert reply.inner_ip.src == design.server_virt_ip
        assert design.decap.decapsulated == 1
        assert design.encap.encapsulated == 1

    def test_unknown_tunnel_endpoint_dropped(self):
        design = self.make_design()
        frame = build_ipinip_udp_frame(
            CLIENT_MAC, design.server_mac,
            outer_src_ip=IPv4Address("10.0.0.66"),  # not a known peer
            outer_dst_ip=design.server_phys_ip,
            inner_src_ip=CLIENT_VIRT_IP,
            inner_dst_ip=design.server_virt_ip,
            src_port=5555, dst_port=7, payload=b"x",
        )
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame, 0)
        design.sim.run(1500)
        assert sink.count == 0
        assert design.decap.drops == 1

    def test_endpoint_migration(self):
        design = self.make_design()
        new_phys = IPv4Address("10.0.0.99")
        design.add_tunnel_peer(CLIENT_VIRT_IP, new_phys, CLIENT_MAC)
        reply = self.run_one(design, self.request(design))
        assert reply.ip.dst == new_phys  # replies go to the new endpoint

    def test_duplicated_ip_tiles_both_active(self):
        design = self.make_design()
        self.run_one(design, self.request(design))
        assert design.ip_rx_outer.messages_in == 1
        assert design.ip_rx_inner.messages_in == 1
        assert design.ip_tx_inner.messages_in == 1
        assert design.ip_tx_outer.messages_in == 1
