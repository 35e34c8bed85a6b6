"""End-to-end traffic through XML-generated designs.

The declarative route must produce designs that are behaviourally
identical to the handwritten ones — real packets through the
Reed-Solomon and VR witness designs built from their XML files.
"""

import os

from repro.apps.reed_solomon import ReedSolomonCodec
from repro.apps.vr.tile import MSG_PREPARE, MSG_PREPARE_OK, PrepareWire
from repro.config import GeneratedDesign, design_from_xml
from repro.config.examples import RS_DESIGN_XML, VR_DESIGN_XML
from repro.designs import FrameSink
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")
SERVER_MAC = MacAddress("02:be:e0:00:00:01")
SERVER_IP = IPv4Address("10.0.0.10")


def run_until(design, sink, count, max_cycles=20_000):
    design.sim.run_until(lambda: sink.count >= count,
                         max_cycles=max_cycles)


class TestGeneratedRsDesign:
    def build(self):
        design = GeneratedDesign(design_from_xml(RS_DESIGN_XML))
        design.add_client(CLIENT_IP, CLIENT_MAC)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        return design, sink

    def test_xml_rs_design_encodes_correctly(self):
        design, sink = self.build()
        request = os.urandom(4096)
        frame = build_ipv4_udp_frame(CLIENT_MAC, SERVER_MAC,
                                     CLIENT_IP, SERVER_IP, 5555,
                                     7000, request)
        design.inject(frame, 0)
        run_until(design, sink, 1)
        reply = parse_frame(sink.frames[0][0])
        assert reply.payload == \
            ReedSolomonCodec(8, 2).encode_request(request)

    def test_xml_rs_design_round_robins(self):
        design, sink = self.build()
        frame = build_ipv4_udp_frame(CLIENT_MAC, SERVER_MAC,
                                     CLIENT_IP, SERVER_IP, 5555,
                                     7000, bytes(4096))
        for _ in range(8):
            design.inject(frame, design.sim.cycle)
        run_until(design, sink, 8)
        served = [design.tiles[f"rs{i}"].requests for i in range(4)]
        assert served == [2, 2, 2, 2]


class TestGeneratedVrDesign:
    def build(self):
        design = GeneratedDesign(design_from_xml(VR_DESIGN_XML))
        design.add_client(CLIENT_IP, CLIENT_MAC)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        return design, sink

    def test_xml_vr_design_serves_all_shards(self):
        design, sink = self.build()
        sent = 0
        for shard in range(4):
            for opnum in (1, 2):
                wire = PrepareWire(msg_type=MSG_PREPARE, view=0,
                                   opnum=opnum, shard=shard,
                                   digest=b"12345678")
                frame = build_ipv4_udp_frame(
                    CLIENT_MAC, SERVER_MAC, CLIENT_IP, SERVER_IP,
                    7000, 9000 + shard, wire.pack(),
                )
                design.inject(frame, design.sim.cycle)
                sent += 1
        run_until(design, sink, sent)
        replies = [PrepareWire.unpack(parse_frame(f).payload)
                   for f, _ in sink.frames]
        assert all(r.msg_type == MSG_PREPARE_OK for r in replies)
        for shard in range(4):
            witness = design.tiles[f"witness{shard}"]
            assert witness.state.last_opnum == 2
