"""The one synthetic client (``repro.designs.harness``): it reproduces
the pinned saturation goodputs and, frame for frame, the hand-rolled
scaffold every bench used to carry."""

import pytest

from repro import params
from repro.designs import (
    CLIENT_IP,
    CLIENT_MAC,
    FrameSink,
    FrameSource,
    UdpEchoDesign,
    attach_client,
    client_frame,
    saturation_goodput,
)
from repro.packet import build_ipv4_udp_frame, parse_frame

CYCLES = 4_000      # the echo is periodic: the 20k-cycle pins hold here
# (UDP payload, warm-up frames, Gbps at the seed commit).
PINS = [
    pytest.param(bytes(range(256)) * 5 + bytes(192), 20, 113.230769,
                 id="1472B"),
    pytest.param(bytes(64), 30, 9.846154, id="64B"),
]


def hand_rolled(profile, payload, warmup):
    """The loop as eleven bench files spelled it: (frames, Gbps)."""
    design = UdpEchoDesign(line_rate_bytes_per_cycle=None, profile=profile)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac, CLIENT_IP,
                                 design.server_ip, 5555, design.udp_port,
                                 payload)
    source = FrameSource(design.inject, lambda i: frame, rate=None)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    base = None
    for _ in range(CYCLES):
        design.sim.tick()
        if base is None and sink.count >= warmup:
            base = (sink.payload_bytes, sink.last_cycle)
    window_s = (sink.last_cycle - base[1]) * params.CYCLE_TIME_S
    return sink.frames, (sink.payload_bytes - base[0]) * 8 / window_s / 1e9


@pytest.mark.parametrize("profile", ["fast", "reference"])
@pytest.mark.parametrize("payload, warmup, pinned", PINS)
def test_saturation_goodput_is_the_hand_rolled_loop(profile, payload,
                                                    warmup, pinned):
    frames, gbps = hand_rolled(profile, payload, warmup)
    design = UdpEchoDesign(line_rate_bytes_per_cycle=None, profile=profile)
    measured = saturation_goodput(design, payload, CYCLES,
                                  warmup_frames=warmup)
    assert measured.sink.frames == frames   # same bytes, same cycles
    assert measured.gbps == gbps
    assert round(measured.gbps, 6) == pinned


def test_saturation_goodput_needs_its_warmup():
    design = UdpEchoDesign(line_rate_bytes_per_cycle=None)
    with pytest.raises(TimeoutError):
        saturation_goodput(design, bytes(64), 50, warmup_frames=30)


def test_client_frame_is_addressed_to_the_design():
    design = UdpEchoDesign(udp_port=9)
    parsed = parse_frame(client_frame(design, b"hi", src_port=1234))
    assert (parsed.eth.src, parsed.eth.dst) == \
        (CLIENT_MAC, design.server_mac)
    assert (parsed.ip.src, parsed.ip.dst) == (CLIENT_IP, design.server_ip)
    assert (parsed.udp.src_port, parsed.udp.dst_port) == (1234, 9)
    assert parsed.payload == b"hi"
    other = parse_frame(client_frame(design, b"hi", dst_port=53))
    assert other.udp.dst_port == 53


def test_attach_client_sends_ready_frames_round_robin():
    design = UdpEchoDesign()
    frames = [client_frame(design, bytes([i]) * 32, src_port=6000 + i)
              for i in range(3)]
    source, sink = attach_client(design, frames, count=7)
    design.sim.run_until(lambda: sink.count >= 7, max_cycles=10_000)
    assert source.done and source.sent == 7
    echoed = [parse_frame(frame).payload[0] for frame, _ in sink.frames]
    assert echoed == [0, 1, 2, 0, 1, 2, 0]
