"""The internal controller tile (paper section V-E).

An external controller reconfigures the stack with an RPC over the
transport layer.  This tile terminates that RPC on the data plane,
translates it into a :class:`TableUpdate` on the control NoC, waits for
the target tile's acknowledgement, and sends the confirmation response
back to the external controller — the exact sequence the paper
describes for migrating a client's virtual-to-physical IP mapping.
"""

from __future__ import annotations

import itertools
import json

from repro.control.messages import (
    ControlAck,
    CounterRead,
    CounterValue,
    TableUpdate,
)
from repro.control.plane import ControlEndpoint
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.packet.ipv4 import IPPROTO_UDP, IPv4Header
from repro.packet.udp import UdpHeader
from repro.tiles.base import NextHopTable, PacketMeta, Tile


def encode_control_rpc(target: tuple[int, int], table: str, key, value,
                       tag=None, op: str = "update") -> bytes:
    """Serialise an external controller command (wire format: JSON).

    ``op`` is ``"update"`` (rewrite a table entry) or
    ``"read_counter"`` (telemetry: ``key`` names the counter).
    """
    return json.dumps({
        "op": op,
        "target": list(target),
        "table": table,
        "key": str(key),
        "value": str(value),
        "tag": tag,
    }).encode()


def decode_control_rpc(payload: bytes) -> dict:
    command = json.loads(payload.decode())
    command["target"] = tuple(command["target"])
    return command


def encode_control_response(ok: bool, tag, detail: str = "") -> bytes:
    return json.dumps({"ok": ok, "tag": tag, "detail": detail}).encode()


def decode_control_response(payload: bytes) -> dict:
    return json.loads(payload.decode())


class InternalControllerTile(Tile):
    """Bridges external RPCs to control-NoC table updates."""

    KIND = "controller"

    DEFAULT = "default"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 endpoint: ControlEndpoint, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.endpoint = endpoint
        endpoint.on_reply = self._wake
        self.next_hop = NextHopTable(name=f"{name}.nexthop")
        self._tags = itertools.count(1)
        # internal tag -> (client PacketMeta, external tag)
        self._pending: dict[int, tuple[PacketMeta, object]] = {}
        self.rpcs_served = 0

    def handle_message(self, message: NocMessage, cycle: int):
        meta: PacketMeta = message.metadata
        if meta is None or meta.udp is None:
            return self.drop(message, "controller expects UDP RPCs")
        try:
            command = decode_control_rpc(message.data)
        except (ValueError, KeyError):
            return self.drop(message, "malformed control RPC")
        tag = next(self._tags)
        self._pending[tag] = (meta, command.get("tag"))
        if command.get("op", "update") == "read_counter":
            request = CounterRead(name=command["key"],
                                  reply_to=self.endpoint.coord, tag=tag)
            self.endpoint.send(command["target"], request)
        else:
            update = TableUpdate(
                table=command["table"],
                key=command["key"],
                value=command["value"],
                reply_to=self.endpoint.coord,
                tag=tag,
            )
            self.endpoint.send(command["target"], update)
        return []

    def _due(self) -> int | None:
        """Asleep between RPCs and the control NoC's replies to them:
        the endpoint wakes the tile when it files a reply."""
        if self.endpoint.has_replies:
            return None
        return self._engine_due()

    def on_cycle(self, cycle: int) -> None:
        for reply in self.endpoint.pop_replies():
            if isinstance(reply, ControlAck):
                body = {"ok": reply.ok, "detail": reply.detail}
            elif isinstance(reply, CounterValue):
                body = {"ok": True, "counter": reply.name,
                        "value": reply.value}
            else:
                continue
            pending = self._pending.pop(reply.tag, None)
            if pending is None:
                continue
            client_meta, external_tag = pending
            body["tag"] = external_tag
            self._respond(client_meta, body)

    def _respond(self, client_meta: PacketMeta, body: dict) -> None:
        dest = self.next_hop.lookup(self.DEFAULT)
        if dest is None:
            return
        response = PacketMeta(
            ip=IPv4Header(src=client_meta.ip.dst, dst=client_meta.ip.src,
                          protocol=IPPROTO_UDP),
            udp=UdpHeader(src_port=client_meta.udp.dst_port,
                          dst_port=client_meta.udp.src_port),
        )
        self.rpcs_served += 1
        self.send(self.make_message(dest, metadata=response,
                                    data=json.dumps(body).encode()))
