"""Dimension-ordered (XY) routing.

Beehive prevents routing-level deadlock with dimension-ordered routing
(section IV-E): a flit first travels along X to the destination column,
then along Y, so the channel dependency graph of the *routing function*
is acyclic.  (Message-level deadlock across chained tiles is the job of
:mod:`repro.analysis.deadlock`.)
"""

from __future__ import annotations

import enum


class Port(enum.Enum):
    LOCAL = "local"
    EAST = "east"
    WEST = "west"
    NORTH = "north"
    SOUTH = "south"


# Coordinate convention: x grows EAST, y grows SOUTH (row-major screen
# order, matching the paper's layout figures).


def xy_route(here: tuple[int, int], dst: tuple[int, int]) -> Port:
    """The output port a flit at ``here`` takes toward ``dst``."""
    hx, hy = here
    dx, dy = dst
    if hx < dx:
        return Port.EAST
    if hx > dx:
        return Port.WEST
    if hy < dy:
        return Port.SOUTH
    if hy > dy:
        return Port.NORTH
    return Port.LOCAL


def _step(here: tuple[int, int], port: Port) -> tuple[int, int]:
    hx, hy = here
    if port == Port.EAST:
        return (hx + 1, hy)
    if port == Port.WEST:
        return (hx - 1, hy)
    if port == Port.SOUTH:
        return (hx, hy + 1)
    if port == Port.NORTH:
        return (hx, hy - 1)
    return here


def route_path(src: tuple[int, int], dst: tuple[int, int]) -> list:
    """The full (router-coordinate, output-port) sequence from src to
    dst, ending with ``(dst, Port.LOCAL)``.  Used by the static deadlock
    analyzer to enumerate the links a wormhole message can hold."""
    path = []
    here = src
    while True:
        port = xy_route(here, dst)
        path.append((here, port))
        if port == Port.LOCAL:
            return path
        here = _step(here, port)
