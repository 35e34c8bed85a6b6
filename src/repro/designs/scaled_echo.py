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

from repro.config.schema import DesignSpec
from repro.designs.stack import (
    ShippedDesign,
    design_spec,
    path,
    stack_tiles,
    tile,
)

_STACK_COORDS = {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)}


class ScaledEchoDesign(ShippedDesign):
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

    @classmethod
    def spec(cls, n_apps: int = 22, udp_port: int = 7,
             line_rate_bytes_per_cycle: float | None = None,
             width: int | None = None, height: int | None = None,
             app_coords: list[tuple[int, int]] | None = None,
             ) -> DesignSpec:
        width = cls.WIDTH if width is None else width
        height = cls.HEIGHT if height is None else height
        if width < 3 or height < 2 or width * height < 7:
            raise ValueError("the stack needs at least 3 columns, 2 rows "
                             "and 7 sites (six stack tiles plus one app)")
        max_apps = width * height - 6
        if not 1 <= n_apps <= max_apps:
            raise ValueError(
                f"this layout hosts 1-{max_apps} app tiles"
            )
        # App placement: the default fills every non-stack coordinate
        # row-major; an explicit ``app_coords`` pins replicas to chosen
        # sites (e.g. the far-east columns, which spreads transit
        # evenly over every column).  Either way the XY east-then-south
        # / west-then-north discipline is re-verified at build.
        if app_coords is None:
            app_coords = [
                (x, y)
                for y in range(height)
                for x in range(width)
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
                if coord in _STACK_COORDS:
                    raise ValueError(
                        f"app at {coord} collides with a stack tile")
                if not (0 <= coord[0] < width
                        and 0 <= coord[1] < height):
                    raise ValueError(f"app at {coord} is off-mesh")
            if len(app_coords) < n_apps:
                raise ValueError(
                    f"{n_apps} apps need {n_apps} app_coords, "
                    f"got {len(app_coords)}")
        apps = [tile(f"app{i}", "echo_app", app_coords[i],
                     {"default": ["udp_tx"]}) for i in range(n_apps)]
        # One port, N replicas: the flow-hash table spreads clients.
        rx, tx = stack_tiles({f"port:{udp_port}": [app.name for app in apps]},
                             line_rate_bytes_per_cycle)
        return design_spec("scaled_echo", width, height,
                           [*path(*rx), *path(*tx)[::-1], *apps],
                           [[*rx, app, *tx] for app in apps])

    @property
    def apps(self) -> list:
        return self.tiles_named("app")

    @property
    def n_apps(self) -> int:
        return len(self.apps)

    @property
    def width(self) -> int:
        return self.mesh.width

    @property
    def height(self) -> int:
        return self.mesh.height

    @property
    def total_tiles(self) -> int:
        return len(self.tiles)
