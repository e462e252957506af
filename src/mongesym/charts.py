"""Coordinate charts.

Three fixed charts are used throughout: the mixed jet space J20 with
coordinates (x, y, y1, y2, z), its z-free restriction J2, and the plane
(x, y).  Expressions and vector fields always carry the chart they live on,
and cross-chart arithmetic is rejected.  A chart has at most MAX_COORDS
coordinates, J20's five, so that every monomial is one exponent vector of
that length (see expr.Mono).
"""

from __future__ import annotations

MAX_COORDS = 5


class ChartMismatchError(ValueError):
    """Raised when two values living on different charts are combined."""


class Chart:
    __slots__ = ("name", "coords")

    def __init__(self, name: str, coords: tuple[str, ...]):
        if len(set(coords)) != len(coords):
            raise ValueError(f"duplicate coordinate in chart {name}")
        if len(coords) > MAX_COORDS:
            raise ValueError(f"chart {name} has {len(coords)} coordinates, "
                             f"more than {MAX_COORDS}")
        self.name, self.coords = name, coords

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is Chart and self.name == other.name
                                 and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.name, self.coords))

    def index(self, coord: str) -> int:
        try:
            return self.coords.index(coord)
        except ValueError:
            raise KeyError(f"{coord!r} is not a coordinate of chart {self.name}") from None

    def __contains__(self, coord: str) -> bool:
        return coord in self.coords

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return f"Chart({self.name})"


J20 = Chart("J20", ("x", "y", "y1", "y2", "z"))
J2 = Chart("J2", ("x", "y", "y1", "y2"))
PLANE = Chart("Plane", ("x", "y"))


def require_same_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatchError(f"chart mismatch: {a.chart.name} vs {b.chart.name}")
