"""Coordinate charts.

Every expression is a function on the mixed jet space J20 with coordinates
(x, y, y1, y2, z): a monomial is one exponent vector over those five (see
expr.Mono), so an expression carries no chart.  A chart is a named prefix
of J20's coordinates: J20 itself, its z-free restriction J2 and the plane
(x, y).  Charts matter in two places: a vector field has one coefficient
per coordinate of its chart, and fields on different charts are not
combined (ChartMismatchError); parse(text, chart) refuses coordinates off
the chart.
"""

from __future__ import annotations

JET_COORDS = ("x", "y", "y1", "y2", "z")


class ChartMismatchError(ValueError):
    """Raised when two values living on different charts are combined."""


class Chart:
    __slots__ = ("name", "coords")

    def __init__(self, name: str, coords: tuple[str, ...]):
        if coords != JET_COORDS[:len(coords)]:
            raise ValueError(f"chart {name}: {coords} is not a prefix of {JET_COORDS}")
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


J20 = Chart("J20", JET_COORDS)
J2 = Chart("J2", JET_COORDS[:4])
PLANE = Chart("Plane", JET_COORDS[:2])


def require_same_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatchError(f"chart mismatch: {a.chart.name} vs {b.chart.name}")
