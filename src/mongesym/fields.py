"""Vector fields and rank-2 distributions on the jet charts.

A Monge equation z' = F(x, y, y1, y2, z) determines the rank-2 distribution
spanned by

    X1 = d/dy2,
    X2 = d/dx + y1 d/dy + y2 d/dy1 + F d/dz,

the annihilator frame of {dy - y1 dx, dy1 - y2 dx, dz - F dx}.  With this
basis the chained brackets X3 = [X1, X2], X4 = [X1, X3], X5 = [X2, X3]
give X4 = F_{y2 y2} d/dz, so the five fields frame the chart exactly where
the second y2-derivative of F is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .charts import Chart, ChartMismatchError, J2, J20, PLANE, require_same_chart
from .expr import Expr, ExprError, multiply_terms
from .parser import parse, quoted


class ProjectionError(ExprError):
    """Pushforward undefined: horizontal coefficients depend on the fiber."""


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != len(self.chart):
            raise ValueError("one coefficient per chart coordinate is required")
        for c in self.coefficients:
            if c.chart != self.chart:
                raise ChartMismatchError("coefficient chart mismatch")

    @staticmethod
    def from_strings(chart: Chart, coeffs: dict) -> "VectorField":
        """Parse one coefficient string per coordinate; absent ones are 0."""
        unknown = coeffs.keys() - set(chart.coords)
        if unknown:
            raise ExprError(f"{quoted(min(unknown))} is not a coordinate of chart {chart.name}")
        texts = [coeffs.get(c, "0") for c in chart.coords]
        for c, text in zip(chart.coords, texts):
            if not isinstance(text, str):
                raise ExprError(f"the coefficient of {c} is {quoted(text)}, not a string")
        return VectorField(chart, tuple(parse(text, chart) for text in texts))

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "VectorField":
        idx = chart.index(name)
        return VectorField(chart, tuple(
            Expr.constant(chart, 1) if i == idx else Expr.zero(chart)
            for i in range(len(chart))))

    def __add__(self, other: "VectorField") -> "VectorField":
        require_same_chart(self, other)
        return VectorField(self.chart, tuple(
            a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-a for a in self.coefficients))

    def scale(self, s) -> "VectorField":
        return VectorField(self.chart, tuple(a.scale(s) for a in self.coefficients))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)

    @cached_property
    def jacobian(self) -> tuple:
        """First partials: jacobian[i][j] = d(coefficient i)/d(coordinate j)."""
        return tuple(
            tuple(c.diff(u) if c.terms else c for u in self.chart.coords)
            for c in self.coefficients)

    @cached_property
    def integer_form(self) -> tuple:
        """The field as (numerators, den): integer numerators over den, the
        lcm of the coefficients' denominators, keyed by canonical-form
        (direction, monomial, atoms)."""
        den = math.lcm(*(e.den for e in self.coefficients))
        return ({(i, t.monomial, t.atoms): t.numerator * (den // e.den)
                 for i, e in enumerate(self.coefficients) for t in e.terms}, den)

    def to_json(self) -> dict:
        return {"chart": self.chart.name,
                "coefficients": {c: str(e) for c, e in zip(self.chart.coords, self.coefficients)}}

    def __str__(self) -> str:
        parts = []
        for c, e in zip(self.chart.coords, self.coefficients):
            if e.is_zero():
                continue
            parts.append(f"({e})*d/d{c}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[V, W]_i = sum_j (V_j dW_i/du_j - W_j dV_i/du_j).

    The products of both sums are gathered as terms over one denominator
    per component, the lcm of the products' denominators, and each
    component is normalized once; only the products that are not canonical
    as they stand go through the canonicalizer.
    """
    require_same_chart(v, w)
    pairs = [(a, column, sign)
             for x, y, sign in ((v, w, 1), (w, v, -1))
             for a, column in zip(x.coefficients, zip(*y.jacobian)) if a.terms]
    dens = [1] * len(v.coefficients)
    for a, column, _ in pairs:
        for i, partial in enumerate(column):
            if partial.terms:
                dens[i] = math.lcm(dens[i], a.den * partial.den)
    ready = [[] for _ in v.coefficients]
    raw = [[] for _ in v.coefficients]
    for a, column, sign in pairs:
        for i, partial in enumerate(column):
            if partial.terms:
                multiply_terms(ready[i], raw[i], a.terms, partial.terms,
                               sign * (dens[i] // (a.den * partial.den)))
    return VectorField(v.chart, tuple(Expr.from_raw(v.chart, r, c, d)
                                      for r, c, d in zip(raw, ready, dens)))


@dataclass(frozen=True)
class MongeEquation:
    F: Expr

    def __post_init__(self):
        if self.F.chart != J20:
            raise ChartMismatchError("a Monge right-hand side lives on J20")

    def __str__(self) -> str:
        return f"z' = {self.F}"


@dataclass(frozen=True)
class Distribution2:
    X1: VectorField
    X2: VectorField
    equation: MongeEquation


def distribution_from_monge(m: MongeEquation) -> Distribution2:
    zero = Expr.zero(J20)
    one = Expr.constant(J20, 1)
    x1 = VectorField(J20, (zero, zero, zero, one, zero))
    x2 = VectorField(J20, (one,
                           Expr.coordinate(J20, "y1"),
                           Expr.coordinate(J20, "y2"),
                           zero,
                           m.F))
    return Distribution2(x1, x2, m)


def genericity_hessian(m: MongeEquation) -> Expr:
    return m.F.diff("y2").diff("y2")


def frame_fields(d: Distribution2):
    x3 = lie_bracket(d.X1, d.X2)
    x4 = lie_bracket(d.X1, x3)
    x5 = lie_bracket(d.X2, x3)
    return (d.X1, d.X2, x3, x4, x5)


def _det(matrix):
    """Exact determinant by expansion along the sparsest row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    counts = [sum(0 if e.is_zero() else 1 for e in row) for row in matrix]
    r = counts.index(min(counts))
    chart = matrix[0][0].chart
    total = Expr.zero(chart)
    for c, entry in enumerate(matrix[r]):
        if entry.is_zero():
            continue
        minor = [[row[j] for j in range(n) if j != c]
                 for i, row in enumerate(matrix) if i != r]
        cofactor = _det(minor)
        term = entry * cofactor
        if (r + c) % 2:
            term = -term
        total = total + term
    return total


def frame_determinant(d: Distribution2, frame=None) -> Expr:
    """The determinant of the frame's coefficients; frame is
    frame_fields(d), computed here unless given."""
    rows = [list(f.coefficients) for f in frame or frame_fields(d)]
    return _det(rows)


@dataclass(frozen=True)
class MembershipWitness:
    alpha: Expr
    beta: Expr


def membership_residuals(v: VectorField, d: Distribution2):
    """The three functions whose joint vanishing puts v inside the distribution."""
    vx, vy, vy1, vy2, vz = v.coefficients
    y1 = Expr.coordinate(J20, "y1")
    y2 = Expr.coordinate(J20, "y2")
    return (vy - y1 * vx, vy1 - y2 * vx, vz - d.equation.F * vx)


def in_distribution(v: VectorField, d: Distribution2):
    """Witness (alpha, beta) with v = alpha*X1 + beta*X2, or None."""
    if v.chart != J20:
        raise ChartMismatchError("membership is tested on J20")
    r1, r2, r3 = membership_residuals(v, d)
    if r1.is_zero() and r2.is_zero() and r3.is_zero():
        return MembershipWitness(alpha=v.coefficients[3], beta=v.coefficients[0])
    return None


@dataclass(frozen=True)
class SymmetryReport:
    ok: bool
    residuals: tuple  # six expressions: three per bracket with X1, X2


def symmetry_residuals(s: VectorField, d: Distribution2):
    b1 = lie_bracket(s, d.X1)
    b2 = lie_bracket(s, d.X2)
    return membership_residuals(b1, d) + membership_residuals(b2, d)


def is_symmetry(s: VectorField, d: Distribution2) -> SymmetryReport:
    """True iff [s, X1] and [s, X2] both stay inside the distribution."""
    res = symmetry_residuals(s, d)
    return SymmetryReport(all(r.is_zero() for r in res), res)


# ---------------------------------------------------------------------------
# projection to J2 and prolongation from the plane
# ---------------------------------------------------------------------------

def _carry_terms(e: Expr, target: Chart) -> Expr:
    """The terms of e on a chart that shares its leading coordinates.

    PLANE is a prefix of J2 and J2 a prefix of J20, so coordinate indices
    carry over unchanged, and with them the canonical terms and their order.
    """
    shared = min(len(e.chart), len(target))
    if e.chart.coords[:shared] != target.coords[:shared]:
        raise ChartMismatchError(
            f"charts {e.chart.name} and {target.name} share no coordinate prefix")
    return Expr(target, e.terms, e.den)


def restrict_chart(e: Expr, target: Chart) -> Expr:
    """Reinterpret an expression on a sub-chart with the same coordinate names."""
    used = {e.chart.coords[i] for i in e.coordinates_used()}
    extra = used - set(target.coords)
    if extra:
        raise ProjectionError(f"expression depends on {sorted(extra)}")
    return _carry_terms(e, target)

def extend_chart(e: Expr, target: Chart) -> Expr:
    missing = set(e.chart.coords) - set(target.coords)
    if missing:
        raise ChartMismatchError(f"target chart lacks {sorted(missing)}")
    return _carry_terms(e, target)


def project_to_j2(v: VectorField) -> VectorField:
    """Pushforward along (x, y, y1, y2, z) -> (x, y, y1, y2).

    Defined only when the four horizontal coefficients are z-free.
    """
    if v.chart != J20:
        raise ChartMismatchError("projection starts on J20")
    horizontal = v.coefficients[:4]
    zidx = J20.index("z")
    for c in horizontal:
        if zidx in c.coordinates_used():
            raise ProjectionError(f"coefficient {c} depends on z; pushforward undefined")
    return VectorField(J2, tuple(restrict_chart(c, J2) for c in horizontal))


def total_derivative_truncated(f: Expr) -> Expr:
    """Dx = d/dx + y1 d/dy + y2 d/dy1 acting on functions of (x, y, y1[, y2])."""
    if f.chart != J2:
        raise ChartMismatchError("the truncated total derivative acts on J2")
    y1 = Expr.coordinate(J2, "y1")
    y2 = Expr.coordinate(J2, "y2")
    return f.diff("x") + y1 * f.diff("y") + y2 * f.diff("y1")


def prolong_plane_field(xi: Expr, eta: Expr) -> VectorField:
    """Second prolongation of xi d/dx + eta d/dy from the plane to J2."""
    if xi.chart != PLANE or eta.chart != PLANE:
        raise ChartMismatchError("plane components expected")
    xi2 = extend_chart(xi, J2)
    eta2 = extend_chart(eta, J2)
    dxi = total_derivative_truncated(xi2)
    eta_1 = total_derivative_truncated(eta2) - Expr.coordinate(J2, "y1") * dxi
    eta_2 = total_derivative_truncated(eta_1) - Expr.coordinate(J2, "y2") * dxi
    return VectorField(J2, (xi2, eta2, eta_1, eta_2))
