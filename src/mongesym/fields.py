"""Vector fields and rank-2 distributions on the jet charts.

A vector field carries its chart: one coefficient per coordinate of the
chart, each an expression, which carries none.  Fields on different charts
do not combine (ChartMismatchError).  The fields of a Monge equation live on
J20; project_to_j2 pushes one forward to J2, where prolong_plane_field puts
the second prolongation of a plane field.

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
import time
from functools import cached_property
from typing import NamedTuple

from .charts import Chart, ChartMismatchError, J2, J20, require_same_chart
from .expr import EXPR_ONE, Expr, ExprError, multiply_terms
from .parser import parse, quoted


class ProjectionError(ExprError):
    """Pushforward undefined: horizontal coefficients depend on the fiber."""


_ZERO = Expr.zero()


class VectorField:
    def __init__(self, chart: Chart, coefficients: tuple):
        if len(coefficients) != len(chart):
            raise ValueError("one coefficient per chart coordinate is required")
        self.chart, self.coefficients = chart, coefficients
        self._partials, self._used = {}, {}

    def __eq__(self, other) -> bool:
        return (type(other) is VectorField and self.chart == other.chart
                and self.coefficients == other.coefficients)

    def __hash__(self) -> int:
        return hash((self.chart, self.coefficients))

    @staticmethod
    def from_strings(chart: Chart, coeffs: dict) -> "VectorField":
        """Parse one coefficient string per coordinate; absent ones are 0."""
        unknown = coeffs.keys() - set(chart.coords)
        if unknown:
            raise ExprError(f"{quoted(min(unknown))} is not a coordinate of chart {chart.name}")
        for c in chart.coords:
            if c in coeffs and not isinstance(coeffs[c], str):
                raise ExprError(f"the coefficient of {c} is {quoted(coeffs[c])}, not a string")
        return VectorField(chart, tuple(parse(coeffs[c], chart) if c in coeffs
                                        else Expr.zero() for c in chart.coords))

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "VectorField":
        idx = chart.index(name)
        return VectorField(chart, tuple(
            Expr.constant(1) if i == idx else Expr.zero()
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

    def partial(self, i: int, j: int) -> Expr:
        """d(coefficient i)/d(coordinate j), taken the first time it is read
        and kept on the field.  The coordinates a coefficient uses are read
        once (Expr.coordinates_used); along any other the partial is the
        shared zero, and nothing is differentiated."""
        p = self._partials.get((i, j))
        if p is None:
            c = self.coefficients[i]
            used = self._used.get(i)
            if used is None:
                used = self._used[i] = c.coordinates_used()
            p = self._partials[i, j] = c.diff(self.chart.coords[j]) if j in used else _ZERO
        return p

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


def _gather(products) -> Expr:
    """The sum of sign * a * b over the (sign, a, b) products, gathered as
    terms over the lcm of the products' denominators and normalized once;
    only the products that are not canonical as they stand go through the
    canonicalizer.  A product with a zero factor is not formed, and a unit
    a takes no product: b's terms go in as they stand."""
    products = [p for p in products if p[1].terms and p[2].terms]
    den = math.lcm(*(a.den * b.den for _, a, b in products))
    ready, raw = [], []
    for sign, a, b in products:
        k = sign * (den // (a.den * b.den))
        if a == EXPR_ONE:
            ready.extend(b.terms if k == 1 else [(c * k, m, t) for c, m, t in b.terms])
        else:
            multiply_terms(ready, raw, a.terms, b.terms, k)
    return Expr.from_raw(raw, ready, den)


def _bracket_component(v: VectorField, w: VectorField, i: int) -> Expr:
    """[V, W]_i = sum_j (V_j dW_i/du_j - W_j dV_i/du_j), one gathered sum
    (_gather) of the products of both sums; a partial is read only where the
    coefficient it multiplies is nonzero."""
    return _gather([*((1, a, w.partial(i, j)) for j, a in enumerate(v.coefficients) if a.terms),
                    *((-1, a, v.partial(i, j)) for j, a in enumerate(w.coefficients) if a.terms)])


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    require_same_chart(v, w)
    return VectorField(v.chart, tuple(_bracket_component(v, w, i)
                                      for i in range(len(v.chart))))


class MongeEquation:
    def __init__(self, F: Expr):
        self.F = F

    def __eq__(self, other) -> bool:
        return type(other) is MongeEquation and self.F == other.F

    def __hash__(self) -> int:
        return hash(self.F)

    def __str__(self) -> str:
        return f"z' = {self.F}"

    __repr__ = __str__


class Distribution2(NamedTuple):
    X1: VectorField
    X2: VectorField
    equation: MongeEquation


def distribution_from_monge(m: MongeEquation) -> Distribution2:
    zero, one = Expr.zero(), Expr.constant(1)
    x1 = VectorField(J20, (zero, zero, zero, one, zero))
    x2 = VectorField(J20, (one, Expr.coordinate("y1"), Expr.coordinate("y2"), zero, m.F))
    return Distribution2(x1, x2, m)


def genericity_hessian(m: MongeEquation) -> Expr:
    return m.F.diff("y2").diff("y2")


def _det(matrix):
    """Exact determinant by expansion along the sparsest row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    counts = [sum(0 if e.is_zero() else 1 for e in row) for row in matrix]
    r = counts.index(min(counts))
    total = Expr.zero()
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


class StageTimer:
    """Seconds per named stage: lap(stage) adds the time since the previous
    lap, or since the timer was made, to that stage."""

    def __init__(self):
        self.stages = {}
        self._clock = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        self.stages[stage] = self.stages.get(stage, 0) + now - self._clock
        self._clock = now

    def rounded(self) -> dict:
        """The stage seconds, rounded to the microsecond: a verify or
        genericity stage takes a fraction of a millisecond."""
        return {k: round(v, 6) for k, v in self.stages.items()}


def frame_determinant(d: Distribution2, timer=None) -> Expr:
    """The determinant of the frame's coefficients.  _det expands it along
    X1's row (its y2 column) and then X4's (its z column), or stops at X4's
    zero row, so X5's y2 and z entries, the costly ones, are never read: they
    are left zero, which keeps that order, and only X5's x, y and y1 entries
    are computed.  timer, when given, laps "frame_s" after the rows."""
    x3 = lie_bracket(d.X1, d.X2)
    x4 = lie_bracket(d.X1, x3)
    zero = Expr.zero()
    x5 = [*(_bracket_component(d.X2, x3, i) for i in range(3)), zero, zero]
    rows = [list(f.coefficients) for f in (d.X1, d.X2, x3, x4)] + [x5]
    if timer is not None:
        timer.lap("frame_s")
    return _det(rows)


class MembershipWitness(NamedTuple):
    alpha: Expr
    beta: Expr


def membership_residuals(v: VectorField, d: Distribution2):
    """The three functions whose joint vanishing puts v inside the
    distribution: vy - y1*vx, vy1 - y2*vx and vz - F*vx, each one gathered
    sum."""
    one, y1, y2, _, F = d.X2.coefficients
    vx, vy, vy1, _, vz = v.coefficients
    return tuple(_gather([(1, one, c), (-1, x2, vx)])
                 for c, x2 in ((vy, y1), (vy1, y2), (vz, F)))


def in_distribution(v: VectorField, d: Distribution2):
    """Witness (alpha, beta) with v = alpha*X1 + beta*X2, or None."""
    if v.chart != J20:
        raise ChartMismatchError("membership is tested on J20")
    r1, r2, r3 = membership_residuals(v, d)
    if r1.is_zero() and r2.is_zero() and r3.is_zero():
        return MembershipWitness(alpha=v.coefficients[3], beta=v.coefficients[0])
    return None


class SymmetryReport(NamedTuple):
    ok: bool
    residuals: tuple  # six expressions: three per bracket with X1, X2


def symmetry_residuals(s: VectorField, d: Distribution2):
    """The membership residuals of [S, X1] and then of [S, X2], in closed
    form; residual 3k + r is residual r of the bracket with X_{k+1}.

    With S = (xi, eta, eta1, eta2, zeta), D = X2 and subscripts for partials,
    X1 = d/dy2 gives [S, X1] = -dS/dy2, and

        r0 = y1*xi_y2 - eta_y2         r3 = eta1 - D(eta) + y1*D(xi)
        r1 = y2*xi_y2 - eta1_y2        r4 = eta2 - D(eta1) + y2*D(xi)
        r2 = F*xi_y2 - zeta_y2         r5 = S(F) - D(zeta) + F*D(xi)

    where S(F) = sum_j S_j F_{u_j}.  D(xi) is normalized once; every residual
    is one gathered sum (_gather) of products of S's partials, the
    coefficients of X2 and X2's partials (F's).  A partial of S is read only
    where a formula uses it, so eta2's never, and only along y2 or where
    X2's coefficient is nonzero; a partial of X2 only where S's coefficient
    is nonzero.
    """
    require_same_chart(s, d.X2)
    x2, y2 = d.X2.coefficients, J20.index("y2")
    live = [j for j, a in enumerate(x2) if a.terms]  # the nonzero coefficients of X2
    d_xi = _gather([(1, x2[j], s.partial(0, j)) for j in live])
    # i = 1, 2, 4 are the components y, y1, z, and x2[i] is y1, y2, F
    return (*(_gather([(1, x2[i], s.partial(0, y2)), (-1, x2[0], s.partial(i, y2))])
              for i in (1, 2, 4)),
            *(_gather([*((1, a, d.X2.partial(i, j)) for j, a in enumerate(s.coefficients)
                         if a.terms),
                       *((-1, x2[j], s.partial(i, j)) for j in live), (1, x2[i], d_xi)])
              for i in (1, 2, 4)))


def is_symmetry(s: VectorField, d: Distribution2) -> SymmetryReport:
    """True iff [s, X1] and [s, X2] both stay inside the distribution."""
    res = symmetry_residuals(s, d)
    return SymmetryReport(all(r.is_zero() for r in res), res)


# ---------------------------------------------------------------------------
# projection to J2 and prolongation from the plane
# ---------------------------------------------------------------------------

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
    return VectorField(J2, horizontal)


def total_derivative_truncated(f: Expr) -> Expr:
    """Dx = d/dx + y1 d/dy + y2 d/dy1 acting on functions of (x, y, y1[, y2])."""
    return (f.diff("x") + Expr.coordinate("y1") * f.diff("y")
            + Expr.coordinate("y2") * f.diff("y1"))


def prolong_plane_field(xi: Expr, eta: Expr) -> VectorField:
    """Second prolongation of xi d/dx + eta d/dy, xi and eta functions of
    (x, y), from the plane to J2."""
    dxi = total_derivative_truncated(xi)
    eta_1 = total_derivative_truncated(eta) - Expr.coordinate("y1") * dxi
    eta_2 = total_derivative_truncated(eta_1) - Expr.coordinate("y2") * dxi
    return VectorField(J2, (xi, eta, eta_1, eta_2))
