"""Shared test utilities: random expression generation and independent oracles.

The linear-algebra oracles run on sympy, so they share no code with the
package's elimination engine; a test that reaches one skips without sympy.
"""

from __future__ import annotations

import importlib.util
import math
import os
import random
import sys
from bisect import bisect_left
from collections import deque
from fractions import Fraction

import pytest

from mongesym import liealg
from mongesym.catalog import EQUIAFFINE
from mongesym.charts import J20, PLANE, require_same_chart
from mongesym.expr import (MAX_POWER_PRODUCTS, ONE_MONO, ExpAtom, Expr, ExprError,
                           LnAtom, NonRationalPowerError, PowerAtom, _canonical_term,
                           _exp_text, _sum, _unit_coord_index, mono_key, mono_mul,
                           shortened)
from mongesym.fields import (VectorField, distribution_from_monge,
                             lie_bracket, symmetry_residuals)
from mongesym.linalg import KeyedSpan, SparseEchelon, sparse_nullspace
from mongesym.parser import MAX_NESTING, ParseError, parse, quoted
from mongesym.solver import (AnsatzSpec, UnknownBasis, build_ansatz,
                             compile_operator, determining_equations,
                             monomials_up_to)


PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def perfbench_module(name: str):
    """perfbench/<name>.py as a fresh module named _<name>, loaded without
    writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def sparse(vector) -> dict:
    """A dense vector's nonzero entries as {column: entry}: the form of the
    vectors solver.nullspace gives and linalg.canonical_basis and
    Ansatz.assemble take."""
    return {c: x for c, x in enumerate(vector) if x}


# ---------------------------------------------------------------------------
# exact linear algebra on sympy
# ---------------------------------------------------------------------------

def sympy_matrix(rows, ncols: int):
    sympy = pytest.importorskip("sympy")

    def entry(i, j):
        v = Fraction(rows[i][j])
        return sympy.Rational(v.numerator, v.denominator)
    return sympy.Matrix(len(rows), ncols, entry)


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def reference_rref(rows, ncols: int):
    """sympy's reduced row echelon form: (nonzero rows as Fraction tuples,
    pivot columns)."""
    reduced, pivots = sympy_matrix(rows, ncols).rref()
    return ([tuple(_fraction(x) for x in reduced.row(i)) for i in range(len(pivots))],
            list(pivots))


def reference_canonical_basis(vectors):
    """sympy's reduced row echelon form of independent integer vectors over
    reversed columns, read forwards: primitive integer tuples ordered by
    pivot, which is each vector's largest column."""
    n = len(vectors[0])
    reduced, _ = reference_rref([v[::-1] for v in vectors], n)
    basis = []
    for row in reduced:
        denom = math.lcm(*(x.denominator for x in row))
        ints = [int(x * denom) for x in row[::-1]]
        g = math.gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return sorted(basis, key=lambda v: max(c for c, x in enumerate(v) if x))


def reference_nullspace(rows, ncols: int):
    """sympy's nullspace basis, as Fraction tuples."""
    return [tuple(_fraction(x) for x in v)
            for v in sympy_matrix(rows, ncols).nullspace()]


def reference_solve(rows, rhs, ncols: int):
    """The solution of rows * x = rhs with every free variable zero, or None
    when the system is inconsistent."""
    reduced, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)],
                                     ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[ncols]
    return x


def reference_sparse_nullspace(rows, ncols: int):
    """(rank, basis) as sparse_nullspace gives them, by an elimination
    without presolve: every nonzero row, integerized through Fraction and
    inserted shortest-first, then one Fraction back-substitution per free
    column, scaled to a primitive vector positive at that column."""
    echelon = SparseEchelon()
    int_rows = []
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        if row:
            denom = math.lcm(*(v.denominator for v in row.values()))
            int_rows.append({c: int(v * denom) for c, v in row.items()})
    for row in sorted(int_rows, key=lambda r: (len(r), min(r), sorted(r.items()))):
        echelon.insert(row)
    basis = []
    for f in range(ncols):
        if f in echelon.pivots:
            continue
        x = {f: Fraction(1)}
        for p in sorted(echelon.pivots, reverse=True):
            if p < f:
                row = echelon.pivots[p]
                x[p] = -Fraction(sum(v * x.get(c, 0) for c, v in row.items()
                                     if c != p), row[p])
        denom = math.lcm(*(v.denominator for v in x.values()))
        ints = [int(x.get(c, 0) * denom) for c in range(ncols)]
        g = math.gcd(*ints)
        basis.append(tuple(v // g for v in ints))
    return echelon.rank, basis


def reference_symmetric_signature(matrix):
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational matrix by
    exact congruence diagonalization, the routine linalg.symmetric_signature
    replaced: a nonzero diagonal pivot when there is one, else an
    off-diagonal entry folded onto the diagonal."""
    a = [list(map(Fraction, row)) for row in matrix]
    n = len(a)
    plus = minus = zero = 0
    active = list(range(n))
    while active:
        k = next((i for i in active if a[i][i]), None)
        if k is None:
            found = next(((i, j) for i in active for j in active
                          if i != j and a[i][j]), None)
            if found is None:
                zero += len(active)
                break
            i, j = found
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            continue
        d = a[k][k]
        if d > 0:
            plus += 1
        else:
            minus += 1
        active.remove(k)
        for i in active:
            if a[i][k]:
                f = a[i][k] / d
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return plus, minus, zero


def reference_root_signature(matrix):
    """(n_plus, n_minus, n_zero) as sympy's exact count of the
    characteristic polynomial's positive, negative and zero roots, with
    multiplicity: count_roots counts distinct roots, so it runs on each
    square-free factor, and 0 is a simple root of a factor it lies on."""
    sympy = pytest.importorskip("sympy")
    n = len(matrix)
    t = sympy.Symbol("t")
    p = sympy.Poly(sympy_matrix(matrix, n).charpoly(t).as_expr(), t)
    counts = [0, 0, 0]
    for factor, m in p.sqf_list()[1]:
        at_zero = int(factor.eval(0) == 0)
        counts[0] += m * (factor.count_roots(0, None) - at_zero)
        counts[1] += m * (factor.count_roots(None, 0) - at_zero)
        counts[2] += m * at_zero
    assert sum(counts) == n  # a symmetric matrix has only real eigenvalues
    return tuple(counts)


def field_rank(fields) -> int:
    """sympy's rank of vector fields, each a row over the (direction,
    monomial, atoms) keys of its coefficients."""
    keys: dict = {}
    rows = []
    for f in fields:
        row = {}
        for i, e in enumerate(f.coefficients):
            for k, t in enumerate(e.terms):
                row[keys.setdefault((i, t.monomial, t.atoms), len(keys))] = e.coefficient(k)
        rows.append(row)
    if not rows:
        return 0
    return sympy_matrix([[row.get(j, 0) for j in range(len(keys))] for row in rows],
                        len(keys)).rank()


def primitive_row(row: dict) -> dict:
    """A rational row scaled to primitive integers, positive at its lowest
    column; a zero row gives {}."""
    row = {c: Fraction(v) for c, v in row.items() if v}
    if not row:
        return {}
    denom = math.lcm(*(v.denominator for v in row.values()))
    ints = {c: int(v * denom) for c, v in row.items()}
    g = math.gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return {c: v // g for c, v in ints.items()}


# ---------------------------------------------------------------------------
# polynomials as (monomial, coefficient) pairs: the separate arithmetic that
# atom bases and arguments once had, kept as a reference for the term
# operations that replaced it
# ---------------------------------------------------------------------------

def pair_form(e) -> tuple:
    """An atom-free Expr as (monomial, Fraction coefficient) pairs."""
    return tuple((m, Fraction(c, e.den)) for c, m, _ in e.terms)


def _pairs_sorted(d: dict) -> tuple:
    items = [(m, c) for m, c in d.items() if c]
    items.sort(key=lambda mc: mono_key(mc[0]), reverse=True)
    return tuple(items)


def pair_add(a, b) -> tuple:
    d = dict(a)
    for m, c in b:
        d[m] = d.get(m, Fraction(0)) + c
    return _pairs_sorted(d)


def pair_mul(a, b) -> tuple:
    d: dict = {}
    for m1, c1 in a:
        for m2, c2 in b:
            m = mono_mul(m1, m2)
            d[m] = d.get(m, Fraction(0)) + c1 * c2
    return _pairs_sorted(d)


def pair_pow(a, k: int) -> tuple:
    out = ((ONE_MONO, Fraction(1)),)
    for _ in range(k):
        out = pair_mul(out, a)
    return out


def pair_diff(a, idx: int) -> tuple:
    return tuple((m[:idx] + (m[idx] - 1,) + m[idx + 1:], c * m[idx])
                 for m, c in a if m[idx])


def pair_eval(a, values) -> Fraction:
    total = Fraction(0)
    for m, c in a:
        v = c
        for x, e in zip(values, m):
            v *= Fraction(x) ** e
        total += v
    return total


# ---------------------------------------------------------------------------
# a Fraction reference for the integer-over-denominator form
# ---------------------------------------------------------------------------

def fraction_text(e) -> str:
    """str(e) as a printer on Fraction coefficients gives it: each term's
    coefficient is Fraction(numerator, den), printed by Fraction itself."""

    def sum_text(form, unit_minus):
        if not form.terms:
            return "0"
        pieces = []
        for n, (c, m, atoms) in enumerate(form.terms):
            c = Fraction(c, form.den)
            factors = [name if k == 1 else name + _exp_text(k)
                       for name, k in zip(J20.coords, m) if k]
            factors += [atom_text(a) for a in atoms]
            unit = abs(c) == 1 and factors
            body = "*".join(factors if unit else [str(abs(c))] + factors)
            if n == 0:
                pieces.append((unit_minus if unit else "-") + body if c < 0 else body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def atom_text(a):
        if isinstance(a, PowerAtom):
            idx = _unit_coord_index(a.base)
            base = J20.coords[idx] if idx is not None else f"({sum_text(a.base, '-')})"
            return base + _exp_text(a.exponent)
        name = "exp" if isinstance(a, ExpAtom) else "ln"
        return f"{name}({sum_text(a.argument, '-')})"

    return sum_text(e, "-1*")


def to_sympy(e):
    """An Expr as a sympy expression, term by term, each coefficient
    sympy.Rational(numerator, den)."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(J20.coords)
    total = sympy.Integer(0)
    for c, m, atoms in e.terms:
        v = sympy.Rational(c, e.den)
        for x, k in zip(xs, m):
            v *= x ** k
        for a in atoms:
            if isinstance(a, PowerAtom):
                q = a.exponent
                v *= to_sympy(a.base) ** sympy.Rational(q.numerator, q.denominator)
            elif isinstance(a, ExpAtom):
                v *= sympy.exp(to_sympy(a.argument))
            else:
                v *= sympy.log(to_sympy(a.argument))
        total += v
    return total


def assert_lowest_terms(e) -> None:
    """The integer form's invariant on an Expr and on every atom's base or
    argument: den > 0, gcd(den, every numerator) = 1, and zero has den 1."""
    nums = [c for c, _, _ in e.terms]
    assert type(e.den) is int and e.den > 0, e
    assert all(type(c) is int and c for c in nums), e
    assert math.gcd(e.den, *nums) == 1, e
    for _, _, atoms in e.terms:
        for a in atoms:
            assert_lowest_terms(a.base if isinstance(a, PowerAtom) else a.argument)


# ---------------------------------------------------------------------------
# the character scanner and parser that the token parser replaced: a
# reference for parse's results and errors
# ---------------------------------------------------------------------------

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def read_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return self.integer(start, digits)

    def integer(self, start: int, digits: int) -> int:
        limit = sys.get_int_max_str_digits()
        if limit and self.pos - digits > limit:
            raise ParseError(f"integer literal of {self.pos - digits} digits, "
                             f"more than the {limit} Python converts", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            raise ParseError(f"invalid integer literal {quoted(self.text[start:self.pos])}",
                             start) from None

    def read_rational(self):
        num = self.read_integer()
        save = self.pos
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise ParseError("expected a positive integer denominator", start)
            den = self.integer(start, start)
            if den == 0:
                raise ParseError("zero denominator", start)
            return Fraction(num, den)
        self.pos = save
        return num

    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (self.text[self.pos].isalpha()
                                          or self.text[self.pos] == "_"):
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
        if self.pos == start:
            raise ParseError("expected an identifier", start)
        return self.text[start:self.pos]


class _Parser:
    """Every literal, coordinate and term an Expr, each product taken as it
    is read and each sum added up with expr._sum."""

    def __init__(self, text: str, chart):
        self.s = _Scanner(text)
        self.chart = chart
        self.depth = 0

    def parse(self) -> Expr:
        e = self.expr()
        if self.s.peek() != "":
            raise ParseError(f"unexpected {self.s.peek()!r}", self.s.pos)
        return e

    def expr(self) -> Expr:
        ch = self.s.peek()
        if ch == "-" and not self._starts_number():
            self.s.pos += 1
            parts = [-self.term()]
        else:
            if ch == "+":
                self.s.pos += 1
            parts = [self.term()]
        while True:
            ch = self.s.peek()
            if ch == "+":
                self.s.pos += 1
                parts.append(self.term())
            elif ch == "-":
                self.s.pos += 1
                parts.append(-self.term())
            elif len(parts) == 1:
                return parts[0]
            else:
                return _sum(parts)

    def _starts_number(self) -> bool:
        self.s.skip_ws()
        p, t = self.s.pos, self.s.text
        if p < len(t) and t[p] == "-":
            p += 1
        return p < len(t) and t[p].isdigit()

    def term(self) -> Expr:
        e = self.factor()
        while self.s.peek() == "*":
            pos = self.s.pos
            self.s.pos += 1
            f = self.factor()
            if len(e.terms) * len(f.terms) > MAX_POWER_PRODUCTS:
                raise ParseError(f"product too large: multiplying {len(e.terms)} by "
                                 f"{len(f.terms)} terms takes over {MAX_POWER_PRODUCTS} "
                                 "products", pos)
            e = e * f
        return e

    def factor(self) -> Expr:
        glued = self.s.peek() == "-"  # a literal's sign: -3^2 is -(3^2)
        base = self.base()
        if self.s.peek() == "^":
            self.s.pos += 1
            q = self.exponent()
            base = -base if glued else base
            try:
                return -base ** q if glued else base ** q
            except NonRationalPowerError:
                raise ParseError(
                    f"non-rational literal power ({shortened(str(base))})^({shortened(str(q))})",
                    self.s.pos) from None
            except ExprError as exc:
                raise ParseError(str(exc), self.s.pos) from None
        return base

    def exponent(self):
        if self.s.peek() == "(":
            self.s.expect("(")
            q = self.s.read_rational()
            self.s.expect(")")
            return q
        return self.s.read_rational()

    def parenthesized(self) -> Expr:
        pos = self.s.pos
        self.s.expect("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", pos)
        e = self.expr()
        self.s.expect(")")
        self.depth -= 1
        return e

    def base(self) -> Expr:
        ch = self.s.peek()
        if ch == "(":
            return self.parenthesized()
        if ch.isdigit() or ch == "-":
            return Expr.constant(self.s.read_rational())
        pos = self.s.pos
        name = self.s.read_name()
        if name in ("exp", "ln"):
            arg = self.parenthesized()
            try:
                poly = arg.as_poly()
            except ExprError:
                raise ParseError(f"{name} argument must be polynomial", pos) from None
            atom = ExpAtom(poly) if name == "exp" else LnAtom(poly)
            return Expr.from_raw([(1, ONE_MONO, (atom,))])
        if name not in self.chart:
            raise ParseError(f"unknown identifier {quoted(name)} in chart {self.chart.name}",
                             pos)
        return Expr.coordinate(name)


def reference_parse(text: str, chart) -> Expr:
    """parse as the character scanner did it, for comparison."""
    return _Parser(text, chart).parse()


# ---------------------------------------------------------------------------
# random expressions (seeded, deterministic)
# ---------------------------------------------------------------------------

def random_polynomial(rng: random.Random, chart=J20, max_terms=4, max_degree=3) -> Expr:
    e = Expr.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff == 0:
            coeff = Fraction(1)
        term = Expr.constant(coeff)
        for _ in range(rng.randint(0, max_degree)):
            term = term * Expr.coordinate(rng.choice(chart.coords))
        e = e + term
    return e


def random_expr(rng: random.Random, chart=J20, allow_atoms=True) -> Expr:
    e = random_polynomial(rng, chart)
    if allow_atoms and rng.random() < 0.5:
        kind = rng.random()
        if kind < 0.6:
            q = Fraction(rng.choice([1, 2, -1, -2, 4, 5]), rng.choice([3, 3, 2]))
            coord = rng.choice(["y2", "y1"])
            e = e + Expr.coordinate(coord).pow_rational(q).scale(
                Fraction(rng.randint(1, 3)))
        elif kind < 0.85:
            arg = random_polynomial(rng, chart, max_terms=2, max_degree=1)
            atom_expr = Expr.from_raw([(1, ONE_MONO, (ExpAtom(arg.as_poly()),))])
            e = e + atom_expr
        else:
            base = random_polynomial(rng, chart, max_terms=2, max_degree=2)
            if not base.is_zero():
                try:
                    e = e + base.pow_rational(Fraction(rng.choice([1, 2]), 3))
                except NonRationalPowerError:
                    pass
    return e


def admissible_point(rng: random.Random, chart=J20) -> dict:
    """Rational points with y2 a positive perfect cube and y1 a perfect square,
    so fractional powers of bare coordinates evaluate exactly."""
    pt = {}
    for c in chart.coords:
        pt[c] = Fraction(rng.randint(1, 5))
    if "y1" in chart:
        pt["y1"] = Fraction(rng.randint(1, 3) ** 6)
    if "y2" in chart:
        pt["y2"] = Fraction(rng.randint(1, 3) ** 6)
    return pt


# ---------------------------------------------------------------------------
# the Lie bracket by its two-step definition
# ---------------------------------------------------------------------------

def _directional_derivative(field: VectorField, f: Expr) -> Expr:
    out = Expr.zero()
    for coord, a in zip(field.chart.coords, field.coefficients):
        if not a.is_zero():
            out = out + a * f.diff(coord)
    return out


def reference_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[V, W]_i = V(W_i) - W(V_i), every product and partial sum normalized
    on its own."""
    return VectorField(v.chart, tuple(
        _directional_derivative(v, wc) - _directional_derivative(w, vc)
        for vc, wc in zip(v.coefficients, w.coefficients)))


def frame_fields(d):
    """The frame X1, X2, X3 = [X1, X2], X4 = [X1, X3], X5 = [X2, X3] of the
    distribution, every entry computed: the reference for frame_determinant,
    which leaves X5's y2 and z entries zero."""
    x3 = lie_bracket(d.X1, d.X2)
    x4 = lie_bracket(d.X1, x3)
    x5 = lie_bracket(d.X2, x3)
    return (d.X1, d.X2, x3, x4, x5)


def reference_membership_residuals(v: VectorField, distribution) -> tuple:
    """vy - y1*vx, vy1 - y2*vx and vz - F*vx, by Expr arithmetic."""
    vx, vy, vy1, _, vz = v.coefficients
    y1, y2 = Expr.coordinate("y1"), Expr.coordinate("y2")
    return (vy - y1 * vx, vy1 - y2 * vx, vz - distribution.equation.F * vx)


def reference_symmetry_residuals(s: VectorField, distribution) -> tuple:
    """The six symmetry residuals by their definition: the membership
    residuals of [S, X1] and then of [S, X2], both brackets built in full by
    reference_bracket."""
    return tuple(r for x in (distribution.X1, distribution.X2)
                 for r in reference_membership_residuals(reference_bracket(s, x), distribution))


# ---------------------------------------------------------------------------
# approximate flow-commutator oracle for the Lie bracket
# ---------------------------------------------------------------------------

def _flow(field: VectorField, point: dict, time: float, steps: int = 16) -> dict:
    names = field.chart.coords
    state = [float(point[c]) for c in names]
    h = time / steps

    def rhs(s):
        assignment = dict(zip(names, s))
        return [c.approx(assignment) for c in field.coefficients]

    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs([s + h / 2 * k for s, k in zip(state, k1)])
        k3 = rhs([s + h / 2 * k for s, k in zip(state, k2)])
        k4 = rhs([s + h * k for s, k in zip(state, k3)])
        state = [s + h / 6 * (a + 2 * b + 2 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    return dict(zip(names, state))


def flow_commutator(v: VectorField, w: VectorField, point: dict, t: float = 1 / 64):
    """Approximate [v, w] at a point from the commutator of the flows.

    The displacement of flow_w(-t) flow_v(-t) flow_w(t) flow_v(t) is
    t^2 [v, w] + O(t^3); one Richardson step removes the O(t) error of the
    divided difference."""
    names = v.chart.coords

    def displaced(tt):
        p = _flow(v, point, tt)
        p = _flow(w, p, tt)
        p = _flow(v, p, -tt)
        p = _flow(w, p, -tt)
        return [(p[c] - float(point[c])) / (tt * tt) for c in names]

    d1 = displaced(t)
    d2 = displaced(t / 2)
    return [2 * b - a for a, b in zip(d1, d2)]


def zero_field(chart=J20) -> VectorField:
    """The zero vector field on the chart."""
    return VectorField(chart, tuple(Expr.zero() for _ in chart.coords))


def equiaffine_generators() -> dict:
    """The catalog's plane generators of the area-preserving affine action,
    as (xi, eta) pairs of expressions on PLANE."""
    return {key: (parse(xi, PLANE), parse(eta, PLANE))
            for key, (xi, eta) in EQUIAFFINE.items()}


# ---------------------------------------------------------------------------
# brute-force symmetry solver for low degrees (independent of the sparse path)
# ---------------------------------------------------------------------------

def coefficient_expr(u) -> Expr:
    """An ansatz unknown's coefficient function as an Expr."""
    return Expr.from_raw([(1, *u.term())])


def unknown_field(u) -> VectorField:
    """An ansatz unknown's field: its coefficient function on its direction."""
    coeffs = [Expr.zero()] * 5
    coeffs[u.direction] = coefficient_expr(u)
    return VectorField(J20, tuple(coeffs))


def mul_expr(field: VectorField, f: Expr) -> VectorField:
    """The field f*V, coefficient by coefficient."""
    return VectorField(field.chart, tuple(f * a for a in field.coefficients))


def ansatz_unknowns(ansatz) -> tuple:
    """Every column's unknown in ansatz order, enumerated in full: for each
    rate, each offset, each direction, each monomial ascending by degree.
    The package reads one column at a time off the layout (Ansatz.unknown)."""
    spec = ansatz.spec
    return tuple(UnknownBasis(direction, exps, offset, rate)
                 for rate in spec.rates for offset in spec.offsets
                 for direction in range(5) for exps in monomials_up_to(spec.degree))


def reference_row_counts(system) -> list:
    """Per degree, the rows whose lowest graded column lies inside that
    degree's prefix, read off every entry of every row."""
    lows = sorted(map(min, system.rows))
    return [bisect_left(lows, end) for end in system.ansatz.ends]


def keyed_rows(system) -> dict:
    """A determining system's rows keyed by (residual, monomial, atoms), in
    ansatz columns, read off the builder's slots: the view the rows had
    before they went to the elimination in graded columns."""
    ansatz_column = {g: c for c, g in enumerate(system.ansatz.graded)}
    return {(rid, *key): {ansatz_column[g]: v for g, v in row.items()}
            for key, slots in system.slots.items()
            for rid, row in enumerate(slots) if row}


def reference_rows(distribution, ansatz) -> dict:
    """Determining rows by expanding fields.symmetry_residuals of every
    unknown's field: (residual, monomial, atoms) -> {column: coefficient}."""
    rows: dict = {}
    for col, u in enumerate(ansatz_unknowns(ansatz)):
        for rid, e in enumerate(symmetry_residuals(unknown_field(u), distribution)):
            for k, t in enumerate(e.terms):
                rows.setdefault((rid, t.monomial, t.atoms), {})[col] = e.coefficient(k)
    return rows


def reference_compile_operator(distribution) -> tuple:
    """The compiled operator by six probes of symmetry_residuals per
    direction: L0 = R(1) and Lj = R(u_j) - u_j*R(1), in the order of
    solver.compile_operator."""
    zero = Expr.zero()

    def residuals(i, a):
        coeffs = [zero] * 5
        coeffs[i] = a
        return symmetry_residuals(VectorField(J20, tuple(coeffs)), distribution)

    operator = []
    for i in range(5):
        base = residuals(i, Expr.constant(1))
        terms = [(rid, -1, e) for rid, e in enumerate(base)]
        for j, name in enumerate(J20.coords):
            u = Expr.coordinate(name)
            terms.extend((rid, j, r - u * r0)
                         for rid, (r, r0) in enumerate(zip(residuals(i, u), base)))
        operator.append(tuple(t for t in terms if t[2].terms))
    return tuple(operator)


def reference_determining_rows(operator, ansatz) -> dict:
    """The determining rows with Fraction entries, each partial taken by
    Expr.diff of the unknown's coefficient expression and every
    operator-term x partial-term product sent through _canonical_term:
    (residual, monomial, atoms) -> {column: Fraction}."""
    rows: dict = {}
    for col, u in enumerate(ansatz_unknowns(ansatz)):
        coefficient = coefficient_expr(u)
        partials = [coefficient] + [coefficient.diff(c) for c in J20.coords]
        for rid, order, e in operator[u.direction]:
            p = partials[order + 1]
            for n, m, a in e.terms:
                for pn, pm, pa in p.terms:
                    (fn, fd), mono, out_atoms, polys = _canonical_term(mono_mul(m, pm), a + pa)
                    assert not polys
                    row = rows.setdefault((rid, mono, out_atoms), {})
                    row[col] = (row.get(col, 0)
                                + Fraction(n, e.den) * Fraction(pn, p.den) * Fraction(fn, fd))
    return {key: {c: v for c, v in row.items() if v}
            for key, row in rows.items() if any(row.values())}


def brute_force_symmetry_space(equation, degree: int):
    """Dimension and nullspace of the symmetry condition on a generic
    polynomial field, computed by direct symbolic coefficient matching on the
    six residual expressions and sympy's nullspace."""
    ansatz = build_ansatz(AnsatzSpec(degree))
    rows = reference_rows(distribution_from_monge(equation), ansatz)
    matrix = [[row.get(j, Fraction(0)) for j in range(ansatz.size)]
              for row in rows.values()]
    null = reference_nullspace(matrix, ansatz.size)
    return len(null), null, ansatz


def numeric_symmetry_dimension(equation, spec) -> int:
    """The dimension of the symmetries in the ansatz of spec by numeric rank,
    without the engine's canonical keys: each unknown's field's six
    symmetry residuals, evaluated in floating point (Expr.approx) at 80
    seeded points drawn uniformly from [0.5, 2] in every coordinate, make
    one column.  Every nonzero column is scaled to unit norm, and the rank counts the
    singular values above 1e-10 of the largest.  Raises AssertionError when
    the smallest kept value is less than 1e8 times the largest dropped one,
    so a rank without a clear gap is never returned."""
    np = pytest.importorskip("numpy")
    rng = random.Random(0)
    at = [{c: rng.uniform(0.5, 2) for c in J20.coords} for _ in range(80)]
    distribution = distribution_from_monge(equation)
    ansatz = build_ansatz(spec)
    columns = []
    for u in ansatz_unknowns(ansatz):
        residuals = symmetry_residuals(unknown_field(u), distribution)
        columns.append([r.approx(p) if r.terms else 0.0 for p in at for r in residuals])
    matrix = np.array(columns, dtype=float).T
    norms = np.linalg.norm(matrix, axis=0)
    matrix[:, norms > 0] /= norms[norms > 0]
    values = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(values > 1e-10 * values[0])) if values[0] > 0 else 0
    if 0 < rank < len(values):
        assert values[rank - 1] >= 1e8 * values[rank], (
            f"no clear rank gap: kept {values[rank - 1]:.3g}, dropped {values[rank]:.3g}")
    return ansatz.size - rank


def reference_assemble(ansatz, vector) -> VectorField:
    """The field of an ansatz vector as a running sum, one normalization per
    nonzero entry."""
    coeffs = [Expr.zero() for _ in range(5)]
    for c, u in zip(vector, ansatz_unknowns(ansatz)):
        if c:
            coeffs[u.direction] = coeffs[u.direction] + coefficient_expr(u).scale(c)
    return VectorField(J20, tuple(coeffs))


def reference_graded_solve(distribution, spec):
    """(table, top basis) by one fresh build and one elimination per degree,
    columns in ansatz order, rows integerized through Fraction."""
    operator = compile_operator(distribution)
    table = []
    for degree in range(spec.degree + 1):
        system = determining_equations(
            operator, build_ansatz(AnsatzSpec(degree, spec.offsets, spec.rates)))
        int_rows = []
        for row in keyed_rows(system).values():
            denom = math.lcm(*(Fraction(v).denominator for v in row.values()))
            int_rows.append({c: int(Fraction(v) * denom) for c, v in row.items()})
        n = system.ansatz.size
        rank, basis = sparse_nullspace(int_rows, n)
        table.append({"degree": degree, "unknowns": n,
                      "rows": system.n_rows, "dimension": n - rank})
    return table, basis


# ---------------------------------------------------------------------------
# the Lie layer's Fraction path: the dense tensor routines and the zero-test
# that the integer tensor and the integer zero-test replaced
# ---------------------------------------------------------------------------

def over_common_denominator(values):
    """(d, ints): rationals over one positive common denominator d, the lcm
    of their denominators, with ints the integers d * value in order."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def presentation(constants, basis=None) -> liealg.LieAlgebraPresentation:
    """The presentation of hand-written Fraction constants, basis the
    indices unless given: each [b_i, b_j], i < j, over the lcm d of their
    denominators as (k, d * c_ijk) pairs for c_ijk != 0, and
    [b_j, b_i] = -[b_i, b_j]."""
    n = len(constants)
    pairs = [(i, j) for j in range(n) for i in range(j)]
    d = math.lcm(*(Fraction(c).denominator for i, j in pairs for c in constants[i][j]))
    t = [[()] * n for _ in range(n)]
    for i, j in pairs:
        t[i][j] = tuple((k, int(c * d)) for k, c in enumerate(constants[i][j]) if c)
        t[j][i] = tuple((k, -x) for k, x in t[i][j])
    return liealg.LieAlgebraPresentation(tuple(range(n)) if basis is None else basis,
                                         tuple(map(tuple, t)), d)


def is_antisymmetric(t) -> bool:
    """Whether the sparse integer tensor t has t[j][i] = -t[i][j] and every
    t[i][i] empty."""
    n = len(t)
    return all(not t[i][i] for i in range(n)) and all(
        dict(t[j][i]) == {k: -c for k, c in t[i][j]} for i in range(n) for j in range(n))


def dense_tensor(t) -> tuple:
    """A sparse integer tensor, t[i][j] the pairs (k, c), as a dense tuple
    of Fractions."""
    n = len(t)
    dense = []
    for plane in t:
        rows = []
        for pairs in plane:
            row = [Fraction(0)] * n
            for k, c in pairs:
                row[k] = Fraction(c)
            rows.append(tuple(row))
        dense.append(tuple(rows))
    return tuple(dense)


def reference_bracket_vec(constants, u, v):
    """[u, v] on a dense Fraction tensor, by the triple loop."""
    n = len(constants)
    out = [Fraction(0)] * n
    for i, ui in enumerate(u):
        if not ui:
            continue
        ci = constants[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            row = ci[j]
            f = ui * vj
            for k in range(n):
                if row[k]:
                    out[k] += f * row[k]
    return out


def reference_killing_matrix(constants):
    """The Killing matrix of a dense Fraction tensor,
    K_ij = sum over l, k of c_ilk * c_jkl."""
    n = len(constants)
    km = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = Fraction(0)
            for l in range(n):
                cil = constants[i][l]
                for k in range(n):
                    if cil[k]:
                        s += cil[k] * constants[j][k][l]
            km[i][j] = s
            km[j][i] = s
    return km


def reference_verify_combination(v: VectorField, basis, coords) -> None:
    """Raise ArithmeticError unless v - sum(coords[k] * basis[k]) is zero:
    one Fraction product per term, summed per canonical key."""
    for i, vc in enumerate(v.coefficients):
        total: dict = {}
        for c, e in [(Fraction(1), vc)] + [(-c, b.coefficients[i])
                                           for c, b in zip(coords, basis) if c]:
            for k, t in enumerate(e.terms):
                key = (t.monomial, t.atoms)
                total[key] = total.get(key, 0) + c * e.coefficient(k)
        if any(total.values()):
            raise ArithmeticError("key match and zero-test disagree")


# ---------------------------------------------------------------------------
# coordinates and structure constants by one sympy solve per bracket
# ---------------------------------------------------------------------------

def reference_express(v: VectorField, basis):
    """Coordinates of v in the basis from one sympy solve of the matrix over
    all (direction, monomial, atoms) keys, free variables zero, confirmed by
    subtracting the scaled basis fields; None when v is not in the span."""
    if not basis:
        return [] if v.is_zero() else None
    keys = {}
    columns = []
    for f in list(basis) + [v]:
        col = {}
        for i, e in enumerate(f.coefficients):
            for k, t in enumerate(e.terms):
                key = (i, t.monomial, t.atoms)
                keys.setdefault(key, len(keys))
                col[key] = e.coefficient(k)
        columns.append(col)
    matrix = [[col.get(key, Fraction(0)) for col in columns[:-1]] for key in keys]
    rhs = [columns[-1].get(key, Fraction(0)) for key in keys]
    solution = reference_solve(matrix, rhs, len(basis))
    if solution is None:
        return None
    residual = v
    for c, b in zip(solution, basis):
        if c:
            residual = residual - b.scale(c)
    return solution if residual.is_zero() else None


def reference_constants(basis) -> tuple:
    """Structure constants of a bracket-closed basis, each bracket expressed
    in the final basis after the fact: constants[i][j] = coords of [b_i, b_j]."""
    n = len(basis)
    constants = [[(Fraction(0),) * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(j):
            coords = reference_express(lie_bracket(basis[i], basis[j]), basis)
            if coords is None:
                raise ValueError("fields are not closed under bracket")
            constants[i][j] = tuple(coords)
            constants[j][i] = tuple(-c for c in coords)
    return tuple(tuple(r) for r in constants)


def reference_close_under_bracket(fields, cap: int = 32):
    """liealg.close_under_bracket as it was before the sparse basis: one
    KeyedSpan over the fields as given, every pair of the basis bracketed
    symbolically and placed in it, each placement zero-tested."""
    for f in fields:
        require_same_chart(f, fields[0])
    span = KeyedSpan()
    basis = []

    def place(f):
        coords = span.place(*f.integer_form)
        if coords is not None:
            liealg._verify_combination(f, basis, coords)
            return [Fraction(x, coords[1]) for x in coords[0]]
        basis.append(f)
        if len(basis) > cap:
            raise liealg.ClosureCapExceeded(f"dimension exceeded cap {cap}")
        return [Fraction(0)] * (len(basis) - 1) + [Fraction(1)]

    for f in fields:
        place(f)
    brackets = {}
    pending = deque((i, j) for j in range(len(basis)) for i in range(j))
    while pending:
        i, j = pending.popleft()
        k = len(basis)
        brackets[i, j] = place(lie_bracket(basis[i], basis[j]))
        if len(basis) > k:
            pending.extend((t, k) for t in range(k))
    n = len(basis)
    constants = [[(Fraction(0),) * n] * n for _ in range(n)]
    for (i, j), coords in brackets.items():
        row = tuple(coords) + (Fraction(0),) * (n - len(coords))
        constants[i][j] = row
        constants[j][i] = tuple(-c for c in row)
    return presentation(constants, tuple(basis))


def same_span(vectors_a, vectors_b) -> bool:
    """Whether two lists of vectors span one space; each vector is dense or
    sparse ({column: entry}), and both are compared in sparse form."""
    a, b = ([v if isinstance(v, dict) else sparse(v) for v in vectors]
            for vectors in (vectors_a, vectors_b))
    n = 1 + max((c for v in a + b for c in v), default=0)

    def reduced(vectors):
        rows = [[v.get(c, 0) for c in range(n)] for v in vectors]
        return reference_rref(rows, n)[0] if rows else []
    return reduced(a) == reduced(b)
