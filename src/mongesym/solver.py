"""Degree-bounded symmetry algebras via exact determining equations.

An unknown vector field S = sum_i a_i d/du_i is a symmetry of the
distribution exactly when the six membership residuals of [S, X1] and
[S, X2] vanish.  The residuals are linear in S, so restricting the a_i to a
finite function class turns the condition into a homogeneous exact linear
system: one row per (residual, monomial, atom) key, one column per ansatz
coefficient.  The nullspace dimension is the dimension of the symmetry space
inside the ansatz class, and every nullspace vector reassembles into a field
that is re-verified symbolically.

The rows come from a compiled operator (compile_operator).  For a field
a*d/du_i the residuals are first order and linear in a, so each one reads
L0*a + sum_j Lj*da/du_j with coefficients independent of a.  By the
Leibniz rule one probe of fields.symmetry_residuals per direction gives L0,
and the membership residuals of d/du_i give the Lj: five probes per equation.
determining_equations then reads every unknown's rows off the operator
terms in one pass: shift the monomial, multiply in the exponent (and rho for
d/dx of exp(rho*x)), and canonicalize each distinct product term once with
the expression engine, checking that it carries coefficient 1.  The rows
are integer at birth: the operator's numerators are brought to D, the lcm
of its expressions' denominators, and the partials' scalars (exponents,
offsets q and rates rho) come as ints scaled by E, the lcm of the offsets'
and rates' denominators, so every row is D*E times its rational form, with
the same primitive form.
symmetry_dimension builds and eliminates the rows once, at the top degree.
An unknown's entries do not depend on the other unknowns, so a lower
degree's system is the top system on that degree's columns.  build_ansatz
fixes every column's graded position (degree, then ansatz index) and every
degree's prefix end in closed form; the builder numbers the columns by
those positions as it makes the rows, and nullspace hands those very rows
to the elimination, so every degree's columns are a prefix and every
degree's rank and dimension are read off the one echelon; only the basis
vectors go back to ansatz order.  The singleton
presolve of linalg.sparse_nullspace strikes only unknowns that vanish in
every top-degree solution, hence in every lower degree's, so every
degree's dimension and the basis stay exact.

The ansatz class is polynomial coefficients of bounded total degree,
optionally multiplied by rational powers y2^q (offsets) and by exponentials
exp(rho*x) (rates).  Rates matter because for the quadratic equations
z' = y2^2 + r1*y1^2 + r2*y^2 the one-parameter family

    g(x) d/dy + g' d/dy1 + g'' d/dy2 + (2 g'' y1 + (2 r1 g' - 2 g''') y) d/dz

is a symmetry iff g'''' - r1 g'' + r2 g = 0, so the symmetry fields carry
exp(lambda*x) factors for the roots lambda of lambda^4 - r1 lambda^2 + r2.
When those roots are rational the full algebra lives in the exact expression
class and the solver finds it; rates are auto-detected from the
characteristic polynomial (see exp_rates_for).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .charts import J20
from .expr import (UNIT_MONOS, Expr, PowerAtom, ExpAtom, Term, _canonical_term,
                   bare_coords, mono_mul, product_is_canonical)
from .fields import (Distribution2, MongeEquation, StageTimer, VectorField,
                     distribution_from_monge, is_symmetry, membership_residuals,
                     symmetry_residuals)
from .liealg import analyze
from .linalg import canonical_basis, sparse_nullspace
from .rationals import exact_pow


class AnsatzError(ValueError):
    """An ansatz specification outside the supported class."""


# Largest admitted ansatz, in unknowns.  The largest shipped solve,
# dz13(10,9) at degree 5 in `reproduce`, has 11340 and takes 0.33-0.53 s,
# 0.09-0.17 s of it for the rows; flat at degree 13, 42840 unknowns, takes
# 1.1-1.5 s (2 shared cores, Python 3.11).
MAX_UNKNOWNS = 50_000


class AnsatzSpec:
    """Function class for the unknown field's coefficients.

    degree: total-degree bound of the polynomial part (all five coordinates);
    offsets: admitted exponents q in y2^q multipliers (0 must be present,
             and no two may differ by an integer k, since y2^(q+k) * m is
             y2^q times the monomial y2^k * m);
    rates:   admitted rho in exp(rho*x) multipliers (0 must be present).
    """
    def __init__(self, degree: int, offsets: tuple = (0,), rates: tuple = (0,)):
        if degree < 0:
            raise AnsatzError("degree must be non-negative")
        offs = tuple(sorted({Fraction(q) for q in offsets}))
        rates = tuple(sorted({Fraction(r) for r in rates}))
        if Fraction(0) not in offs:
            raise AnsatzError("offset 0 is required")
        if Fraction(0) not in rates:
            raise AnsatzError("rate 0 is required")
        residues: dict = {}  # q mod 1 -> the first offset with that residue
        for q in offs:
            p = residues.setdefault(q % 1, q)
            if p != q:
                raise AnsatzError(f"offsets {p} and {q} differ by an integer, "
                                  "so one function would get two columns")
        unknowns = 5 * math.comb(degree + 5, 5) * len(offs) * len(rates)
        if unknowns > MAX_UNKNOWNS:
            raise AnsatzError(
                f"the ansatz has {unknowns} unknowns (degree {degree}, "
                f"{len(offs)} offsets, {len(rates)} rates), more than {MAX_UNKNOWNS}")
        self.degree, self.offsets, self.rates = degree, offs, rates

    def __eq__(self, other) -> bool:
        return type(other) is AnsatzSpec and (self.degree, self.offsets, self.rates) == (
            other.degree, other.offsets, other.rates)

    def __hash__(self) -> int:
        return hash((self.degree, self.offsets, self.rates))


def monomials_up_to(degree: int):
    """J20 exponent tuples with total degree <= degree, ascending (degree, lex)."""
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(5), total):
            exps = [0] * 5
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return sorted(out, key=lambda e: (sum(e), e))


def _exact_integer(n: int, d: int) -> int:
    """n / d, which a scaling has made an integer; anything else raises."""
    q, r = divmod(n, d)
    if r:
        raise ArithmeticError(f"scaled scalar {n}/{d} is not an integer")
    return q


class UnknownBasis(NamedTuple):
    """One ansatz coefficient: x^alpha * y2^q * exp(rho x) on direction d/du_i."""
    direction: int
    exponents: tuple
    offset: Fraction
    rate: Fraction

    def term(self):
        """The coefficient as a (monomial, atoms) pair: an integer q joins
        the monomial, a fractional one is the atom y2^q."""
        exps = list(self.exponents)
        atoms = ()
        if self.offset.denominator == 1:
            exps[3] += self.offset.numerator
        else:
            atoms += (PowerAtom(Expr((Term(1, UNIT_MONOS[3], ()),)), self.offset),)
        if self.rate:
            atoms += (ExpAtom(Expr((Term(self.rate.numerator, UNIT_MONOS[0], ()),),
                                   self.rate.denominator)),)
        return tuple(exps), atoms

    def partials(self, E: int):
        """The coefficient and its five first partials, times E.

        Returns (atoms, factors): factors[order + 1] lists (scalar, monomial)
        pairs such that sum scalar*monomial*atoms is E times the d/du_order
        partial (order -1: the coefficient itself).  Each scalar is the int
        E times an exponent, the offset q or the rate rho; E must be a
        multiple of the offset's and the rate's denominators.
        """
        mono, atoms = self.term()
        q = (0 if self.offset.denominator == 1 else
             _exact_integer(self.offset.numerator * E, self.offset.denominator))
        factors = [[(E, mono)]]
        for j in range(5):
            power = E * mono[j] + (q if j == 3 else 0)
            parts = [(power, mono[:j] + (mono[j] - 1,) + mono[j + 1:])] if power else []
            if j == 0 and self.rate:
                parts.append((_exact_integer(self.rate.numerator * E,
                                             self.rate.denominator), mono))
            factors.append(parts)
        return atoms, factors


class Ansatz(NamedTuple):
    """The unknowns in column order with build_ansatz's layout: graded[c]
    is column c's graded position and ends[k] the end of the graded prefix
    of the unknowns of degree <= k."""
    spec: AnsatzSpec
    unknowns: tuple
    graded: tuple
    ends: tuple

    @property
    def size(self) -> int:
        return len(self.graded)

    def assemble(self, vector) -> VectorField:
        """The field of an integer coefficient vector."""
        raw = [[] for _ in range(5)]
        for c, u in zip(vector, self.unknowns):
            if c:
                raw[u.direction].append((c, *u.term()))
        return VectorField(J20, tuple(Expr.from_raw(r) for r in raw))

    def coefficient_functions(self):
        """Each coefficient function x^alpha * y2^q * exp(rho x) as its
        unknown on d/dx and its five graded columns, one per direction in
        direction order: a block of 5*n columns per (rate, offset) holds the
        n monomials of each direction in turn."""
        n = math.comb(self.spec.degree + 5, 5)
        for block in range(0, self.size, 5 * n):
            for c in range(block, block + n):
                yield self.unknowns[c], self.graded[c:c + 5 * n:n]


def build_ansatz(spec: AnsatzSpec) -> Ansatz:
    """The ansatz of spec, with its layout in closed form: m blocks of n
    columns, one block per (rate, offset, direction), each holding the n
    monomials ascending by degree.  Degree k has n_k = C(k+4, 4) monomials
    after the s_k = C(k+4, 5) of lower degree, so the prefix of degree <= k
    ends at m*C(k+5, 5), and the i-th monomial of degree k in block g sits
    at graded position m*s_k + g*n_k + i."""
    monos = monomials_up_to(spec.degree)
    unknowns = tuple(UnknownBasis(direction, exps, offset, rate)
                     for rate in spec.rates for offset in spec.offsets
                     for direction in range(5) for exps in monos)
    m = len(unknowns) // len(monos)
    base, stride = [], []  # per monomial: its graded position in block 0, its n_k
    for k in range(spec.degree + 1):
        s, n_k = math.comb(k + 4, 5), math.comb(k + 4, 4)
        base.extend(range(m * s, m * s + n_k))
        stride.extend([n_k] * n_k)
    graded = tuple(b + g * w for g in range(m) for b, w in zip(base, stride))
    ends = tuple(m * math.comb(k + 5, 5) for k in range(spec.degree + 1))
    return Ansatz(spec, unknowns, graded, ends)


# ---------------------------------------------------------------------------
# determining system
# ---------------------------------------------------------------------------

class DeterminingSystem(NamedTuple):
    ansatz: Ansatz
    rows: list   # the nonempty rows, {graded column: int}
    slots: dict  # (monomial, atoms) -> its six rows, one per residual id

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def compile_operator(distribution: Distribution2) -> tuple:
    """The six symmetry residuals of a*d/du_i as a linear operator in a.

    Both brackets are first order in the field and the membership
    residuals are linear over functions, so residual r of a*d/du_i is

        L0[i][r] * a + sum_j Lj[i][r] * da/du_j

    with coefficients that do not depend on a.  By the Leibniz rule
    [a*e_i, X] = a*[e_i, X] - X(a)*e_i, with e_i = d/du_i, L0 = R(e_i), one
    probe of fields.symmetry_residuals, and for the bracket with X_k
    (k = 0, 1) residual 3k + r has Lj = -X_k[j] * M(e_i)[r], M the
    membership residuals.  Entry i lists direction i's nonzero coefficients
    as (residual, order, Expr) triples, by order, then residual; order -1
    multiplies a, order j da/du_j.  A product with a zero factor is zero,
    so it is not formed.
    """
    brackets = (distribution.X1, distribution.X2)
    operator = []
    for name in J20.coords:
        e = VectorField.coordinate(J20, name)
        terms = [(rid, -1, r) for rid, r in enumerate(symmetry_residuals(e, distribution))]
        members = membership_residuals(e, distribution)
        terms.extend((3 * k + r, j, -(x.coefficients[j] * m))
                     for j in range(5) for k, x in enumerate(brackets)
                     if x.coefficients[j].terms
                     for r, m in enumerate(members) if m.terms)
        operator.append(tuple(t for t in terms if t[2].terms))
    return tuple(operator)


def determining_equations(operator: tuple, ansatz: Ansatz) -> DeterminingSystem:
    """Collect the exact linear rows of the ansatz from the compiled operator,
    as integer rows in graded columns.

    Every entry is an operator coefficient times a partial's scalar (an
    exponent, a y2^q offset or an exp(rho*x) rate).  The operator's
    coefficients are brought to D, the lcm of the operator expressions'
    denominators, and UnknownBasis.partials(E) gives the partials' scalars
    as ints scaled by E, the lcm of the offsets' and rates' denominators, so
    every entry is an int and every row is D*E times the rational row, with
    the same primitive form.  Each scaled scalar is checked to be an
    integer, never truncated.

    The columns come one coefficient function at a time, each with its
    five graded columns (Ansatz.coefficient_functions), so its partials are
    built once for its five directions, and each column is numbered at once
    by its graded position, the order nullspace eliminates in.  Each
    distinct (monomial, atoms) product of an operator term and a partial is
    canonicalized once, so the row keys are those of the expanded
    residuals; a product that
    expr.product_is_canonical calls canonical is taken as it stands.  The
    operator's terms are canonical (checked once per distinct term) and an
    unknown adds only y2^q and exp(rho*x), so a product with a coefficient
    other than 1 or a polynomial factor raises ArithmeticError.  Cancelled
    entries go at once, and rows they empty at the end.  The system holds
    the nonempty rows as a list, residual by residual within each key in
    the order the keys arose, and, as slots, each (monomial, atoms) key's
    six rows, one per residual id (None or empty where there is none).
    """
    spec = ansatz.spec
    D = math.lcm(*(e.den for terms in operator for _, _, e in terms))
    E = math.lcm(*(v.denominator for v in spec.offsets + spec.rates))
    for m, a in {t[1:] for terms in operator for _, _, e in terms for t in e.terms}:
        if a and _canonical_term(m, a) != ((1, 1), m, a, []):
            raise ArithmeticError(f"non-canonical operator term {(m, a)}")
    ids: dict = {}  # operator atoms -> a small int
    operator = [[(rid, order, c * (D // e.den), m, a,
                  ids.setdefault(a, len(ids)), bare_coords(a))
                 for rid, order, e in terms for c, m, a in e.terms]
                for terms in operator]
    keys: dict = {}  # a row's (monomial, atoms) -> its six rows, one per residual
    # unknown atoms -> per operator atoms id, {product monomial: the same}
    canonical: dict = {}
    for u, cols in ansatz.coefficient_functions():
        atoms, factors = u.partials(E)
        known = canonical.setdefault(atoms, [{} for _ in ids])
        bare = bare_coords(atoms)
        for col, terms in zip(cols, operator):  # one per direction
            for rid, order, c, m, a, aid, b in terms:
                for k, s in factors[order + 1]:
                    mono = mono_mul(m, s)
                    slots = known[aid].get(mono)
                    if slots is None:
                        out = (mono, a + atoms)
                        if not product_is_canonical(mono, b, bare):
                            factor, out_mono, out_atoms, polys = _canonical_term(*out)
                            if factor != (1, 1) or polys:
                                raise ArithmeticError(f"non-canonical product {out}")
                            out = (out_mono, out_atoms)
                        slots = known[aid][mono] = keys.setdefault(out, [None] * 6)
                    row = slots[rid]
                    if row is None:
                        row = slots[rid] = {}
                    v = c * k
                    if col in row:
                        v += row[col]
                    if v:
                        row[col] = v
                    else:
                        del row[col]
    rows = [row for slots in keys.values() for row in slots if row]
    return DeterminingSystem(ansatz, rows, keys)


def nullspace(system: DeterminingSystem, counts: dict | None = None):
    """Dimension table of every degree and the top-degree basis, from one
    graded elimination.

    The rows come in graded columns, by (total degree of the unknown,
    ansatz index), so the unknowns of degree <= k form the prefix that ends
    at Ansatz.ends[k], and go to sparse_nullspace as the builder made them.
    A pivot row whose pivot lies past the prefix is zero on it, so the rank
    at degree k is the number of pivots inside the prefix, and the
    dimension is the number of basis vectors whose free (largest) column
    lies inside it.  The presolve of sparse_nullspace keeps this exact: it
    strikes only columns that are zero in every top-degree kernel vector,
    and every lower degree's kernel lies inside that kernel.  Returns
    (table, basis): table holds one {degree, unknowns, rows, dimension}
    entry per degree, where a row counts from the lowest degree of its
    unknowns on, in the rows as built; basis holds the integer vectors of
    the top degree mapped back to ansatz column order, in the form an
    elimination in that order gives (linalg.canonical_basis).  A dict given
    as counts receives the elimination's sizes (sparse_nullspace).
    """
    ansatz = system.ansatz
    ncols = ansatz.size
    _, vectors = sparse_nullspace(system.rows, ncols, counts)
    lows = sorted(map(min, system.rows))
    # a vector's free column is its last nonzero entry, read from the end
    frees = [next(itertools.compress(range(ncols - 1, -1, -1), reversed(v)))
             for v in vectors]  # ascending
    table = [{"degree": degree, "unknowns": end, "rows": bisect_left(lows, end),
              "dimension": bisect_left(frees, end)}
             for degree, end in enumerate(ansatz.ends)]  # the prefix is [0, end)
    basis = canonical_basis([tuple([v[g] for g in ansatz.graded]) for v in vectors])
    return table, basis


# ---------------------------------------------------------------------------
# rate auto-detection for quadratic equations
# ---------------------------------------------------------------------------

def _quadratic_profile(F: Expr):
    """(p, q, s) when F = p*y2^2 + q*y1^2 + s*y^2 with p != 0, else None."""
    p = q = s = Fraction(0)
    for k, t in enumerate(F.terms):
        if t.atoms:
            return None
        m = t.monomial
        if m == (0, 0, 0, 2, 0):
            p = F.coefficient(k)
        elif m == (0, 0, 2, 0, 0):
            q = F.coefficient(k)
        elif m == (0, 2, 0, 0, 0):
            s = F.coefficient(k)
        else:
            return None
    return (p, q, s) if p else None


def exp_rates_for(m: MongeEquation):
    """Candidate exp rates {0, ±a, ±b, ±(a+b), ±(a-b)} from the roots of the
    characteristic polynomial p t^4 - q t^2 + s, when they are rational."""
    prof = _quadratic_profile(m.F)
    rates = {Fraction(0)}
    if prof is None:
        return tuple(sorted(rates))
    p, q, s = prof
    disc = q * q - 4 * p * s
    rdisc = exact_pow(disc, Fraction(1, 2)) if disc >= 0 else None
    if rdisc is None:
        return tuple(sorted(rates))
    for branch in (1, -1):
        lam2 = (q + branch * rdisc) / (2 * p)
        if lam2 <= 0:
            continue
        lam = exact_pow(lam2, Fraction(1, 2))
        if lam is None:
            continue
        rates.update({lam, -lam})
    pos = sorted(r for r in rates if r > 0)
    if len(pos) == 2:
        a, b = pos
        rates.update({a + b, -(a + b), b - a, a - b})
    elif len(pos) == 1:
        rates.update({2 * pos[0], -2 * pos[0]})
    return tuple(sorted(rates))


# ---------------------------------------------------------------------------
# solve reports
# ---------------------------------------------------------------------------

class SolveReport(NamedTuple):
    equation: str
    offsets: tuple
    rates: tuple
    table: list          # [{degree, unknowns, rows, dimension}]
    stabilized: bool
    stabilized_at: object
    dimension: int
    basis: list          # VectorFields at the top degree
    verified: bool
    timings: dict        # per degree: seconds of the one shared elimination
    stage_timings: dict  # seconds per stage
    elimination: dict    # sparse_nullspace's counts

    def to_json(self, include_timings: bool = False) -> dict:
        out = {
            "equation": self.equation,
            "offsets": [str(q) for q in self.offsets],
            "rates": [str(r) for r in self.rates],
            "table": self.table,
            "stabilized": self.stabilized,
            "stabilized_at": self.stabilized_at,
            "dimension": self.dimension,
            "basis": [f.to_json() for f in self.basis],
            "verified": self.verified,
        }
        if include_timings:
            out["timings"] = self.timings
            out["stage_timings"] = self.stage_timings
            out["elimination"] = self.elimination
        return out

    def to_text(self) -> str:
        lines = [f"equation: {self.equation}",
                 f"offsets: {', '.join(str(q) for q in self.offsets)}",
                 f"rates: {', '.join(str(r) for r in self.rates)}",
                 "degree  unknowns  rows  dimension"]
        for row in self.table:
            lines.append(f"{row['degree']:>6}  {row['unknowns']:>8}  {row['rows']:>4}  {row['dimension']:>9}")
        if self.stabilized:
            lines.append(f"stabilized (heuristic) at degree {self.stabilized_at}: dimension {self.dimension}")
        else:
            lines.append(f"not stabilized within the degree bound; last dimension {self.dimension}")
        lines.append(f"basis fields verified symbolically: {self.verified}")
        return "\n".join(lines)


def symmetry_dimension(m: MongeEquation, max_degree: int,
                       offsets=(Fraction(0),), rates=None,
                       equation_label: str = "") -> SolveReport:
    """Dimension table for degrees 0..max_degree plus the top-degree basis.

    The rows are built and eliminated once, at max_degree, and every lower
    degree is read off the same graded elimination (nullspace).
    Stabilization (the last two degrees have equal dimension; stabilized_at
    is the first degree of that final plateau) is a reporting heuristic, not
    a completeness theorem for the ansatz class.
    Every basis field is verified symbolically.  Every per-degree timing is
    the seconds of that one shared elimination.  The report also holds the
    elimination's sizes (linalg.sparse_nullspace).
    """
    if rates is None:
        rates = exp_rates_for(m)
    spec = AnsatzSpec(max_degree, tuple(offsets), tuple(rates))
    distribution = distribution_from_monge(m)
    timer = StageTimer()
    operator = compile_operator(distribution)
    timer.lap("operator_s")
    system = determining_equations(operator, build_ansatz(spec))
    timer.lap("rows_s")
    counts = {}
    table, vectors = nullspace(system, counts)
    timer.lap("elimination_s")
    timings = {str(row["degree"]): round(timer.stages["elimination_s"], 3)
               for row in table}
    dims = [row["dimension"] for row in table]
    if any(a > b for a, b in zip(dims, dims[1:])):
        raise AssertionError("dimension must be monotone in the degree")
    stabilized_at = None
    if len(dims) > 1 and dims[-1] == dims[-2]:
        # dimensions are monotone, so the final plateau starts one degree
        # after the first degree with the last dimension
        stabilized_at = table[dims.index(dims[-1]) + 1]["degree"]
    basis_fields = [system.ansatz.assemble(v) for v in vectors]
    verified = all(is_symmetry(f, distribution).ok for f in basis_fields)
    timer.lap("assemble_verify_s")
    return SolveReport(
        equation=equation_label or str(m),
        offsets=spec.offsets,
        rates=spec.rates,
        table=table,
        stabilized=stabilized_at is not None,
        stabilized_at=stabilized_at,
        dimension=dims[-1],
        basis=basis_fields,
        verified=verified,
        timings=timings,
        stage_timings=timer.rounded(),
        elimination=counts,
    )


# ---------------------------------------------------------------------------
# the solvability comparison behind maximality
# ---------------------------------------------------------------------------

class MaximalityReport(NamedTuple):
    six_dim_solvable: bool
    candidates: list  # [{label, dimension, solvable}]
    verdict: str


def maximality_argument(six_presentation, candidate_presentations) -> MaximalityReport:
    """Check that every 7-dimensional candidate algebra is solvable while the
    6-dimensional algebra is not, so the latter embeds in none of them."""
    six_solvable = analyze(six_presentation).solvable
    rows = []
    ok = not six_solvable
    for label, p in candidate_presentations:
        if p.dimension != 7:
            raise ValueError(f"candidate {label} is {p.dimension}-dimensional, not 7")
        solv = analyze(p).solvable
        rows.append({"label": label, "dimension": p.dimension, "solvable": solv})
        ok = ok and solv
    verdict = ("the 6-dimensional non-solvable algebra embeds in none of the "
               "7-dimensional (solvable) algebras; it is maximal"
               if ok else "inconclusive")
    return MaximalityReport(six_solvable, rows, verdict)
