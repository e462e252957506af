"""Exact symbolic expressions in canonical normal form.

An expression is a finite sum of terms

    coefficient * monomial * atom * atom * ...

where the coefficient is a Fraction, the monomial is an exponent vector
over the chart's coordinates (see Mono), and the atoms are fractional
powers of polynomials, exponentials of polynomials, or logarithms of
polynomials.  The constructor normalizes aggressively (merging equal power
bases, folding integer exponents, absorbing single-coordinate powers) and
an expression is zero iff its term list is empty.

There is one polynomial form.  A power base or an exp/ln argument is a
tuple of atom-free canonical Terms in Expr order, the form of an atom-free
Expr's terms, so one set of chart-free term operations serves expressions
and atom arguments alike: _normalize collects, _product multiplies, _power
raises to an integer power, _scaled scales, _lowered takes the monomial
part of a partial, and _evaluate evaluates, recursing into the atoms.

Monomial exponents may be negative (y2^(-1) arises from products such as
y2^(1/3) * y2^(-4/3) and from differentiating ln); evaluation guards against
vanishing denominators.

Simplifications outside the supported fragment are intentionally not
attempted: (4*y2)^(1/3) is not rewritten as 4^(1/3)*y2^(1/3) because the
content 4^(1/3) is irrational, and no polynomial factorization is performed.
So the zero test is not complete: powers of one base whose exponents differ
by an integer are kept as separate atoms.  With B = y2 - 1/2*y1^2, the
identically zero y2*B^(-1/3) - 1/2*y1^2*B^(-1/3) - B^(2/3) keeps three
terms; that is why `verify` rejects the scaling symmetry of strazzullo and
`solve strazzullo --degree 2` reports 3 where the dimension is 4.

Every term of an Expr is canonical: _canonical_term returns it unchanged.
Its coefficient is nonzero; its atoms are sorted by atom_sort_key, with at
most one exp atom, power atoms on distinct bases, and no coordinate both
with a nonzero monomial exponent and as the base of a power atom (a bare
coordinate with a fractional exponent).
Arithmetic relies on this: _normalize takes terms known to be canonical as
`ready` and sends only the others with atoms through _canonical_term (an
atom-free term is canonical as it stands).
Sums, scalings and the monomial part of a partial stay canonical, and so
does a product of two terms when neither has atoms, or when one is
atom-free and its monomial avoids the other's bare-coordinate power atoms
(y2 * y2^(1/3) must become y2^(4/3)); see product_is_canonical, the one
rule that multiply_terms, Expr.diff and the solver's row builder apply.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, sub
from typing import Iterable, Mapping, NamedTuple, Union

from .charts import MAX_COORDS, Chart, require_same_chart
from .rationals import exact_pow

# A monomial is a tuple of MAX_COORDS integer exponents, entry i for the
# chart's coordinate i.  J2 and PLANE are prefixes of J20, so their
# monomials are J20's with the trailing exponents zero, and the graded-lex
# order mono_key gives is the same on every chart.
Mono = tuple
Poly = tuple  # an atom's base or argument: atom-free canonical Terms in Expr order

ONE_MONO: Mono = (0,) * MAX_COORDS
UNIT_MONOS = tuple(tuple(int(i == j) for j in range(MAX_COORDS))
                   for i in range(MAX_COORDS))
_UNIT_INDEX = {m: i for i, m in enumerate(UNIT_MONOS)}


class ExprError(ValueError):
    pass


# Powers are sized before they are computed: a coefficient's numerator and
# denominator get at most MAX_POWER_BITS bits, and expanding a k-term
# expression to the n-th power at most MAX_POWER_PRODUCTS coefficient
# products, k * C(k+n-1, n-1) when no terms merge.
MAX_POWER_BITS = 1 << 16
MAX_POWER_PRODUCTS = 20_000


class NonRationalPowerError(ExprError):
    """A rational power with an irrational value was requested exactly."""


class EvaluationError(ExprError):
    """Exact substitution hit an atom it cannot evaluate (exp/ln/irrational)."""


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))

def mono_pow(m: Mono, k: int) -> Mono:
    return tuple(e * k for e in m)

def mono_key(m: Mono):
    """Graded-lex key (total degree first, then exponent vector)."""
    return (sum(m), m)


def _check_power_size(c: Fraction, q: Fraction) -> None:
    """Raise ExprError when c**q would have more than MAX_POWER_BITS bits."""
    size = max(abs(c.numerator), c.denominator)
    if size > 1 and size.bit_length() * abs(q) > MAX_POWER_BITS:
        raise ExprError(f"power too large: ({c})^({q}) has about "
                        f"{math.ceil(size.bit_length() * abs(q))} bits")


def _check_expansion_size(k: int, n: int) -> None:
    """Raise ExprError when a k-term expression to the n-th power is too
    large to expand."""
    if n > 0 and k * math.comb(k + n - 1, n - 1) > MAX_POWER_PRODUCTS:
        raise ExprError(f"power too large: expanding {k} term(s) to the power {n} "
                        f"takes over {MAX_POWER_PRODUCTS} products")


# ---------------------------------------------------------------------------
# terms and atoms
# ---------------------------------------------------------------------------

class Term(NamedTuple):
    coefficient: Fraction
    monomial: Mono
    atoms: tuple


def poly_key(a: Poly):
    return tuple((mono_key(m), c) for c, m, _ in a)

POLY_ONE: Poly = (Term(Fraction(1), ONE_MONO, ()),)


def _poly_content_split(base: Poly):
    """Split a base of two or more terms into sign * content *
    common_monomial * primitive_part."""
    m_c = tuple(map(min, *(m for _, m, _ in base)))
    content = Fraction(math.gcd(*(c.numerator for c, _, _ in base)),
                       math.lcm(*(c.denominator for c, _, _ in base)))
    # dividing by a common monomial keeps the graded order
    reduced = tuple(Term(c / content, tuple(map(sub, m, m_c)), ()) for c, m, _ in base)
    sign = 1 if reduced[0].coefficient > 0 else -1
    if sign < 0:
        reduced = _scaled(reduced, -1)
    return sign, content, m_c, reduced


@dataclass(frozen=True)
class PowerAtom:
    base: Poly
    exponent: Fraction

@dataclass(frozen=True)
class ExpAtom:
    argument: Poly

@dataclass(frozen=True)
class LnAtom:
    argument: Poly

Atom = Union[PowerAtom, ExpAtom, LnAtom]


def _unit_coord_index(base: Poly):
    """Coordinate index when the base is a bare coordinate, else None."""
    if len(base) == 1 and base[0][0] == 1:
        return _UNIT_INDEX.get(base[0][1])
    return None

def _coord_base(idx: int) -> Poly:
    return (Term(Fraction(1), UNIT_MONOS[idx], ()),)

def atom_sort_key(atom: Atom):
    if isinstance(atom, PowerAtom):
        return (0, poly_key(atom.base), atom.exponent)
    if isinstance(atom, ExpAtom):
        return (1, poly_key(atom.argument), Fraction(0))
    return (2, poly_key(atom.argument), Fraction(0))


# ---------------------------------------------------------------------------
# chart-free term operations, for expressions and atom arguments alike
# ---------------------------------------------------------------------------

def _scaled(terms, s) -> tuple:
    """Canonical terms times a nonzero scalar."""
    return tuple(Term(c * s, m, a) for c, m, a in terms)


def _lowered(terms, idx: int) -> list:
    """The part of the d/d(coordinate idx) partial of canonical terms that
    lowers a monomial exponent, as plain (coefficient, monomial, atoms)
    triples.  Lowering an exponent keeps a term canonical, and keeps the
    monomials of atom-free terms distinct and in order.  (A loop, not a
    comprehension: every partial calls this, mostly on a few terms.)"""
    out = []
    for c, m, a in terms:
        e = m[idx]
        if e:
            out.append((c * e, m[:idx] + (e - 1,) + m[idx + 1:], a))
    return out


def _product(left, right) -> tuple:
    """The canonical terms of the product of two sums of canonical terms."""
    ready, raw = [], []
    multiply_terms(ready, raw, left, right)
    return _normalize(raw, ready)


def _power(terms, n: int) -> tuple:
    """The canonical terms of a sum of canonical terms to the integer power
    n >= 0.  One term whose atoms are all exp atoms takes exponent
    arithmetic: coefficient to the n, monomial and exp argument times n.
    Anything else is sized and multiplied out: a power atom's exponents
    summed to an integer expand its base, so ((x+y)^(1/2))^3 becomes
    x*(x+y)^(1/2) + y*(x+y)^(1/2), and only _canonical_term knows how."""
    if n == 0:
        return POLY_ONE
    if len(terms) == 1 and (not terms[0].atoms
                            or all(isinstance(a, ExpAtom) for a in terms[0].atoms)):
        c, m, atoms = terms[0]
        _check_power_size(c, n)
        return (Term(c ** n, mono_pow(m, n),
                     tuple(ExpAtom(_scaled(a.argument, n)) for a in atoms)),)
    _check_expansion_size(len(terms), n)
    out = POLY_ONE
    for _ in range(n):
        out = _product(out, terms)
    return out


def _evaluate(terms, point, cast, atom_value):
    """The value of a sum of canonical terms at point, a list of (coordinate
    name, value) pairs: cast converts the coefficients, and
    atom_value(atom, v) is an atom's factor when its base or argument, a
    sum of terms evaluated by this same loop, has the value v."""
    total = cast(0)
    for c, m, atoms in terms:
        v = cast(c)
        for (name, x), e in zip(point, m):
            if e:
                if e < 0 and x == 0:
                    raise ZeroDivisionError(f"{name} = 0 not admissible (negative power)")
                v *= x ** e
        for atom in atoms:
            poly = atom.base if isinstance(atom, PowerAtom) else atom.argument
            v *= atom_value(atom, _evaluate(poly, point, cast, atom_value))
        total += v
    return total


def _exact_atom_value(atom: Atom, v: Fraction) -> Fraction:
    if isinstance(atom, PowerAtom):
        p = exact_pow(v, atom.exponent)
        if p is None:
            raise NonRationalPowerError(f"{v}^({atom.exponent}) is not rational")
        return p
    if isinstance(atom, ExpAtom):
        if v != 0:
            raise EvaluationError(
                "exp atom with nonzero argument has no exact rational value")
        return Fraction(1)
    if v != 1:
        raise EvaluationError("ln atom with argument != 1 has no exact rational value")
    return Fraction(0)


def _float_atom_value(atom: Atom, v: float) -> float:
    if isinstance(atom, PowerAtom):
        q = atom.exponent
        if v > 0:
            return v ** float(q)
        if v == 0 and q > 0:
            return 0.0
        if v < 0 and q.denominator % 2 == 1:
            return (-v) ** float(q) * (-1.0 if q.numerator % 2 else 1.0)
        raise EvaluationError(f"{v}^({q}) not a real value")
    if isinstance(atom, ExpAtom):
        return math.exp(v)
    if v <= 0:
        raise EvaluationError("ln of a non-positive value")
    return math.log(v)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _odd_root_sign(s: Fraction, q: Fraction):
    """(sign factor, kept scale) of s**q with q not an integer: an odd root
    takes out the sign of a negative s, as (-1)**numerator."""
    if s < 0 and q.denominator % 2 == 1:
        return Fraction(-1 if q.numerator % 2 else 1), -s
    return Fraction(1), s


def _scaled_exponents(m: Mono, q) -> dict:
    """The nonzero exponents of m**q, by coordinate index."""
    return {i: e * q for i, e in enumerate(m) if e}


def _power_parts(base: Poly, q: Fraction):
    """Decompose base**q into (rational_factor, coord_exponents, atoms, poly_factors).

    coord_exponents maps coordinate index -> exponent contribution;
    poly_factors are expanded polynomials to be multiplied into the carrying
    term (from non-negative integer powers of multi-term bases).
    """
    if not base:
        if q > 0:
            return Fraction(0), {}, [], []
        raise ExprError("zero raised to a non-positive power")
    if len(base) == 1:
        c, m, _ = base[0]
        _check_power_size(c, q)
        if q.denominator == 1:
            n = int(q)
            return c ** n, _scaled_exponents(m, n), [], []
        cf = exact_pow(c, q)
        if cf is not None:
            return cf, _scaled_exponents(m, q), [], []
        if m == ONE_MONO:
            raise NonRationalPowerError(f"{c}^({q}) is not rational")
        sign_factor, c_kept = _odd_root_sign(c, q)
        return sign_factor, {}, [PowerAtom((Term(c_kept, m, ()),), q)], []
    sign, content, m_c, primitive = _poly_content_split(base)
    _check_power_size(content, q)
    if q.denominator == 1:
        n = int(q)
        factor = Fraction(sign) ** n * content ** n
        coord = _scaled_exponents(m_c, n)
        if n > 0:
            return factor, coord, [], [_power(primitive, n)]
        # negative integer power of an irreducible-for-us polynomial: kept as
        # an atom (closure needed by the ln chain rule)
        return factor, coord, [PowerAtom(primitive, q)], []
    coord = _scaled_exponents(m_c, q)
    sc = exact_pow(Fraction(sign) * content, q)
    if sc is not None:
        return sc, coord, [PowerAtom(primitive, q)], []
    sign_factor, kept_scale = _odd_root_sign(Fraction(sign) * content, q)
    return sign_factor, coord, [PowerAtom(_scaled(primitive, kept_scale), q)], []


def _canonical_term(coeff: Fraction, mono: Mono, atoms: Iterable):
    """Return (coeff, mono, atoms, poly_factors); coeff 0 means the term died."""
    coord = list(mono)  # int exponents, Fraction once a power adds to one
    powers: dict = {}
    exp_args: list = []
    lns: list = []
    polys: list = []
    for atom in atoms:
        if isinstance(atom, PowerAtom):
            if atom.exponent == 0:
                continue
            idx = _unit_coord_index(atom.base)
            if idx is not None:
                coord[idx] += atom.exponent
            else:
                q = powers.get(atom.base, Fraction(0)) + atom.exponent
                if q:
                    powers[atom.base] = q
                else:
                    powers.pop(atom.base, None)
        elif isinstance(atom, ExpAtom):
            exp_args.append(atom.argument)
        elif isinstance(atom, LnAtom):
            if not atom.argument:
                raise ExprError("ln(0) is undefined")
            if atom.argument == POLY_ONE:
                return Fraction(0), ONE_MONO, (), []
            lns.append(atom)
        else:  # pragma: no cover
            raise TypeError(f"unknown atom {atom!r}")
    out_atoms: list = []
    pending = powers
    while pending:
        decomposed: dict = {}
        identity = True
        for base in sorted(pending, key=poly_key):
            q = pending[base]
            cf, coord_add, atoms_o, polys_o = _power_parts(base, q)
            if cf == 0:
                return Fraction(0), ONE_MONO, (), []
            coeff *= cf
            polys.extend(polys_o)
            for i, e in coord_add.items():
                coord[i] += e
            if not (cf == 1 and not coord_add and not polys_o
                    and len(atoms_o) == 1
                    and atoms_o[0].base == base and atoms_o[0].exponent == q):
                identity = False
            for a in atoms_o:
                q2 = decomposed.get(a.base, Fraction(0)) + a.exponent
                if q2:
                    decomposed[a.base] = q2
                else:
                    decomposed.pop(a.base, None)
        if identity and len(decomposed) == len(pending):
            for b in sorted(decomposed, key=poly_key):
                out_atoms.append(PowerAtom(b, decomposed[b]))
            break
        pending = decomposed
    for i, e in enumerate(coord):
        if e.denominator != 1:
            out_atoms.append(PowerAtom(_coord_base(i), e))
            coord[i] = 0
    if exp_args:
        # a lone argument is canonical as it stands
        exp_arg = exp_args[0] if len(exp_args) == 1 else _normalize((), chain(*exp_args))
        if exp_arg:
            out_atoms.append(ExpAtom(exp_arg))
    out_atoms.extend(lns)
    out_atoms.sort(key=atom_sort_key)
    return coeff, tuple(map(int, coord)), tuple(out_atoms), polys


def _canonical_terms(raw):
    """The nonzero canonical terms a sum of raw terms expands to, with
    repeats; an atom-free raw term is canonical as it stands."""
    stack = list(raw)
    while stack:
        coeff, mono, atoms = stack.pop()
        if coeff == 0:
            continue
        if atoms:
            coeff, mono, atoms, polys = _canonical_term(coeff, mono, atoms)
            if coeff == 0:
                continue
            if polys:
                for c2, m2, _ in reduce(_product, polys):
                    stack.append((coeff * c2, mono_mul(mono, m2), atoms))
                continue
        yield coeff, mono, atoms


def _term_key(t: Term):
    return mono_key(t.monomial), tuple(map(atom_sort_key, t.atoms))


def _normalize(raw, ready=()) -> tuple:
    """The sorted canonical terms of a sum of (coefficient, monomial, atoms)
    triples: the ready ones are canonical already and are only collected,
    the raw ones go through _canonical_terms."""
    acc: dict = {}
    for coeff, mono, atoms in chain(ready, _canonical_terms(raw)):
        key = (mono, atoms)
        c2 = acc.get(key)
        if c2 is None:
            acc[key] = coeff
        else:
            c2 += coeff
            if c2:
                acc[key] = c2
            else:
                del acc[key]
    terms = [Term(c, m, a) for (m, a), c in acc.items()]
    terms.sort(key=_term_key, reverse=True)
    return tuple(terms)


def bare_coords(atoms):
    """The coordinates that occur as the base of a power atom, or None for
    no atoms at all (an atom-free term)."""
    if not atoms:
        return None
    return frozenset(i for a in atoms if isinstance(a, PowerAtom)
                     for i in (_unit_coord_index(a.base),) if i is not None)


def product_is_canonical(mono: Mono, bare1, bare2) -> bool:
    """Whether the product of two terms is canonical as it stands, given
    the product's monomial and each side's bare_coords.  The sides'
    atoms must be canonical; a side with atoms may carry any monomial, since
    only the product's is checked.  The product is canonical when neither
    side has atoms, or when one side is atom-free and the product's monomial
    avoids the other side's bare-coordinate power atoms (y2 * y2^(1/3) must
    become y2^(4/3)).  When both sides have atoms, they need merging."""
    if bare1 is None:
        return bare2 is None or not any(mono[i] for i in bare2)
    return bare2 is None and not any(mono[i] for i in bare1)


def multiply_terms(ready: list, raw: list, left, right, sign=1) -> None:
    """Append sign times every product of a left and a right canonical
    term: to ready when the product is canonical as it stands
    (product_is_canonical), to raw otherwise."""
    if not (left and right):
        return
    right = [(t, bare_coords(t.atoms)) for t in right]
    for t1 in left:
        c1 = t1.coefficient if sign == 1 else sign * t1.coefficient
        m1, a1 = t1.monomial, t1.atoms
        b1 = bare_coords(a1)
        for t2, b2 in right:
            product = (c1 * t2.coefficient, mono_mul(m1, t2.monomial), a1 + t2.atoms)
            (ready if product_is_canonical(product[1], b1, b2) else raw).append(product)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    chart: Chart
    terms: tuple

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_raw(chart: Chart, raw, ready=()) -> "Expr":
        """The canonical sum of raw (coefficient, monomial, atoms) triples,
        whose monomials are in Mono form, and of ready ones, which must be
        canonical terms already."""
        return Expr(chart, _normalize(raw, ready))

    @staticmethod
    def zero(chart: Chart) -> "Expr":
        return Expr(chart, ())

    @staticmethod
    def constant(chart: Chart, value) -> "Expr":
        value = Fraction(value)
        if value == 0:
            return Expr.zero(chart)
        return Expr(chart, (Term(value, ONE_MONO, ()),))

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "Expr":
        idx = chart.index(name)
        return Expr(chart, (Term(Fraction(1), UNIT_MONOS[idx], ()),))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Expr") -> "Expr":
        require_same_chart(self, other)
        return Expr.from_raw(self.chart, (), self.terms + other.terms)

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __neg__(self) -> "Expr":
        return Expr(self.chart, tuple(Term(-c, m, a) for c, m, a in self.terms))

    def scale(self, s) -> "Expr":
        s = Fraction(s)
        if s == 0:
            return Expr.zero(self.chart)
        return Expr(self.chart, _scaled(self.terms, s))

    def __mul__(self, other) -> "Expr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        require_same_chart(self, other)
        return Expr(self.chart, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent) -> "Expr":
        exponent = Fraction(exponent)
        if exponent.denominator != 1 or exponent < 0:
            return self.pow_rational(exponent)
        return Expr(self.chart, _power(self.terms, int(exponent)))

    def pow_rational(self, exponent) -> "Expr":
        """Raise to a rational power; the base must be atom-free."""
        exponent = Fraction(exponent)
        poly = self.as_poly()
        return Expr.from_raw(self.chart,
                             [(Fraction(1), ONE_MONO, (PowerAtom(poly, exponent),))])

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def equals(self, other: "Expr") -> bool:
        require_same_chart(self, other)
        return (self - other).is_zero()

    def as_poly(self) -> Poly:
        """The expression as an atom-free polynomial; raises if atoms occur."""
        for t in self.terms:
            if t.atoms:
                raise ExprError("expression is not a polynomial (atoms present)")
            if min(t.monomial) < 0:
                raise ExprError("expression is not a polynomial (negative power)")
        return self.terms

    def coordinates_used(self) -> set:
        monos = []
        for t in self.terms:
            monos.append(t.monomial)
            for a in t.atoms:
                poly = a.base if isinstance(a, PowerAtom) else a.argument
                monos.extend(u.monomial for u in poly)
        return {i for m in monos for i, e in enumerate(m) if e}

    # -- calculus ----------------------------------------------------------

    def diff(self, coord: str) -> "Expr":
        idx = self.chart.index(coord)
        ready, raw = _lowered(self.terms, idx), []
        for c, m, atoms in self.terms:
            for k, atom in enumerate(atoms):
                poly = atom.base if isinstance(atom, PowerAtom) else atom.argument
                lowered = _lowered(poly, idx)
                if not lowered:
                    continue
                if isinstance(atom, ExpAtom):
                    # a product with an atom-free term
                    bare = bare_coords(atoms)
                    for c2, m2, _ in lowered:
                        product = (c * c2, mono_mul(m, m2), atoms)
                        (ready if product_is_canonical(product[1], bare, None)
                         else raw).append(product)
                    continue
                if isinstance(atom, PowerAtom):
                    s, factor = atom.exponent, PowerAtom(poly, atom.exponent - 1)
                else:  # LnAtom
                    s, factor = 1, PowerAtom(poly, Fraction(-1))
                rest = atoms[:k] + atoms[k + 1:] + (factor,)
                for c2, m2, _ in lowered:
                    raw.append((c * s * c2, mono_mul(m, m2), rest))
        return Expr.from_raw(self.chart, raw, ready)

    # -- evaluation --------------------------------------------------------

    def _point(self, assignment: Mapping[str, object], cast):
        missing = {self.chart.coords[i] for i in self.coordinates_used()} - set(assignment)
        if missing:
            raise EvaluationError(f"missing values for {sorted(missing)}")
        return [(c, cast(assignment.get(c, 0))) for c in self.chart.coords]

    def substitute(self, assignment: Mapping[str, object]) -> Fraction:
        """Exact value at a rational point.

        Raises EvaluationError for exp/ln atoms (unless the argument
        evaluates to 0 resp. 1) and NonRationalPowerError when a power atom
        has an irrational value at the point.
        """
        return _evaluate(self.terms, self._point(assignment, Fraction), Fraction,
                         _exact_atom_value)

    def approx(self, assignment: Mapping[str, object]) -> float:
        """Floating-point value; used only for randomized cross-checks."""
        return _evaluate(self.terms, self._point(assignment, float), float,
                         _float_atom_value)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"Expr({self.chart.name}: {to_text(self)})"


# ---------------------------------------------------------------------------
# deterministic printing (the output re-parses to the same canonical form)
# ---------------------------------------------------------------------------

def _exp_text(e) -> str:
    if isinstance(e, Fraction) and e.denominator == 1:
        e = int(e)
    if isinstance(e, int):
        return f"^{e}" if e >= 0 else f"^({e})"
    return f"^({e})"

def _mono_factors(m: Mono, chart: Chart):
    return [name if e == 1 else name + _exp_text(e)
            for name, e in zip(chart.coords, m) if e]

def _sum_text(terms, chart: Chart, unit_minus: str) -> str:
    """Terms as a signed sum; a leading negative unit coefficient before
    factors prints as unit_minus."""
    if not terms:
        return "0"
    pieces = []
    for n, (c, m, atoms) in enumerate(terms):
        factors = _mono_factors(m, chart) + [_atom_text(a, chart) for a in atoms]
        mag = abs(c)
        unit = mag == 1 and factors
        body = "*".join(factors if unit else [str(mag)] + factors)
        if n == 0:
            if c < 0:
                body = (unit_minus if unit else "-") + body
            pieces.append(body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)

def poly_text(poly: Poly, chart: Chart) -> str:
    """An atom's base or argument; a leading -x prints as -x, not -1*x."""
    return _sum_text(poly, chart, "-")

def _atom_text(atom: Atom, chart: Chart) -> str:
    if isinstance(atom, PowerAtom):
        idx = _unit_coord_index(atom.base)
        if idx is not None:
            return chart.coords[idx] + _exp_text(atom.exponent)
        return "(" + poly_text(atom.base, chart) + ")" + _exp_text(atom.exponent)
    if isinstance(atom, ExpAtom):
        return "exp(" + poly_text(atom.argument, chart) + ")"
    return "ln(" + poly_text(atom.argument, chart) + ")"

def to_text(expr: Expr) -> str:
    # a leading negative coefficient is emitted as a signed literal, so a
    # lone "-x" prints as "-1*x" and stays inside the grammar
    return _sum_text(expr.terms, expr.chart, "-1*")
