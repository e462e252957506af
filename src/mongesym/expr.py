"""Exact symbolic expressions in canonical normal form.

An expression is a finite sum of terms

    (numerator / den) * monomial * atom * atom * ...

over one denominator.  The numerators are ints and den is a positive int,
kept in lowest terms: gcd(den, every numerator) = 1, and zero has den 1, so
equal values have equal representations.  The monomial is an exponent vector
over J20's coordinates (x, y, y1, y2, z) (see Mono), so an expression is the
same on every chart and carries none, and the atoms are fractional powers of
polynomials, exponentials of polynomials, or logarithms of polynomials.
The constructor normalizes aggressively (merging equal power bases, folding
integer exponents, absorbing single-coordinate powers) and an expression is
zero iff its term list is empty.

There is one form.  A power base or an exp/ln argument is an atom-free
Expr, so one set of term operations serves expressions and atom arguments
alike, each handing back an Expr: _normalize collects, _sum adds, _product
multiplies, _power raises to an integer power, _scaled scales and _lowest
reduces to lowest terms.  _lowered takes the monomial part of a partial, and
_evaluate evaluates, recursing into the atoms.  Every coefficient operation
lives in those functions, in _power_parts and _canonical_term (which fold
the rational factors that content powers and exact roots take out into the
denominator), and in multiply_terms and Expr.diff; they touch ints only.  Fractions appear at the
interface alone: literals and exponents, constant and scale, printing,
substitute and approx, and Expr.coefficient.

Monomial exponents may be negative (y2^(-1) arises from products such as
y2^(1/3) * y2^(-4/3) and from differentiating ln); evaluation guards against
vanishing denominators.  Roots of a one-term base are taken positive, so
(4*y2^2)^(1/2) - 2*y2 normalizes to 0; no sign is assumed for a base of two
or more terms, so ((y2+y1)^2)^(1/2) - (y2+y1) keeps its root and is nonzero.

Simplifications outside the supported fragment are intentionally not
attempted: (4*y2)^(1/3) is not rewritten as 4^(1/3)*y2^(1/3) because the
content 4^(1/3) is irrational, and no polynomial factorization is performed.
So the zero test is not complete: powers of one base whose exponents differ
by an integer are kept as separate atoms.  With B = y2 - 1/2*y1^2, the
identically zero y2*B^(-1/3) - 1/2*y1^2*B^(-1/3) - B^(2/3) keeps three
terms; that is why `verify` rejects the scaling symmetry of strazzullo and
`solve strazzullo --degree 2` reports 3 where the dimension is 4.

Every term of an Expr is canonical: _canonical_term returns it unchanged.
Its numerator is nonzero; its atoms are sorted (atoms order by kind, then
base or argument, then exponent), with at most one exp atom, power atoms on
distinct bases, and no coordinate both with a nonzero monomial exponent and
as the base of a power atom (a bare coordinate with a fractional exponent).
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
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import sub
from typing import Mapping, NamedTuple, Union

from .charts import J20
from .rationals import exact_pow, ratio_pow

# A monomial is a tuple of five integer exponents, entry i for J20's
# coordinate i.  Every chart is a prefix of J20, so a monomial on J2 or
# PLANE is J20's with the trailing exponents zero.
Mono = tuple

ONE_MONO: Mono = (0,) * len(J20)
UNIT_MONOS = tuple(tuple(int(i == j) for j in range(len(J20))) for i in range(len(J20)))
_UNIT_INDEX = {m: i for i, m in enumerate(UNIT_MONOS)}


class ExprError(ValueError):
    pass


def shortened(text: str) -> str:
    """A number's text in an error's reason, cut as parser.quoted cuts but at
    40 characters, since the reason follows an argument quoted to 80."""
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def number_text(q) -> str:
    """str(q) for an int or a Fraction, or ExprError past the digits Python
    converts to text (sys.get_int_max_str_digits(), which stays as it is)."""
    try:
        return str(q)
    except ValueError:  # str of an int raises it only past that limit
        raise ExprError(f"a number has more than the {sys.get_int_max_str_digits()} "
                        "digits Python converts to text") from None


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
    # unrolled over the five entries: three times as fast as a map
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4])

def mono_pow(m: Mono, k: int) -> Mono:
    return tuple(e * k for e in m)

def mono_key(m: Mono):
    """Graded-lex key (total degree first, then exponent vector)."""
    return (sum(m), m)


def _ratio_text(n: int, d: int) -> str:
    """n/d as Fraction prints it (number_text)."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return number_text(n) if d == 1 else f"{number_text(n)}/{number_text(d)}"


def _check_power_size(n: int, d: int, q) -> None:
    """Raise ExprError when (n/d)**q, q an int or a Fraction, would have more
    than MAX_POWER_BITS bits."""
    size = max(abs(n), d)
    if size > 1 and size.bit_length() * abs(q.numerator) > MAX_POWER_BITS * q.denominator:
        raise ExprError(f"power too large: ({shortened(_ratio_text(n, d))})"
                        f"^({shortened(number_text(q))}) has about "
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
    numerator: int  # over the enclosing Expr's den
    monomial: Mono
    atoms: tuple


def _poly_cmp(a: "Expr", b: "Expr") -> int:
    """-1, 0 or 1 as a sorts before, with or after b: term by term, by
    monomial in graded order and then by coefficient value, and a proper
    prefix first."""
    for (ca, ma, _), (cb, mb, _) in zip(a.terms, b.terms):
        if ma != mb:
            return -1 if mono_key(ma) < mono_key(mb) else 1
        x, y = ca * b.den, cb * a.den
        if x != y:
            return -1 if x < y else 1
    return (len(a.terms) > len(b.terms)) - (len(a.terms) < len(b.terms))


class _Atom:
    """Atoms sort by kind (power, exp, ln), then by base or argument
    (_poly_cmp), then by exponent.  An atom equals only an atom of its own
    kind with equal fields, so exp(p) != ln(p) though the two hash alike,
    and its hash, that of its fields' tuple, is taken once, at construction."""
    __slots__ = ("_key", "_hash")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._key))})"

    def __lt__(self, other: "_Atom") -> bool:
        if self.RANK != other.RANK:
            return self.RANK < other.RANK
        c = _poly_cmp(atom_poly(self), atom_poly(other))
        if c:
            return c < 0
        return self.RANK == 0 and self.exponent < other.exponent


class PowerAtom(_Atom):
    __slots__ = ("base", "exponent")
    RANK = 0

    def __init__(self, base: "Expr", exponent: Fraction):
        self.base, self.exponent = self._key = (base, exponent)
        self._hash = hash(self._key)

class _Applied(_Atom):
    """exp or ln of an argument."""
    __slots__ = ("argument",)

    def __init__(self, argument: "Expr"):
        self.argument = argument
        self._key = (argument,)
        self._hash = hash(self._key)

class ExpAtom(_Applied):
    __slots__ = ()
    RANK = 1

class LnAtom(_Applied):
    __slots__ = ()
    RANK = 2

Atom = Union[PowerAtom, ExpAtom, LnAtom]


def atom_poly(atom: Atom) -> "Expr":
    """A power atom's base, an exp or ln atom's argument."""
    return atom.base if type(atom) is PowerAtom else atom.argument


def _unit_coord_index(base: "Expr"):
    """Coordinate index when the base is a bare coordinate, else None."""
    terms = base.terms
    if len(terms) == 1 and terms[0][0] == 1 and base.den == 1:
        return _UNIT_INDEX.get(terms[0][1])
    return None


def _poly_content_split(terms):
    """Split the numerators of a base of two or more terms into sign *
    content * common_monomial * primitive_part, content a positive int."""
    m_c = tuple(map(min, *(m for _, m, _ in terms)))
    content = math.gcd(*(c for c, _, _ in terms))
    sign = 1 if terms[0][0] > 0 else -1
    # dividing by a common monomial keeps the graded order
    k = sign * content
    primitive = tuple(Term(c // k, tuple(map(sub, m, m_c)), ()) for c, m, _ in terms)
    return sign, content, m_c, primitive


# ---------------------------------------------------------------------------
# term operations, for expressions and atom arguments alike
# ---------------------------------------------------------------------------

def _lowest(terms: tuple, den: int) -> "Expr":
    """Sorted canonical terms with integer numerators over den > 0, as an
    Expr in lowest terms."""
    if den == 1:
        return Expr(terms)
    g = math.gcd(den, *(t[0] for t in terms))
    if g == 1:
        return Expr(terms, den)
    return Expr(tuple(Term(c // g, m, a) for c, m, a in terms), den // g)


def _scaled(e: "Expr", p: int, r: int = 1) -> "Expr":
    """e times the nonzero rational p/r, r > 0."""
    return _lowest(tuple(Term(c * p, m, a) for c, m, a in e.terms), e.den * r)


def _sum(exprs) -> "Expr":
    """The sum of expressions, over the lcm of their denominators."""
    den = math.lcm(*[e.den for e in exprs])
    ready = []
    for e in exprs:
        k = den // e.den
        ready.extend(e.terms if k == 1 else [(c * k, m, a) for c, m, a in e.terms])
    return _normalize((), ready, den)


def _lowered(terms, idx: int) -> list:
    """The part of the d/d(coordinate idx) partial of canonical terms that
    lowers a monomial exponent, as Terms over the terms' denominator.
    Lowering an exponent keeps a term canonical, and keeps the terms
    distinct and in order, so for atom-free terms it is the whole partial.
    (A loop, not a comprehension: every partial calls this, mostly on a few
    terms.)"""
    out = []
    for c, m, a in terms:
        e = m[idx]
        if e:
            out.append(Term(c * e, m[:idx] + (e - 1,) + m[idx + 1:], a))
    return out


def _product(left: "Expr", right: "Expr") -> "Expr":
    """The product of two expressions."""
    ready, raw = [], []
    multiply_terms(ready, raw, left.terms, right.terms)
    return _normalize(raw, ready, left.den * right.den)


def _power(e: "Expr", n: int) -> "Expr":
    """e to the integer power n >= 0.  One term whose atoms are all exp
    atoms takes exponent arithmetic: coefficient to the n, monomial and exp
    argument times n.  Anything else is sized and multiplied out: a power
    atom's exponents summed to an integer expand its base, so
    ((x+y)^(1/2))^3 becomes x*(x+y)^(1/2) + y*(x+y)^(1/2), and only
    _canonical_term knows how."""
    if n == 0:
        return EXPR_ONE
    terms = e.terms
    if len(terms) == 1 and (not terms[0].atoms
                            or all(type(a) is ExpAtom for a in terms[0].atoms)):
        c, m, atoms = terms[0]
        _check_power_size(c, e.den, n)
        return Expr((Term(c ** n, mono_pow(m, n),
                          tuple(ExpAtom(_scaled(a.argument, n)) for a in atoms)),),
                    e.den ** n)
    _check_expansion_size(len(terms), n)
    out = EXPR_ONE
    for _ in range(n):
        out = _product(out, e)
    return out


def _evaluate(expr: "Expr", point, cast, atom_value):
    """The value of expr at point, a list of (coordinate name, value) pairs:
    cast converts the numerators and the denominator, and atom_value(atom, v)
    is an atom's factor when its base or argument, evaluated by this same
    loop, has the value v."""
    total = cast(0)
    for c, m, atoms in expr.terms:
        v = cast(c)
        for (name, x), e in zip(point, m):
            if e:
                if e < 0 and x == 0:
                    raise ZeroDivisionError(f"{name} = 0 not admissible (negative power)")
                v *= x ** e
        for atom in atoms:
            v *= atom_value(atom, _evaluate(atom_poly(atom), point, cast, atom_value))
        total += v
    return total / cast(expr.den)


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

def _odd_root_sign(s: int, q: Fraction):
    """(sign factor, kept scale) of s**q with q not an integer: an odd root
    takes out the sign of a negative s, as (-1)**numerator."""
    if s < 0 and q.denominator % 2 == 1:
        return -1 if q.numerator % 2 else 1, -s
    return 1, s


def _scaled_exponents(m: Mono, q) -> dict:
    """The nonzero exponents of m**q, by coordinate index."""
    return {i: e * q for i, e in enumerate(m) if e}


def _power_parts(base: "Expr", q: Fraction):
    """Decompose base**q into (factor, coord_exponents, atoms, poly_factors).

    factor is a rational (numerator, denominator > 0): the powers of a
    numerical content, and the exact roots; coord_exponents maps coordinate
    index -> exponent contribution; poly_factors are expanded polynomials
    with denominator 1 to be multiplied into the carrying term (from
    non-negative integer powers of multi-term bases).
    """
    terms, den = base
    if not terms:
        if q > 0:
            return (0, 1), {}, [], []
        raise ExprError("zero raised to a non-positive power")
    if len(terms) == 1:
        c, m, _ = terms[0]
        _check_power_size(c, den, q)
        cf = ratio_pow(c, den, q)  # never None for an integer q
        if cf is not None:
            return cf, _scaled_exponents(m, q.numerator if q.denominator == 1 else q), [], []
        if m == ONE_MONO:
            raise NonRationalPowerError(f"{_ratio_text(c, den)}^({q}) is not rational")
        sign_factor, c_kept = _odd_root_sign(c, q)
        return (sign_factor, 1), {}, [PowerAtom(Expr((Term(c_kept, m, ()),), den), q)], []
    sign, content, m_c, primitive = _poly_content_split(terms)
    _check_power_size(content, den, q)
    factor = ratio_pow(sign * content, den, q)
    if q.denominator == 1:
        n = q.numerator
        coord = _scaled_exponents(m_c, n)
        if n > 0:
            return factor, coord, [], [_power(Expr(primitive), n)]
        # negative integer power of an irreducible-for-us polynomial: kept as
        # an atom (closure needed by the ln chain rule)
        return factor, coord, [PowerAtom(Expr(primitive), q)], []
    coord = _scaled_exponents(m_c, q)
    if factor is not None:
        return factor, coord, [PowerAtom(Expr(primitive), q)], []
    sign_factor, kept = _odd_root_sign(sign * content, q)
    return (sign_factor, 1), coord, [PowerAtom(_scaled(Expr(primitive), kept, den), q)], []


def _canonical_term(mono: Mono, atoms):
    """Return (factor, mono, atoms, poly_factors): the product mono * atoms
    is factor * mono * atoms * (the product of poly_factors) with the
    returned parts, factor a rational (numerator, denominator > 0) in lowest
    terms; numerator 0 means the term vanishes."""
    coord = list(mono)  # int exponents, Fraction once a power adds to one
    powers: dict = {}
    exp_args: list = []
    lns: list = []
    polys: list = []
    for atom in atoms:
        if isinstance(atom, PowerAtom):
            if not atom.exponent:
                continue
            idx = _unit_coord_index(atom.base)
            if idx is not None:
                coord[idx] += atom.exponent
            else:
                q = powers.get(atom.base)
                q = atom.exponent if q is None else q + atom.exponent
                if q:
                    powers[atom.base] = q
                else:
                    del powers[atom.base]
        elif isinstance(atom, ExpAtom):
            exp_args.append(atom.argument)
        elif isinstance(atom, LnAtom):
            if not atom.argument.terms:
                raise ExprError("ln(0) is undefined")
            if atom.argument == EXPR_ONE:
                return (0, 1), ONE_MONO, (), []
            lns.append(atom)
        else:  # pragma: no cover
            raise TypeError(f"unknown atom {atom!r}")
    p = r = 1
    out_atoms: list = []
    pending = powers
    while pending:
        decomposed: dict = {}
        identity = True
        for base, q in pending.items():
            (fp, fr), coord_add, atoms_o, polys_o = _power_parts(base, q)
            if not fp:
                return (0, 1), ONE_MONO, (), []
            p *= fp
            r *= fr
            polys.extend(polys_o)
            for i, e in coord_add.items():
                coord[i] += e
            if not (fp == fr == 1 and not coord_add and not polys_o
                    and len(atoms_o) == 1
                    and atoms_o[0].base == base and atoms_o[0].exponent == q):
                identity = False
            for a in atoms_o:
                q2 = decomposed.get(a.base)
                q2 = a.exponent if q2 is None else q2 + a.exponent
                if q2:
                    decomposed[a.base] = q2
                else:
                    del decomposed[a.base]
        if identity and len(decomposed) == len(pending):
            out_atoms.extend(PowerAtom(b, e) for b, e in decomposed.items())
            break
        pending = decomposed
    for i, e in enumerate(coord):
        if e.denominator != 1:
            out_atoms.append(PowerAtom(_COORD_BASES[i], e))
            coord[i] = 0
    if exp_args:
        # a lone argument is canonical as it stands
        exp_arg = exp_args[0] if len(exp_args) == 1 else _sum(exp_args)
        if exp_arg.terms:
            out_atoms.append(ExpAtom(exp_arg))
    out_atoms.extend(lns)
    out_atoms.sort()
    if r != 1:
        g = math.gcd(p, r)
        p, r = p // g, r // g
    return (p, r), tuple(map(int, coord)), tuple(out_atoms), polys


def _canonical_terms(raw) -> list:
    """The nonzero canonical terms a sum of raw (numerator, monomial, atoms)
    terms expands to, with repeats, as (numerator, denominator, monomial,
    atoms): the denominator is what canonicalization takes out of the term
    (_canonical_term's factor).  An atom-free raw term is canonical as it
    stands."""
    out = []
    for coeff, mono, atoms in raw:
        if not coeff:
            continue
        if not atoms:
            out.append((coeff, 1, mono, atoms))
            continue
        (p, r), mono, atoms, polys = _canonical_term(mono, atoms)
        if not p:
            continue
        if polys:
            out.extend((c, d * r, m, a) for c, d, m, a in _canonical_terms(
                [(coeff * p * c2, mono_mul(mono, m2), atoms)
                 for c2, m2, _ in reduce(_product, polys).terms]))
        else:
            out.append((coeff * p, r, mono, atoms))
    return out


def _term_key(t: Term):
    return mono_key(t.monomial), t.atoms


def _normalize(raw, ready=(), den: int = 1) -> "Expr":
    """The canonical sum of (numerator, monomial, atoms) triples over the
    common denominator den, as an Expr; Expr.from_raw is this function.
    The raw triples have their monomials in Mono form and go through
    _canonical_terms, and the denominator those take out joins den; the
    ready ones must be canonical terms already and are only collected."""
    if raw:
        canonical = _canonical_terms(raw)
        scale = math.lcm(*[d for _, d, _, _ in canonical])
        if scale != 1:
            den *= scale
            ready = [(c * scale, m, a) for c, m, a in ready]
        ready = chain(ready, [(c * (scale // d), m, a) for c, d, m, a in canonical])
    acc: dict = {}
    for coeff, mono, atoms in ready:
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
    return Expr(tuple(terms)) if den == 1 else _lowest(tuple(terms), den)


def bare_coords(atoms):
    """The coordinates that occur as the base of a power atom, or None for
    no atoms at all (an atom-free term)."""
    if not atoms:
        return None
    return frozenset(i for a in atoms if type(a) is PowerAtom
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


def multiply_terms(ready: list, raw: list, left, right, scale: int = 1) -> None:
    """Append scale times every product of a left and a right canonical
    term, numerators multiplied: to ready when the product is canonical as
    it stands (product_is_canonical), to raw otherwise."""
    if not (left and right):
        return
    right = [(t, bare_coords(t.atoms)) for t in right]
    for c1, m1, a1 in left:
        c1 *= scale
        b1 = bare_coords(a1)
        for t2, b2 in right:
            product = (c1 * t2.numerator, mono_mul(m1, t2.monomial), a1 + t2.atoms)
            (ready if product_is_canonical(product[1], b1, b2) else raw).append(product)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr(NamedTuple):
    """An expression on J20: canonical terms with integer numerators over
    den, in lowest terms (the module docstring).  Immutable, and as light to
    build as a tuple, which it is."""
    terms: tuple
    den: int = 1

    # -- constructors ------------------------------------------------------

    from_raw = staticmethod(_normalize)

    @staticmethod
    def zero() -> "Expr":
        return Expr(())

    @staticmethod
    def constant(value) -> "Expr":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        if value == 0:
            return Expr(())
        return Expr((Term(value.numerator, ONE_MONO, ()),), value.denominator)

    @staticmethod
    def coordinate(name: str) -> "Expr":
        return _COORD_BASES[J20.index(name)]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Expr") -> "Expr":
        return _sum((self, other))

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __neg__(self) -> "Expr":
        return Expr(tuple(Term(-c, m, a) for c, m, a in self.terms), self.den)

    def scale(self, s) -> "Expr":
        if not isinstance(s, (int, Fraction)):
            s = Fraction(s)
        if s == 0:
            return Expr(())
        return _scaled(self, s.numerator, s.denominator)

    def __mul__(self, other) -> "Expr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return _product(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent) -> "Expr":
        if not isinstance(exponent, (int, Fraction)):
            exponent = Fraction(exponent)
        if exponent.denominator != 1 or exponent < 0:
            return self.pow_rational(exponent)
        return _power(self, exponent.numerator)

    def pow_rational(self, exponent) -> "Expr":
        """Raise to a rational power; the base must be atom-free."""
        if not isinstance(exponent, Fraction):
            exponent = Fraction(exponent)
        return Expr.from_raw([(1, ONE_MONO, (PowerAtom(self.as_poly(), exponent),))])

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def equals(self, other: "Expr") -> bool:
        return (self - other).is_zero()

    def coefficient(self, k: int) -> Fraction:
        """The rational coefficient of term k."""
        return Fraction(self.terms[k].numerator, self.den)

    def as_poly(self) -> "Expr":
        """The expression itself, checked to be an atom-free polynomial."""
        for t in self.terms:
            if t.atoms:
                raise ExprError("expression is not a polynomial (atoms present)")
            if min(t.monomial) < 0:
                raise ExprError("expression is not a polynomial (negative power)")
        return self

    def coordinates_used(self) -> set:
        monos = []
        for t in self.terms:
            monos.append(t.monomial)
            for a in t.atoms:
                monos.extend(u.monomial for u in atom_poly(a).terms)
        return {i for m in monos for i, e in enumerate(m) if e}

    # -- calculus ----------------------------------------------------------

    def diff(self, coord: str) -> "Expr":
        """The partial by one coordinate.  The chain rule of an atom brings
        in the denominator of its base or argument, and a power atom's also
        that of its exponent; the partial is over den times their lcm."""
        idx = J20.index(coord)
        for t in self.terms:
            if t.atoms:
                break
        else:
            return _lowest(tuple(_lowered(self.terms, idx)), self.den)
        chains = []  # (denominator, numerator, monomial, atoms, lowered, exp?)
        for c, m, atoms in self.terms:
            for k, atom in enumerate(atoms):
                poly = atom_poly(atom)
                lowered = _lowered(poly.terms, idx)
                if not lowered:
                    continue
                if type(atom) is ExpAtom:
                    chains.append((poly.den, c, m, atoms, lowered, True))
                    continue
                if type(atom) is PowerAtom:
                    s, factor = atom.exponent, PowerAtom(poly, atom.exponent - 1)
                else:  # LnAtom
                    s, factor = 1, PowerAtom(poly, Fraction(-1))
                chains.append((poly.den * s.denominator, c * s.numerator, m,
                               atoms[:k] + atoms[k + 1:] + (factor,), lowered, False))
        ready, raw = _lowered(self.terms, idx), []
        lcm = math.lcm(*[ch[0] for ch in chains])
        if lcm != 1:
            ready = [(c * lcm, m, a) for c, m, a in ready]
        for d, c, m, atoms, lowered, exp in chains:
            c *= lcm // d
            if exp:
                # a product with an atom-free term
                bare = bare_coords(atoms)
                for c2, m2, _ in lowered:
                    product = (c * c2, mono_mul(m, m2), atoms)
                    (ready if product_is_canonical(product[1], bare, None)
                     else raw).append(product)
            else:
                raw.extend((c * c2, mono_mul(m, m2), atoms) for c2, m2, _ in lowered)
        return Expr.from_raw(raw, ready, self.den * lcm)

    # -- evaluation --------------------------------------------------------

    def _point(self, assignment: Mapping[str, object], cast):
        missing = {J20.coords[i] for i in self.coordinates_used()} - set(assignment)
        if missing:
            raise EvaluationError(f"missing values for {sorted(missing)}")
        return [(c, cast(assignment.get(c, 0))) for c in J20.coords]

    def substitute(self, assignment: Mapping[str, object]) -> Fraction:
        """Exact value at a rational point.

        Raises EvaluationError for exp/ln atoms (unless the argument
        evaluates to 0 resp. 1) and NonRationalPowerError when a power atom
        has an irrational value at the point.
        """
        return _evaluate(self, self._point(assignment, Fraction), Fraction,
                         _exact_atom_value)

    def approx(self, assignment: Mapping[str, object]) -> float:
        """Floating-point value; used only for randomized cross-checks."""
        return _evaluate(self, self._point(assignment, float), float,
                         _float_atom_value)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"Expr({to_text(self)})"


EXPR_ONE = Expr((Term(1, ONE_MONO, ()),))
_COORD_BASES = tuple(Expr((Term(1, m, ()),)) for m in UNIT_MONOS)


# ---------------------------------------------------------------------------
# deterministic printing (the output re-parses to the same canonical form)
# ---------------------------------------------------------------------------

def _exp_text(e) -> str:
    text = number_text(e)
    return f"^{text}" if e.denominator == 1 and e >= 0 else f"^({text})"

def _mono_factors(m: Mono):
    return [name if e == 1 else name + _exp_text(e) for name, e in zip(J20.coords, m) if e]

def _sum_text(e: Expr, unit_minus: str) -> str:
    """e as a signed sum; a leading negative unit coefficient before
    factors prints as unit_minus."""
    if not e.terms:
        return "0"
    pieces = []
    den = e.den
    for n, (c, m, atoms) in enumerate(e.terms):
        factors = _mono_factors(m) + [_atom_text(a) for a in atoms]
        mag = abs(c)
        unit = mag == den and factors
        body = "*".join(factors if unit else [_ratio_text(mag, den)] + factors)
        if n == 0:
            if c < 0:
                body = (unit_minus if unit else "-") + body
            pieces.append(body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)

def poly_text(poly: Expr) -> str:
    """An atom's base or argument; a leading -x prints as -x, not -1*x."""
    return _sum_text(poly, "-")

def _atom_text(atom: Atom) -> str:
    if isinstance(atom, PowerAtom):
        idx = _unit_coord_index(atom.base)
        if idx is not None:
            return J20.coords[idx] + _exp_text(atom.exponent)
        return "(" + poly_text(atom.base) + ")" + _exp_text(atom.exponent)
    if isinstance(atom, ExpAtom):
        return "exp(" + poly_text(atom.argument) + ")"
    return "ln(" + poly_text(atom.argument) + ")"

def to_text(expr: Expr) -> str:
    # a leading negative coefficient is emitted as a signed literal, so a
    # lone "-x" prints as "-1*x" and stays inside the grammar
    return _sum_text(expr, "-1*")
