"""Abstract Lie-algebra structure extracted from finite sets of vector fields.

The entry point is close_under_bracket.  It brackets each pair of E, the
fields' reduced echelon form, once, and the fields' own brackets follow by
bilinearity over E.  Every field is read through one integer form
(VectorField.integer_form): its numerators over canonical-form (direction,
monomial, atoms) keys and one denominator, the lcm of its coefficients'
denominators, built once per field.  Coordinates come from a
linalg.KeyedSpan of those forms: the closure keeps one over E, and
express_in_basis places the basis in a fresh one (linalg.coordinates) for
each field it expresses.  An integer zero-test on the same forms confirms
every coordinate vector over E and every answer, numerators c_k over one
e: e * v - sum c_k b_k vanishes when, over the lcm of d_v and of each d_k,
every key's integer sum is zero.

The presentation carries the closure's integer tensor, which analyze reads
as it is: the constants over their common denominator D, stored sparse per
(i, j) as (k, D * c_ijk) pairs (_tensor builds every one).  Every bracket
on it is D times the true one, which changes no span, kernel,
series, Killing signature or verdict; the Killing matrix it gives is D^2
times the true one, and the report divides by D^2.  Spans are primitive
integer rows, and every span, nullspace, solve and reduced echelon form runs
on linalg's one fraction-free elimination engine: center, derived and lower
central series, and the radical as the Killing-orthogonal complement of the
derived algebra; both kernels are primitive integer rows from linalg.kernel.
The Killing signature comes from the integer Killing matrix's
characteristic polynomial by Descartes' rule of signs, and the rank is
n_plus + n_minus, by Sylvester's law of inertia.  Recognition reads those
invariants in one pass over the tensor.  sl(2, R) is dimension 3 with
Killing signature (2, 1); no real three-dimensional Lie algebra has
signature (1, 2), since a nondegenerate Killing form makes it sl(2, R) or
so(3), whose is (0, 3).  The Heisenberg algebra is dimension 3 with lower
central series 3, 1, 0, the only non-abelian nilpotent form of dimension 3.
A six-dimensional algebra is sl(2) ⋉ heisenberg when it is perfect
([g, g] = g), its radical R is Heisenberg and its Levi quotient s = g/R is
sl(2).  Perfectness is what excludes the direct sum sl(2) ⊕ heisenberg,
which meets the other two conditions.  Over R, sl(2) acts on the plane R/z,
z = [R, R], either trivially or by its standard representation.  A trivial
action on R/z is trivial on R: the derivations of heisenberg that vanish
modulo z form an abelian ideal, and sl(2), being perfect, has only the zero
image in it.  That is the direct sum, whose derived algebra sl(2) ⊕ z has
dimension 4.  The standard action makes the algebra perfect, so a perfect
algebra with a Heisenberg radical and a quotient of Killing signature
(2, 1) is sl(2, R) ⋉ heisenberg up to isomorphism over R.  That signature
is g's own: g is perfect, so R is g's Killing-orthogonal complement and the
Killing form K vanishes on it; on a Levi subalgebra L ≅ s, K is K_s plus
the trace form of L on R, an invariant form on a simple algebra, so a
multiple of K_s, and a nonnegative one (h has real eigenvalues on every
representation of sl(2, R); so(3) acts by skew matrices).  So K has K_s's
signature: (2, 1) exactly when s is sl(2, R), (0, 3) when it is so(3).  The
Levi complement of sl(2) ⋉ heisenberg is corrected in one adapted basis (a
complement of R, then R modulo z, then z), on the tensor rebased onto it.
Every equation of that correction carries one common scale, so the solve
returns the true correction times that scale.  The Jacobi check runs on
the tensor too.  linalg takes and gives integers: Fractions are made only
for express_in_basis, the Levi complement, the constants view (which no
code of the package reads) and the StructureReport, which scales the center
to 1 at each vector's free (last nonzero) column and the radical to 1 at
each row's pivot.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from .charts import require_same_chart
from .expr import Expr, number_text
from .fields import VectorField, lie_bracket
from .linalg import (KeyedSpan, SparseEchelon, coordinates, kernel, reduced_rows,
                     solve_exact, symmetric_signature)


class ClosureCapExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# expressing fields in a basis
# ---------------------------------------------------------------------------

def express_in_basis(v: VectorField, basis):
    """Exact rational coordinates of v in the basis, or None when not in the span.

    A basis field that lies in the span of the fields before it gets
    coordinate 0, so the answer is unique even for a dependent basis.
    """
    for f in (*basis, v):
        require_same_chart(f, basis[0] if basis else v)
    coords = coordinates([b.integer_form for b in basis], v.integer_form)
    if coords is not None:
        _verify_combination(v, basis, coords)
        return [Fraction(x, coords[1]) for x in coords[0]]
    return None


def _verify_combination(v: VectorField, basis, coords) -> None:
    """The zero-test behind every answer, coords = ([c_k], e) from linalg:
    raise unless e * v - sum(c_k * basis[k]) is zero.  On each field's
    integer form, numerators n over one denominator d, every term is brought
    to the lcm of d_v and of each d_k, and each key's integer sum must vanish."""
    nv, dv = v.integer_form
    parts = [(c, d, nb)
             for c, b in zip(coords[0], basis) if c
             for nb, d in (b.integer_form,) if nb]
    lcm = math.lcm(dv, *(d for _, d, _ in parts))
    f = coords[1] * (lcm // dv)
    total = {key: f * x for key, x in nv.items()}
    for c, d, nb in parts:
        f = c * (lcm // d)
        for key, x in nb.items():
            total[key] = total.get(key, 0) - f * x
    if any(total.values()):
        raise ArithmeticError("key match and zero-test disagree")


def close_under_bracket(fields, cap: int = 32, counts: dict | None = None
                        ) -> "LieAlgebraPresentation":
    """Basis and exact structure constants of the algebra the fields generate.

    The basis is the independent fields, in order, then each bracket of two
    basis fields outside the span so far, in _pairs' order.  Phase 1 closes
    E; phase 2 reads the fields' coordinates over E off its pivots and
    brackets them by bilinearity, computing a bracket only when it joins the
    basis.  Every coordinate vector over E is zero-tested.  Raises
    ClosureCapExceeded past cap independent fields; a dict given as counts
    gets symbolic_brackets and the terms of the fields and of E.
    """
    for f in fields:
        require_same_chart(f, fields[0])
    columns: dict = {}
    reduced = SparseEchelon({columns.setdefault(k, len(columns)): x
                             for k, x in f.integer_form[0].items()} for f in fields).reduced()
    keys, pivots = list(columns), sorted(reduced)
    given = {(frozenset(f.integer_form[0].items()), f.integer_form[1]): f for f in fields}
    span, sparse = KeyedSpan(), []

    def place(f):
        coords = span.place(*f.integer_form)
        if coords is not None:
            _verify_combination(f, sparse, coords)
        elif len(sparse) >= cap:
            raise ClosureCapExceeded(f"dimension exceeded cap {cap}")
        else:
            sparse.append(f)
        return coords

    for p in pivots:  # E_a is 1 at its pivot; a field equal to it stands in for it
        row, lead = {keys[c]: x for c, x in reduced[p].items()}, reduced[p][p]
        place(given.get((frozenset(row.items()), lead)) or _field(fields[0].chart, row, lead))
    table = _pairs(len(sparse), lambda a, b: place(lie_bracket(sparse[a], sparse[b])))
    t, den = _tensor(table, len(sparse))
    small, basis = KeyedSpan(), []  # basis: (field, its coordinates over E)
    for f in fields:
        nv, dv = f.integer_form
        coords = [nv.get(keys[p], 0) for p in pivots] + [0] * (len(t) - len(pivots)), dv
        _verify_combination(f, sparse, coords)
        if small.place(dict(enumerate(coords[0])), coords[1]) is None:
            basis.append((f, coords))
    m = len(basis)

    def bracket(i, j):
        (bi, (ni, di)), (bj, (nj, dj)) = basis[i], basis[j]
        w = bracket_vec(t, ni, nj), di * dj * den
        coords = small.place(dict(enumerate(w[0])), w[1])
        if coords is None:  # it joins: compute it, and zero-test it over E
            basis.append((lie_bracket(bi, bj), w))
            _verify_combination(basis[-1][0], sparse, w)
        return coords

    brackets, n = _pairs(m, bracket), len(basis)
    if counts is not None:
        counts.update(symbolic_brackets=len(table) + n - m,
                      input_terms=sum(len(f.integer_form[0]) for f in fields),
                      sparse_terms=sum(len(f.integer_form[0]) for f in sparse))
    return LieAlgebraPresentation(tuple(f for f, _ in basis), *_tensor(brackets, n))


def _pairs(n: int, bracket) -> dict:
    """(i, j) -> bracket(i, j), [b_i, b_j] as (numerators, den) over the basis
    so far, for each pair i < j of a basis of n and of each b that joins it."""
    out, pending = {}, deque((i, j) for j in range(n) for i in range(j))
    while pending:
        i, j = pending.popleft()
        coords = bracket(i, j)
        if coords is None:  # [b_i, b_j] joins the basis as b_n
            coords = [0] * n + [1], 1
            pending.extend((t, n) for t in range(n))
            n += 1
        out[i, j] = coords
    return out


def _tensor(coords, n: int):
    """(t, d) from _pairs' coordinates of a basis of n: d is the lcm of the
    dens, t[i][j] holds (k, d * c_ijk) for c_ijk != 0, t[j][i] their negatives.
    Every routine below takes one; its brackets are d times the true ones."""
    d = math.lcm(*(e for _, e in coords.values()))
    t = [[()] * n for _ in range(n)]
    for (i, j), (nums, e) in coords.items():
        t[i][j] = tuple((k, x * (d // e)) for k, x in enumerate(nums) if x)
        t[j][i] = tuple((k, -x) for k, x in t[i][j])
    return tuple(map(tuple, t)), d


def _field(chart, row, den: int) -> VectorField:
    """The field whose integer form is (row, den), up to lowest terms."""
    return VectorField(chart, tuple(
        Expr.from_raw((), [(x, m, a) for (i, m, a), x in row.items() if i == d], den)
        for d in range(len(chart))))


# ---------------------------------------------------------------------------
# tensor-level computations on one integer tensor
# ---------------------------------------------------------------------------

def bracket_vec(t, u, v):
    """The bracket of integer coordinate vectors u and v on the tensor t."""
    out = [0] * len(t)
    for i, ui in enumerate(u):
        if not ui:
            continue
        ti = t[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            f = ui * vj
            for k, c in ti[j]:
                out[k] += f * c
    return out


def unit_rows(n):
    """The standard basis of the n-dimensional coordinate space, as rows."""
    return [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]


def subspace_bracket(t, rows_a, rows_b):
    """[span(rows_a), span(rows_b)] as reduced primitive integer rows.  The
    products are formed as the elimination asks for them, and it stops
    asking at full rank; when both sides are the same rows only the pairs
    a < b are formed, antisymmetry giving the rest."""
    pairs = combinations(rows_a, 2) if rows_a == rows_b else product(rows_a, rows_b)
    products = (bracket_vec(t, a, b) for a, b in pairs)
    return reduced_rows(w for w in products if any(w))[0]


def series_dims(t, rows, derived, lower_central=False):
    """Dimensions of the derived series of span(rows), or of its lower
    central series, until a term vanishes or repeats.  derived is
    subspace_bracket(t, rows, rows), the second term of both."""
    dims = [len(rows)]
    current = rows
    nxt = derived
    while True:
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            return dims
        current = nxt
        nxt = subspace_bracket(t, rows if lower_central else current, current)


def center_rows(t):
    """The center: the kernel of the rows x -> [x, e_j]_k, one per (j, k)."""
    n = len(t)
    rows: dict = {}
    for i, plane in enumerate(t):
        for j, pairs in enumerate(plane):
            for k, c in pairs:
                rows.setdefault((j, k), [0] * n)[i] = c
    return kernel(list(rows.values()), n)


def killing_matrix(t):
    """d^2 times the Killing matrix, K_ij = tr(ad e_i ad e_j): the sum over
    l and k of c_ilk * c_jkl."""
    n = len(t)
    ad = [{(l, k): c for l, pairs in enumerate(plane) for k, c in pairs}
          for plane in t]
    km = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            aj = ad[j]
            s = 0
            for (l, k), c in ad[i].items():
                other = aj.get((k, l))
                if other:
                    s += c * other
            km[i][j] = km[j][i] = s
    return km


def radical_rows(t, killing, derived):
    """The radical as the Killing-orthogonal complement of the derived
    algebra, from the Killing matrix and the rows of [g, g]."""
    n = len(t)
    rows = []
    for d in derived:
        rows.append([sum(d[k] * killing[k][i] for k in range(n)) for i in range(n)])
    return kernel(rows, n)


def jacobi_holds(t) -> bool:
    """Whether the integer tensor t satisfies the Jacobi identity: for each
    i < j < k, [e_i, [e_j, e_k]] and its two cyclic shifts sum to zero.
    Each term is d^2 times the true one, which does not change whether the
    sum vanishes."""
    n = len(t)
    units = unit_rows(n)
    for i, j, k in combinations(range(n), 3):
        total = [0] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = [0] * n
            for q, x in t[b][c]:
                inner[q] = x
            total = [s + y for s, y in zip(total, bracket_vec(t, units[a], inner))]
        if any(total):
            return False
    return True


# ---------------------------------------------------------------------------
# the adapted basis and the Levi complement
# ---------------------------------------------------------------------------

def rebase(t, d, rows):
    """The tensor (t, d) in the basis rows of the coordinate space, as
    another integer tensor and its scale.  The coordinates are read off one
    KeyedSpan of the rows: one bracket per unordered pair, the other by
    antisymmetry.  They are d times the true constants, and _tensor scales
    them once more."""
    span = KeyedSpan()
    for row in rows:
        span.place(dict(enumerate(row)))
    n = len(rows)
    adapted, scale = _tensor({(a, b): span.coordinates(dict(enumerate(
        bracket_vec(t, rows[a], rows[b])))) for b in range(n) for a in range(b)}, n)
    return adapted, d * scale


def _correct(adapted, ws, e, m, lo, hi):
    """Solve for phi: W -> span(e_lo..e_hi-1) killing the defect
    [w_a, w_b] - sum_t q_abt w_t on the target coordinates lo..hi-1; the
    coordinates from hi on are the part taken modulo.  A defect or image with
    a coordinate before lo lies outside target + mod: no correction.

    The vectors are ws / e with ws integer, and adapted is s times the true
    constants.  Then the defect below is s * e^2 times the true one and every
    column s * e times its own, so the solve returns e * phi as integers over
    a scale k, and k * ws plus them, over k * e, are the corrected vectors:
    returns them as (integer rows, common denominator), or None."""
    n = len(adapted)
    r = hi - lo
    unit = unit_rows(n)
    eq_rows, eq_rhs = [], []
    for a in range(m):
        for b in range(a + 1, m):
            q = [0] * m  # e * q_abt, on the scale of the defect's columns
            for k, c in adapted[a][b]:
                if k < m:
                    q[k] = e * c
            defect = bracket_vec(adapted, ws[a], ws[b])
            for t in range(m):
                if q[t]:
                    defect = [d - q[t] * x for d, x in zip(defect, ws[t])]
            cols = [[0] * n for _ in range(m * r)]  # phi[a][s] at a*r+s
            for s in range(r):
                img_b = bracket_vec(adapted, ws[a], unit[lo + s])
                img_a = bracket_vec(adapted, ws[b], unit[lo + s])
                for i in range(n):
                    cols[b * r + s][i] += img_b[i]
                    cols[a * r + s][i] -= img_a[i]
                for t in range(m):
                    cols[t * r + s][lo + s] -= q[t]
            if any(any(v[:lo]) for v in (defect, *cols)):
                return None
            for pos in range(lo, hi):
                eq_rows.append([col[pos] for col in cols])
                eq_rhs.append(-defect[pos])
    psi = solve_exact(eq_rows, eq_rhs)
    if psi is None:
        return None
    phi, scale = psi
    out = [[scale * x for x in w] for w in ws]
    for a in range(m):
        for s in range(r):
            out[a][lo + s] += phi[a * r + s]
    return out, e * scale


def levi_complement(t, d, rad, pivots, z):
    """A subalgebra complementary to the Heisenberg radical, as Fraction
    coordinate vectors, or None when z does not lie in R or no correction
    is found.

    (t, d) is the tensor, (rad, pivots) the reduced radical R and z = [R, R]
    its reduced rows.  The adapted basis is the unit vectors off R's pivot
    columns, m of them, then the r radical rows independent modulo z, then
    z; it is a basis exactly when z lies in R, and (adapted, s) is the
    tensor rebased on it.  Its first m vectors span an arbitrary complement;
    two linear stages correct it, first along the r radical rows modulo z,
    then inside z, where the quadratic terms vanish because [R, [R, R]] = 0.
    The result goes back to the original coordinates and is checked there
    exactly: for complement vectors c / e, with c integer, [c_a, c_b] on t
    is d * e^2 times the true bracket and the quotient combination of the
    c_t on adapted is s * e times its own.
    """
    n = len(t)
    span = KeyedSpan()
    for row in z:
        span.place(dict(enumerate(row)))
    comp = [row for i, row in enumerate(unit_rows(n)) if i not in pivots]
    rad_comp = [row for row in rad if span.place(dict(enumerate(row))) is None]
    rows, m, r = comp + rad_comp + z, len(comp), len(rad_comp)
    if len(rows) != n:
        return None
    adapted, s = rebase(t, d, rows)
    ws, e = unit_rows(n)[:m], 1
    for lo, hi in ((m, m + r), (m + r, n)):
        corrected = _correct(adapted, ws, e, m, lo, hi)
        if corrected is None:
            return None
        ws, e = corrected
    complement = [[sum(w[k] * rows[k][i] for k in range(n)) for i in range(n)]
                  for w in ws]
    # final exact check: the corrected span closes with quotient constants
    for a in range(m):
        for b in range(m):
            expected = [0] * n
            for q, c in adapted[a][b]:
                if q < m:
                    for i in range(n):
                        expected[i] += c * complement[q][i]
            got = bracket_vec(t, complement[a], complement[b])
            if any(s * x != d * e * y for x, y in zip(got, expected)):
                return None
    return [tuple(Fraction(x, e) for x in row) for row in complement]


# ---------------------------------------------------------------------------
# presentation and reports
# ---------------------------------------------------------------------------

class LieAlgebraPresentation(NamedTuple):
    basis: tuple
    tensor: tuple  # _tensor's: tensor[i][j] holds (k, den * c_ijk), c_ijk != 0
    den: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def constants(self) -> tuple:
        """The public Fraction view, built on each read: constants[i][j] is
        the coordinate tuple of [b_i, b_j].  No code of the package reads
        it; every computation reads the tensor."""
        ks = range(len(self.tensor))
        return tuple(tuple(tuple(Fraction(row.get(k, 0), self.den) for k in ks)
                           for row in map(dict, plane)) for plane in self.tensor)


def _aligned_indices(rows):
    """Indices when every row is supported on a single coordinate, else None."""
    idx = []
    for r in rows:
        support = [i for i, v in enumerate(r) if v]
        if len(support) != 1:
            return None
        idx.append(support[0])
    return sorted(idx)


class StructureReport(NamedTuple):
    dimension: int
    center: tuple
    center_indices: object
    derived_dims: tuple
    lcs_dims: tuple
    solvable: bool
    nilpotent: bool
    killing: tuple
    killing_rank: int
    killing_signature: tuple
    radical: tuple
    radical_indices: object
    verdict: str
    complement: object  # coordinate vectors of a complementary subalgebra, or None

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "center": (list(self.center_indices) if self.center_indices is not None
                       else [[number_text(v) for v in row] for row in self.center]),
            "derived_dims": list(self.derived_dims),
            "lcs_dims": list(self.lcs_dims),
            "solvable": self.solvable,
            "nilpotent": self.nilpotent,
            "killing": {
                "matrix": [[number_text(v) for v in row] for row in self.killing],
                "rank": self.killing_rank,
                "signature": list(self.killing_signature),
            },
            "radical": (list(self.radical_indices) if self.radical_indices is not None
                        else [[number_text(v) for v in row] for row in self.radical]),
            "verdict": self.verdict,
            "complement": (None if self.complement is None
                           else [[number_text(v) for v in row] for row in self.complement]),
        }


def _scaled(rows, columns) -> tuple:
    """Each integer row over its entry at the matching column, as Fractions."""
    return tuple(tuple(Fraction(a, row[c]) for a in row)
                 for row, c in zip(rows, columns))


def analyze(p: LieAlgebraPresentation) -> StructureReport:
    """Every structure invariant of the presentation, and its recognition,
    read off its integer tensor in one pass.  Spans are primitive integer
    rows, and the Killing matrix of the tensor is den^2 times the true one;
    the report holds Fractions."""
    t, d = p.tensor, p.den
    n = len(t)
    full = unit_rows(n)
    zc = center_rows(t)
    derived = subspace_bracket(t, full, full)
    dseries = series_dims(t, full, derived)
    lseries = series_dims(t, full, derived, lower_central=True)
    km = killing_matrix(t)
    plus, minus, _ = symmetric_signature(km)
    rad, pivots = reduced_rows(radical_rows(t, km, derived))
    verdict = "unrecognized"
    complement = None
    if n == 3 and (plus, minus) == (2, 1):
        verdict = "sl2"
    elif n == 3 and lseries == [3, 1, 0]:
        verdict = "heisenberg"
    elif n == 6 and dseries == [6, 6] and len(rad) == 3 and (plus, minus) == (2, 1):
        z = subspace_bracket(t, rad, rad)
        if series_dims(t, rad, z, lower_central=True) == [3, 1, 0]:
            complement = levi_complement(t, d, rad, pivots, z)
            if complement is not None:
                verdict = "sl2_semidirect_heisenberg"
    free = [max(c for c, a in enumerate(row) if a) for row in zc]
    return StructureReport(
        dimension=n,
        center=_scaled(zc, free),
        center_indices=_aligned_indices(zc),
        derived_dims=tuple(dseries),
        lcs_dims=tuple(lseries),
        solvable=dseries[-1] == 0,
        nilpotent=lseries[-1] == 0,
        killing=tuple(tuple(Fraction(v, d * d) for v in row) for row in km),
        killing_rank=plus + minus,  # Sylvester's law of inertia
        killing_signature=(plus, minus),
        radical=_scaled(rad, pivots),
        radical_indices=_aligned_indices(rad),
        verdict=verdict,
        complement=None if complement is None else tuple(complement),
    )
