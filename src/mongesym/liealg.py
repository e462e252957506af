"""Abstract Lie-algebra structure extracted from finite sets of vector fields.

The entry point is close_under_bracket, which grows a basis until brackets
close and records each bracket's exact rational coordinates as it goes.
Coordinates come from a linalg.KeyedSpan of the fields' coefficients over
their canonical-form (direction, monomial, atoms) keys: the closure keeps one
for its whole run, and express_in_basis builds one from the basis.  A
symbolic zero-test of the resulting combination confirms every answer.

On the structure-constant tensor everything is standard and exact, and every
span, nullspace, solve and reduced echelon form runs on linalg's one
fraction-free elimination engine: center, derived and lower central series,
Killing form with signature (the rank is n_plus + n_minus, by Sylvester's law
of inertia), and the radical as the Killing-orthogonal complement of the
derived algebra.  Recognition reads those invariants: sl(2, R) is dimension 3
with an indefinite nondegenerate Killing form, the Heisenberg algebra is
dimension 3 with lower central series 3, 1, 0 and center [g, g].  For a
six-dimensional algebra one adapted basis (a complement of the radical R,
then R modulo z = [R, R], then z) makes the radical's and the quotient's
constants blocks of one rebased tensor; the same path recognizes both
blocks, and the Levi complement of sl(2) ⋉ heisenberg is corrected in those
coordinates.  analyze gathers all of it in one StructureReport.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .charts import require_same_chart
from .expr import Expr
from .fields import VectorField, lie_bracket
from .linalg import (KeyedSpan, coordinates, kernel, reduced_rows,
                     solve_exact, symmetric_signature)


class ClosureCapExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# expressing fields in a basis
# ---------------------------------------------------------------------------

def _key_row(f: VectorField) -> dict:
    """The coefficients of f over canonical-form (direction, monomial,
    atoms) keys."""
    return {(i, t.monomial, t.atoms): t.coefficient
            for i, e in enumerate(f.coefficients) for t in e.terms}


def express_in_basis(v: VectorField, basis):
    """Exact rational coordinates of v in the basis, or None when not in the span.

    A basis field that lies in the span of the fields before it gets
    coordinate 0, so the answer is unique even for a dependent basis.
    """
    for f in (*basis, v):
        require_same_chart(f, basis[0] if basis else v)
    coords = coordinates([_key_row(b) for b in basis], _key_row(v))
    if coords is not None:
        _verify_combination(v, basis, coords)
    return coords


def _verify_combination(v: VectorField, basis, coords) -> None:
    """The symbolic zero-test behind every answer: raise unless
    v - sum(coords[k] * basis[k]) is zero, one normalization per coefficient.
    Every term is a multiple of a canonical one, so none is re-canonicalized."""
    for i, vc in enumerate(v.coefficients):
        ready = list(vc.terms)
        for c, b in zip(coords, basis):
            if c:
                ready.extend((-c * t.coefficient, t.monomial, t.atoms)
                             for t in b.coefficients[i].terms)
        if not Expr.from_raw(v.chart, (), ready).is_zero():
            raise ArithmeticError("key match and zero-test disagree")


def close_under_bracket(fields, cap: int = 32) -> "LieAlgebraPresentation":
    """Basis and exact structure constants of the algebra the fields generate.

    Every bracket of two basis fields is computed and expressed once.  The
    basis only grows and stays linearly independent, so a bracket's
    coordinates over the basis found so far, padded with zeros, are its
    unique coordinates over the final basis; a bracket that joins the basis
    gets the unit vector.  Raises ClosureCapExceeded when more than cap
    independent fields appear.
    """
    for f in fields:
        require_same_chart(f, fields[0])
    span = KeyedSpan()
    basis = []

    def place(f):
        """Coordinates of f over the basis, adding f when it lies outside."""
        coords = span.place(_key_row(f))
        if coords is not None:
            _verify_combination(f, basis, coords)
            return coords
        basis.append(f)
        if len(basis) > cap:
            raise ClosureCapExceeded(f"dimension exceeded cap {cap}")
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
    zero_row = (Fraction(0),) * n
    constants = [[zero_row] * n for _ in range(n)]
    for (i, j), coords in brackets.items():
        row = tuple(coords) + (Fraction(0),) * (n - len(coords))
        constants[i][j] = row
        constants[j][i] = tuple(-c for c in row)
    return LieAlgebraPresentation(tuple(basis),
                                  tuple(tuple(r) for r in constants))


# ---------------------------------------------------------------------------
# tensor-level computations
# ---------------------------------------------------------------------------

def bracket_vec(constants, u, v):
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


def unit_rows(n):
    """The standard basis of the n-dimensional coordinate space, as rows."""
    return [tuple(Fraction(1) if t == i else Fraction(0) for t in range(n))
            for i in range(n)]


def subspace_bracket(constants, rows_a, rows_b):
    prods = []
    for a in rows_a:
        for b in rows_b:
            w = bracket_vec(constants, a, b)
            if any(w):
                prods.append(w)
    return reduced_rows(prods)[0]


def series_dims(constants, rows, derived, lower_central=False):
    """Dimensions of the derived series of span(rows), or of its lower
    central series, until a term vanishes or repeats.  derived is
    subspace_bracket(constants, rows, rows), the second term of both."""
    dims = [len(rows)]
    current = rows
    nxt = derived
    while True:
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            return dims
        current = nxt
        nxt = subspace_bracket(constants, rows if lower_central else current, current)


def center_rows(constants):
    n = len(constants)
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([constants[i][j][k] for i in range(n)])
    return kernel(rows, n)


def killing_matrix(constants):
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


def radical_rows(constants, killing, derived):
    """The radical as the Killing-orthogonal complement of the derived
    algebra, from the Killing matrix and the rows of [g, g]."""
    n = len(constants)
    if not derived:
        return unit_rows(n)  # abelian: everything is radical
    rows = []
    for d in derived:
        rows.append([sum(d[k] * killing[k][i] for k in range(n)) for i in range(n)])
    return kernel(rows, n)


def jacobi_holds(constants) -> bool:
    n = len(constants)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    s = Fraction(0)
                    for m in range(n):
                        s += (constants[j][k][m] * constants[i][m][l]
                              + constants[k][i][m] * constants[j][m][l]
                              + constants[i][j][m] * constants[k][m][l])
                    if s:
                        return False
    return True


def antisymmetry_holds(constants) -> bool:
    n = len(constants)
    return all(constants[i][j][k] == -constants[j][i][k]
               for i in range(n) for j in range(n) for k in range(n))


# ---------------------------------------------------------------------------
# the adapted basis and the Levi complement
# ---------------------------------------------------------------------------

def rebase(constants, rows):
    """The constants in the basis rows of the coordinate space, read off one
    KeyedSpan of the rows: one bracket per unordered pair, the other by
    antisymmetry."""
    span = KeyedSpan()
    for row in rows:
        span.place(dict(enumerate(row)))
    n = len(rows)
    out = [[(Fraction(0),) * n] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            w = bracket_vec(constants, rows[a], rows[b])
            out[a][b] = tuple(span.coordinates(dict(enumerate(w))))
            out[b][a] = tuple(-x for x in out[a][b])
    return tuple(map(tuple, out))


def block(adapted, lo, hi):
    """The constants of the basis vectors lo..hi-1 on their own coordinates."""
    return tuple(tuple(adapted[i][j][lo:hi] for j in range(lo, hi))
                 for i in range(lo, hi))


def adapted_rows(constants, rad, pivots):
    """The unit vectors off the reduced radical's pivot columns, then the
    radical rows independent modulo z = [R, R], then z; returns (rows, m, r)
    with m units and r rows before z.  The rows are a basis exactly when z
    lies in R, that is when the radical is closed, and then the radical's
    and the quotient's constants are blocks of the rebased tensor."""
    n = len(constants)
    comp = [row for i, row in enumerate(unit_rows(n)) if i not in pivots]
    z = subspace_bracket(constants, rad, rad)
    span = KeyedSpan()
    for row in z:
        span.place(dict(enumerate(row)))
    rad_comp = [row for row in rad if span.place(dict(enumerate(row))) is None]
    return comp + rad_comp + z, len(comp), len(rad_comp)


def _correct(adapted, ws, m, lo, hi):
    """Solve for phi: W -> span(e_lo..e_hi-1) killing the defect
    [w_a, w_b] - sum_t q_abt w_t on the target coordinates lo..hi-1; the
    coordinates from hi on are the part taken modulo.  A defect or image with
    a coordinate before lo lies outside target + mod: no correction."""
    n = len(adapted)
    r = hi - lo
    unit = unit_rows(n)
    eq_rows, eq_rhs = [], []
    for a in range(m):
        for b in range(a + 1, m):
            q = adapted[a][b][:m]
            defect = bracket_vec(adapted, ws[a], ws[b])
            for t in range(m):
                if q[t]:
                    defect = [d - q[t] * x for d, x in zip(defect, ws[t])]
            cols = [[Fraction(0)] * n for _ in range(m * r)]  # phi[a][s] at a*r+s
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
    phi = solve_exact(eq_rows, eq_rhs)
    if phi is None:
        return None
    out = [list(w) for w in ws]
    for a in range(m):
        for s in range(r):
            out[a][lo + s] += phi[a * r + s]
    return out


def levi_complement(constants, rows, adapted, m, r):
    """A subalgebra complementary to the Heisenberg radical, as coordinate
    vectors, or None when no correction is found.

    (rows, m, r) is adapted_rows and adapted the constants rebased on rows.
    The first m unit vectors span an arbitrary complement; two linear
    stages correct it, first along the r radical rows modulo z, then inside
    z, where the quadratic terms vanish because [R, [R, R]] = 0.  The result
    goes back to the original coordinates and is checked there exactly.
    """
    n = len(constants)
    ws = unit_rows(n)[:m]
    for lo, hi in ((m, m + r), (m + r, n)):
        ws = _correct(adapted, ws, m, lo, hi)
        if ws is None:
            return None
    complement = [tuple(sum(w[k] * rows[k][i] for k in range(n)) for i in range(n))
                  for w in ws]
    # final exact check: the corrected span closes with quotient constants
    for a in range(m):
        for b in range(m):
            expected = [sum(adapted[a][b][t] * complement[t][i] for t in range(m))
                        for i in range(n)]
            if bracket_vec(constants, complement[a], complement[b]) != expected:
                return None
    return complement


# ---------------------------------------------------------------------------
# presentation and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieAlgebraPresentation:
    basis: tuple
    constants: tuple  # constants[i][j] is the coordinate tuple of [b_i, b_j]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def antisymmetry_ok(self) -> bool:
        return antisymmetry_holds(self.constants)

    def jacobi_ok(self) -> bool:
        return jacobi_holds(self.constants)


def _aligned_indices(rows):
    """Indices when every row is supported on a single coordinate, else None."""
    idx = []
    for r in rows:
        support = [i for i, v in enumerate(r) if v]
        if len(support) != 1:
            return None
        idx.append(support[0])
    return sorted(idx)


@dataclass(frozen=True)
class StructureReport:
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
                       else [[str(v) for v in row] for row in self.center]),
            "derived_dims": list(self.derived_dims),
            "lcs_dims": list(self.lcs_dims),
            "solvable": self.solvable,
            "nilpotent": self.nilpotent,
            "killing": {
                "matrix": [[str(v) for v in row] for row in self.killing],
                "rank": self.killing_rank,
                "signature": list(self.killing_signature),
            },
            "radical": (list(self.radical_indices) if self.radical_indices is not None
                        else [[str(v) for v in row] for row in self.radical]),
            "verdict": self.verdict,
            "complement": (None if self.complement is None
                           else [[str(v) for v in row] for row in self.complement]),
        }


def analyze(p: LieAlgebraPresentation) -> StructureReport:
    """Every structure invariant of the presentation, and its recognition."""
    return _analyze_tensor(p.constants)


def _analyze_tensor(c) -> StructureReport:
    """analyze on a bare tensor; a six-dimensional tensor's radical and
    quotient blocks are recognized by the same path."""
    n = len(c)
    full = unit_rows(n)
    zc = center_rows(c)
    derived = subspace_bracket(c, full, full)
    dseries = series_dims(c, full, derived)
    lseries = series_dims(c, full, derived, lower_central=True)
    solvable = dseries[-1] == 0
    nilpotent = lseries[-1] == 0
    km = killing_matrix(c)
    plus, minus, _ = symmetric_signature(km)
    rad, pivots = reduced_rows(radical_rows(c, km, derived))
    verdict = "unrecognized"
    complement = None
    if n == 3 and (plus, minus) in ((2, 1), (1, 2)):
        verdict = "sl2"
    elif n == 3 and lseries == [3, 1, 0] and reduced_rows(zc)[0] == derived:
        verdict = "heisenberg"
    elif n == 6 and len(rad) == 3:
        rows, m, r = adapted_rows(c, rad, pivots)
        if len(rows) == n:  # z lies in R: the radical is closed
            adapted = rebase(c, rows)
            if (_analyze_tensor(block(adapted, m, n)).verdict == "heisenberg"
                    and _analyze_tensor(block(adapted, 0, m)).verdict == "sl2"):
                complement = levi_complement(c, rows, adapted, m, r)
                if complement is not None:
                    verdict = "sl2_semidirect_heisenberg"
    return StructureReport(
        dimension=n,
        center=tuple(zc),
        center_indices=_aligned_indices(zc),
        derived_dims=tuple(dseries),
        lcs_dims=tuple(lseries),
        solvable=solvable,
        nilpotent=nilpotent,
        killing=tuple(tuple(row) for row in km),
        killing_rank=plus + minus,  # Sylvester's law of inertia
        killing_signature=(plus, minus),
        radical=tuple(rad),
        radical_indices=_aligned_indices(rad),
        verdict=verdict,
        complement=None if complement is None else tuple(complement),
    )
