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
of inertia), the radical as the Killing-orthogonal complement of the derived
algebra, and a recognition step for the three shapes this package has to
distinguish: sl(2, R) (dimension 3, nondegenerate indefinite Killing form),
the Heisenberg algebra (dimension 3, two-step nilpotent), and their
semidirect product.  analyze gathers all of it in one StructureReport.
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
    v - sum(coords[k] * basis[k]) is zero, one normalization per coefficient."""
    for i, vc in enumerate(v.coefficients):
        raw = [(t.coefficient, t.monomial, t.atoms) for t in vc.terms]
        for c, b in zip(coords, basis):
            if c:
                raw.extend((-c * t.coefficient, t.monomial, t.atoms)
                           for t in b.coefficients[i].terms)
        if not Expr.from_raw(v.chart, raw).is_zero():
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


def sub_tensor(constants, rows):
    """Structure constants of a bracket-closed subspace, or None."""
    matrix = list(zip(*rows))
    sub = []
    for a in rows:
        line = [solve_exact(matrix, bracket_vec(constants, a, b)) for b in rows]
        if None in line:
            return None
        sub.append(tuple(map(tuple, line)))
    return tuple(sub)


def quotient_tensor(constants, rad_rows):
    """Constants of g / radical on the complementary unit coordinates: the
    unit vectors off the radical's pivot columns, with the radical, are a
    basis, and a bracket's quotient part is its coordinates on those units.

    Returns (tensor, complement_indices)."""
    n = len(constants)
    pivots = reduced_rows(rad_rows)[1]
    comp = [i for i in range(n) if i not in pivots]
    unit = unit_rows(n)
    matrix = list(zip(*([unit[c] for c in comp] + list(rad_rows))))
    tensor = tuple(
        tuple(tuple(solve_exact(matrix, bracket_vec(constants, unit[a], unit[b]))[:len(comp)])
              for b in comp)
        for a in comp)
    return tensor, comp


def is_sl2_tensor(constants) -> bool:
    if len(constants) != 3:
        return False
    plus, minus, _ = symmetric_signature(killing_matrix(constants))
    return (plus, minus) in ((2, 1), (1, 2))


def is_heisenberg_tensor(constants) -> bool:
    if len(constants) != 3:
        return False
    full = unit_rows(3)
    der = subspace_bracket(constants, full, full)
    lcs = series_dims(constants, full, der, lower_central=True)
    if lcs != [3, 1, 0]:
        return False
    zc = center_rows(constants)
    return len(zc) == 1 and reduced_rows(zc)[0] == reduced_rows(der)[0]


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
# Levi complement for a two-step nilpotent radical
# ---------------------------------------------------------------------------

def levi_complement(constants, rad, qt, comp):
    """A subalgebra complementary to the radical, as coordinate vectors.

    rad is the reduced radical and (qt, comp) its quotient_tensor.
    Implemented for radicals with [R, [R, R]] = 0 by correcting an arbitrary
    complement in two linear stages (first modulo the derived part of the
    radical, then inside it).  Returns None when no correction is found.
    """
    n = len(constants)
    z = subspace_bracket(constants, rad, rad)
    if subspace_bracket(constants, rad, z):
        return None  # radical is not two-step nilpotent
    m = len(comp)
    unit = unit_rows(n)
    w = [unit[a] for a in comp]

    def correct(ws, target_rows, mod_rows):
        """Solve for phi: W -> span(target_rows) killing the defect modulo
        span(mod_rows); equations and images are decomposed over the direct
        sum target + mod and only the target components are constrained."""
        r = len(target_rows)
        if r == 0:
            return ws
        matrix = list(zip(*target_rows, *mod_rows))

        def target_components(vec):
            sol = solve_exact(matrix, vec)
            return None if sol is None else sol[:r]

        nun = m * r  # unknowns phi[a][s]
        eq_rows, eq_rhs = [], []
        for a in range(m):
            for b in range(a + 1, m):
                defect = bracket_vec(constants, ws[a], ws[b])
                for t in range(m):
                    if qt[a][b][t]:
                        defect = [d - qt[a][b][t] * x
                                  for d, x in zip(defect, ws[t])]
                coeffs = [[Fraction(0)] * nun for _ in range(n)]
                for s in range(r):
                    img_b = bracket_vec(constants, ws[a], target_rows[s])
                    img_a = bracket_vec(constants, ws[b], target_rows[s])
                    for i in range(n):
                        coeffs[i][b * r + s] += img_b[i]
                        coeffs[i][a * r + s] -= img_a[i]
                for t in range(m):
                    if qt[a][b][t]:
                        for s in range(r):
                            for i in range(n):
                                coeffs[i][t * r + s] -= qt[a][b][t] * target_rows[s][i]
                dcomp = target_components(defect)
                ccomp = [target_components([coeffs[i][u] for i in range(n)])
                         for u in range(nun)]
                if dcomp is None or any(c is None for c in ccomp):
                    return None
                for pos in range(r):
                    eq_rows.append([ccomp[u][pos] for u in range(nun)])
                    eq_rhs.append(-dcomp[pos])
        phi = solve_exact(eq_rows, eq_rhs)
        if phi is None:
            return None
        return [[x + sum(phi[a * r + s] * target_rows[s][i] for s in range(r))
                 for i, x in enumerate(ws[a])] for a in range(m)]

    # stage 1: correct along a complement of z inside rad, equations mod z;
    # stage 2: correct inside z, equations exact (quadratic terms vanish)
    span = KeyedSpan()
    for row in z:
        span.place(dict(enumerate(row)))
    rad_comp = [row for row in rad if span.place(dict(enumerate(row))) is None]
    ws = correct(w, rad_comp, z)
    if ws is None:
        return None
    if z:
        ws = correct(ws, z, [])
        if ws is None:
            return None
    # final exact check: the corrected span closes with quotient constants
    for a in range(m):
        for b in range(m):
            expected = [sum(qt[a][b][t] * ws[t][i] for t in range(m)) for i in range(n)]
            if bracket_vec(constants, ws[a], ws[b]) != expected:
                return None
    return [tuple(v) for v in ws]


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
    c = p.constants
    n = p.dimension
    full = unit_rows(n)
    zc = center_rows(c)
    derived = subspace_bracket(c, full, full)
    dseries = series_dims(c, full, derived)
    lseries = series_dims(c, full, derived, lower_central=True)
    solvable = dseries[-1] == 0
    nilpotent = lseries[-1] == 0
    km = killing_matrix(c)
    plus, minus, _ = symmetric_signature(km)
    rad = radical_rows(c, km, derived)
    rad_span, _ = reduced_rows(rad)
    verdict = "unrecognized"
    complement = None
    if n == 3 and is_sl2_tensor(c):
        verdict = "sl2"
    elif n == 3 and is_heisenberg_tensor(c):
        verdict = "heisenberg"
    elif n == 6 and len(rad_span) == 3:
        st = sub_tensor(c, rad_span)
        qt, comp = quotient_tensor(c, rad_span)
        if st is not None and is_heisenberg_tensor(st) and is_sl2_tensor(qt):
            complement = levi_complement(c, rad_span, qt, comp)
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
        killing=tuple(tuple(r) for r in km),
        killing_rank=plus + minus,  # Sylvester's law of inertia
        killing_signature=(plus, minus),
        radical=tuple(rad_span),
        radical_indices=_aligned_indices(rad_span),
        verdict=verdict,
        complement=None if complement is None else tuple(complement),
    )
