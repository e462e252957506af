"""Exact linear algebra: sparse fraction-free elimination and dense helpers.

The sparse path works on integer rows (dict column -> coefficient) and never
leaves the integers: a row is combined against a pivot by cross
multiplication and re-divided by its content, so no rounding and no rational
blow-up occurs.  Rows are inserted shortest-first, which keeps fill-in low
on the very sparse systems produced by determining equations.

The dense helpers use Fraction matrices and serve the small Lie-algebra
computations (structure constants, Killing form, signatures).
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# sparse integer elimination
# ---------------------------------------------------------------------------

def _row_normalize(row: dict) -> dict:
    """Divide by the content and make the leading (min column) entry positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _row_order_key(row: dict):
    items = tuple(sorted(row.items()))
    return (len(row), min(row), items)


class SparseEchelon:
    """Incremental echelon form of an integer sparse matrix."""

    def __init__(self):
        self.pivots: dict = {}   # leading column -> normalized row

    def reduce_row(self, row: dict) -> dict:
        row = dict(row)
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                return _row_normalize(row)
            a, b = row[c], piv[c]
            g = math.gcd(a, b)
            ma, mb = b // g, a // g
            new = {}
            for k, v in row.items():
                new[k] = ma * v
            for k, v in piv.items():
                w = new.get(k, 0) - mb * v
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            row = _row_normalize(new)
        return row

    def insert(self, row: dict) -> bool:
        row = self.reduce_row(row)
        if not row:
            return False
        self.pivots[min(row)] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def sparse_nullspace(rows, ncols: int):
    """Exact nullspace basis of a sparse homogeneous integer system.

    Returns (rank, basis) where each basis vector is a primitive integer
    tuple of length ncols; basis vectors are indexed by their free column in
    increasing order, so the output is deterministic.
    """
    ech = SparseEchelon()
    for row in sorted((r for r in rows if r), key=_row_order_key):
        ech.insert(row)
    pivot_cols = sorted(ech.pivots)
    free_cols = [c for c in range(ncols) if c not in ech.pivots]
    basis = []
    for f in free_cols:
        x: dict = {f: Fraction(1)}
        for c in reversed(pivot_cols):
            if c > f:
                continue
            row = ech.pivots[c]
            s = Fraction(0)
            for k, v in row.items():
                if k == c:
                    continue
                xv = x.get(k)
                if xv is not None:
                    s += v * xv
            if s:
                x[c] = -s / row[c]
        basis.append(_primitive(x, ncols))
    return ech.rank, basis


def _primitive(x: dict, ncols: int) -> tuple:
    """A sparse rational vector as a dense tuple of coprime integers, the
    signs kept."""
    denom = math.lcm(*(v.denominator for v in x.values()))
    ints = {c: v.numerator * (denom // v.denominator) for c, v in x.items()}
    g = math.gcd(*ints.values())
    vec = [0] * ncols
    for c, v in ints.items():
        vec[c] = v // g
    return tuple(vec)


def _subtract(x: dict, a, row: dict) -> None:
    """x -= a * row in place, dropping the entries that cancel."""
    for c, b in row.items():
        w = x.get(c, 0) - a * b
        if w:
            x[c] = w
        else:
            del x[c]


def canonical_basis(vectors):
    """The basis sparse_nullspace gives for the span of `vectors`.

    `vectors` are linearly independent integer tuples of one length.  Their
    span has one basis in reduced echelon form with each pivot at a
    vector's largest column: for each such column f, x_f = 1 and every
    other pivot column is zero.  Those pivots are the free columns of any
    system whose nullspace is the span, so this is the basis
    sparse_nullspace returns for it, in primitive integers, ordered by f.
    """
    reduced: dict = {}  # pivot column -> {column: Fraction}
    for v in vectors:
        x = {c: Fraction(a) for c, a in enumerate(v) if a}
        for p, row in reduced.items():
            if p in x:
                _subtract(x, x[p], row)
        f = max(x)
        lead = x[f]
        x = {c: a / lead for c, a in x.items()}
        for row in reduced.values():
            if f in row:
                _subtract(row, row[f], x)
        reduced[f] = x
    return [_primitive(reduced[f], len(vectors[0])) for f in sorted(reduced)]


def rows_to_integer(rows):
    """Clear denominators row by row: rational rows -> primitive integer rows."""
    out = []
    for row in rows:
        denom = math.lcm(*(v.denominator for v in row.values()))
        ints = {c: v.numerator * (denom // v.denominator)
                for c, v in row.items() if v}
        if ints:
            out.append(_row_normalize(ints))
    return out


# ---------------------------------------------------------------------------
# dense Fraction helpers
# ---------------------------------------------------------------------------

def rref(matrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [list(map(Fraction, r)) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows if any(v != 0 for v in row)], pivots


def matrix_rank(matrix) -> int:
    return len(rref(matrix)[0])


def dense_nullspace(matrix, ncols: int):
    """Nullspace basis (list of Fraction tuples) of a dense system."""
    reduced, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def solve_exact(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not matrix:
        return [] if all(v == 0 for v in rhs) else None
    ncols = len(matrix[0])
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    # with free variables pinned to zero each RREF row reads x_p = rhs entry
    for row, p in zip(reduced, pivots):
        if p == ncols:
            return None
        x[p] = row[ncols]
    return x


def symmetric_signature(matrix):
    """Signature (n_plus, n_minus, n_zero) of a symmetric Fraction matrix.

    Exact congruence diagonalization; no floating point is involved.
    """
    a = [list(map(Fraction, row)) for row in matrix]
    n = len(a)
    plus = minus = zero = 0
    active = list(range(n))
    while active:
        # prefer a nonzero diagonal entry
        k = None
        for i in active:
            if a[i][i] != 0:
                k = i
                break
        if k is None:
            # all diagonal entries zero: fold an off-diagonal entry onto the diagonal
            found = None
            for i in active:
                for j in active:
                    if i != j and a[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
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
            if a[i][k] != 0:
                f = a[i][k] / d
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return plus, minus, zero
