"""Exact linear algebra on one engine: sparse fraction-free elimination.

SparseEchelon works on integer rows (dict column -> coefficient) and never
leaves the integers: a row is combined against a pivot by cross
multiplication and re-divided by its content, so no rounding and no rational
blow-up occurs.  sparse_nullspace inserts the determining equations
shortest-first, which keeps fill-in low on those very sparse systems.

Rational work is the same elimination on rows with their denominators
cleared.  KeyedSpan keeps the span of sparse vectors over arbitrary keys and
reads coordinates off tag columns; coordinates, solve_exact and kernel are
built on it, and reduced_rows gives the reduced row echelon form through
canonical_basis.  symmetric_signature, a congruence diagonalization, is the
only dense routine.
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


def _integer_row(row: dict) -> dict:
    """A rational row with its denominators cleared, as a primitive integer row."""
    denom = math.lcm(*(v.denominator for v in row.values()))
    return _row_normalize({c: v.numerator * (denom // v.denominator)
                           for c, v in row.items() if v})


def rows_to_integer(rows):
    """Clear denominators row by row: rational rows -> primitive integer rows."""
    return [r for r in map(_integer_row, rows) if r]


# ---------------------------------------------------------------------------
# rational spans on the same engine
# ---------------------------------------------------------------------------

class KeyedSpan:
    """The span of sparse rational vectors over hashable keys, as one
    SparseEchelon.  Keys become columns (0, i) in order of first sight, and
    each vector placed carries a tag column (1, k) of its own, after every
    key column.  A vector whose key part reduces to zero keeps only tags, a
    at its own and a_k at the k-th joined vector's: its coordinates are
    -a_k / a.  Any other vector can join the span as its reduced row.
    """

    def __init__(self):
        self.size = 0  # vectors joined so far
        self._columns: dict = {}
        self._echelon = SparseEchelon()

    def _reduce(self, vector: dict) -> dict:
        row = {(1, self.size): 1}
        for key, v in vector.items():
            if v:
                row[self._columns.setdefault(key, (0, len(self._columns)))] = v
        return self._echelon.reduce_row(_integer_row(row))

    def _read(self, row: dict):
        if min(row)[0] == 0:
            return None
        own = row[1, self.size]
        return [Fraction(-row.get((1, k), 0), own) for k in range(self.size)]

    def coordinates(self, vector: dict):
        """Exact coordinates of vector over the joined vectors, or None
        when it lies outside their span."""
        return self._read(self._reduce(vector))

    def place(self, vector: dict):
        """The coordinates of vector, or None after it joins the span."""
        row = self._reduce(vector)
        coords = self._read(row)
        if coords is None:
            self._echelon.insert(row)
            self.size += 1
        return coords


def coordinates(vectors, target):
    """Exact coordinates of target over vectors (sparse rational dicts), or
    None when it is not in their span.  A vector in the span of the vectors
    before it gets coordinate 0, so the answer is unique."""
    span = KeyedSpan()
    joined = [k for k, v in enumerate(vectors) if span.place(v) is None]
    coords = span.coordinates(target)
    if coords is None:
        return None
    out = [Fraction(0)] * len(vectors)
    for k, c in zip(joined, coords):
        out[k] = c
    return out


def solve_exact(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None when inconsistent.

    A column that depends on the columns before it gets x = 0, which is the
    solution with every free variable of the reduced echelon form at zero.
    """
    columns = [dict(enumerate(col)) for col in zip(*matrix)]
    return coordinates(columns, dict(enumerate(rhs)))


def kernel(matrix, ncols: int):
    """Nullspace basis of a rational matrix, one Fraction tuple per column
    that depends on the columns before it: column f with coordinates c_k
    over the independent columns k gives e_f - sum(c_k * e_k)."""
    span = KeyedSpan()
    joined, basis = [], []
    for f in range(ncols):
        coords = span.place({i: row[f] for i, row in enumerate(matrix)})
        if coords is None:
            joined.append(f)
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for k, c in zip(joined, coords):
            vec[k] = -c
        basis.append(tuple(vec))
    return basis


def reduced_rows(vectors):
    """Reduced row echelon form of rational vectors of one length, as
    (Fraction tuples with pivot 1, pivot columns): canonical_basis of the
    echelon over reversed columns, read forwards."""
    vectors = list(vectors)
    if not vectors:
        return [], []
    n = len(vectors[0])
    echelon = SparseEchelon()
    for v in vectors:
        echelon.insert(_integer_row({n - 1 - c: a for c, a in enumerate(v)}))
    if not echelon.rank:
        return [], []
    flipped = canonical_basis([tuple(row.get(c, 0) for c in range(n))
                               for row in echelon.pivots.values()])
    rows, pivots = [], []
    for v in reversed(flipped):
        row = v[::-1]
        p = next(c for c, a in enumerate(row) if a)
        rows.append(tuple(Fraction(a, row[p]) for a in row))
        pivots.append(p)
    return rows, pivots


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
