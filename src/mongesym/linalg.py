"""Exact linear algebra on one engine: sparse fraction-free elimination.

SparseEchelon works on integer rows (dict column -> coefficient) and never
leaves the integers: its one step clears a column against a pivot row by
cross multiplication and re-divides by the content, so no rounding and no
rational blow-up occurs.  The forward elimination applies it at each row's
leading column, and the back-reduction reduced() from the highest pivot
down; canonical_basis, reduced_rows and kernel read the reduced form.
sparse_nullspace first presolves: a row with one live entry forces its
column to zero in every kernel vector, and forcing propagates through a
column -> rows index (_forced_zeros).  Striking the forced columns, and the
rows they empty, leaves the kernel as it was, so the basis, the free
columns and the rank (pivots plus forced columns) are exactly those of the
whole system; on the determining equations the presolve strikes most rows.
Only the surviving rows are integerized (rows_to_integer) and eliminated,
shortest-first, which keeps fill-in low on those very sparse systems; a
Fraction back-substitution computes only the free columns' vectors.

Rational work is the same elimination on rows with their denominators
cleared.  KeyedSpan keeps the span of sparse vectors over arbitrary keys and
reads coordinates off tag columns; coordinates and solve_exact are built on
it.  symmetric_signature, a congruence diagonalization, is the only dense
routine.
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


def _eliminate(row: dict, piv: dict, c: int) -> dict:
    """row with column c cleared against piv by cross multiplication,
    normalized."""
    a, b = row[c], piv[c]
    g = math.gcd(a, b)
    ma, mb = b // g, a // g
    new = {k: ma * v for k, v in row.items()}
    for k, v in piv.items():
        w = new.get(k, 0) - mb * v
        if w:
            new[k] = w
        else:
            new.pop(k, None)
    return _row_normalize(new)


class SparseEchelon:
    """Incremental echelon form of an integer sparse matrix."""

    def __init__(self):
        self.pivots: dict = {}   # leading column -> normalized row

    def reduce_row(self, row: dict) -> dict:
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                return _row_normalize(row)
            row = _eliminate(row, piv, c)
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

    def reduced(self) -> dict:
        """Reduced row echelon form of the pivot rows: pivot column ->
        primitive row with a positive pivot and no other pivot column.  From
        the highest pivot down, a row is cleared of each later pivot column
        against the rows already reduced, which hold only their own pivot
        and free columns, so one pass per row is enough."""
        out: dict = {}
        for p in sorted(self.pivots, reverse=True):
            row = self.pivots[p]
            for c in [c for c in row if c in out]:
                row = _eliminate(row, out[c], c)
            out[p] = row
        return out


def _forced_zeros(rows) -> tuple:
    """The singleton presolve: (forced columns, live entries per row).

    A row with one live entry, nonzero and in a column not yet forced,
    forces that column to zero in every kernel vector.  Striking it lowers
    the live count of every row through the column -> rows index, and a row
    left with one live entry forces its column in turn.  The worklist holds
    each row at most once, so the propagation reads each entry a bounded
    number of times and needs no recursion.
    """
    where: dict = {}  # column -> rows with a nonzero entry there
    live = []
    for i, row in enumerate(rows):
        n = 0
        for c, v in row.items():
            if v:
                where.setdefault(c, []).append(i)
                n += 1
        live.append(n)
    forced: set = set()
    todo = [i for i, n in enumerate(live) if n == 1]
    while todo:
        i = todo.pop()
        if live[i] != 1:  # emptied since it was queued
            continue
        c = next(c for c, v in rows[i].items() if v and c not in forced)
        forced.add(c)
        for j in where[c]:
            live[j] -= 1
            if live[j] == 1:
                todo.append(j)
    return forced, live


def sparse_nullspace(rows, ncols: int):
    """Exact nullspace basis of a sparse homogeneous system with integer or
    rational rows.

    Returns (rank, basis) where each basis vector is a primitive integer
    tuple of length ncols, positive at its free (largest) column; basis
    vectors are ordered by free column, so the output is deterministic.

    A singleton presolve (_forced_zeros) runs first.  The forced columns are
    zero in every kernel vector, so striking them and the rows they empty
    leaves the kernel as it was: its free columns and its basis, which
    depend only on the kernel, are unchanged, and the rank is the pivots of
    the rest plus the forced columns.  Only the surviving rows, struck,
    are integerized and eliminated.  The basis comes from a
    back-substitution, which computes only the free columns' vectors, not
    from reduced(), which clears every pivot row: 4,649 of them, after the
    presolve, for the 14 vectors of dz13(10,9) at degree 5, where reading
    the basis off reduced() took 0.048 s against 0.039-0.047 s for the
    back-substitution (best of 5, process time, 2 cores, Python 3.11).
    """
    rows = [r for r in rows if r]
    forced, live = _forced_zeros(rows)
    survivors = rows_to_integer({c: v for c, v in row.items() if c not in forced}
                                for row, n in zip(rows, live) if n)
    ech = SparseEchelon()
    for row in sorted(survivors, key=_row_order_key):
        ech.insert(row)
    pivot_cols = sorted(ech.pivots)
    free_cols = [c for c in range(ncols)
                 if c not in ech.pivots and c not in forced]
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
        ints = _integer_row(x)
        sign = 1 if ints[f] > 0 else -1
        vec = [0] * ncols
        for c, v in ints.items():
            vec[c] = sign * v
        basis.append(tuple(vec))
    return ech.rank + len(forced), basis


def canonical_basis(vectors):
    """The basis sparse_nullspace gives for the span of `vectors`.

    `vectors` are linearly independent integer tuples of one length.  Their
    span has one basis in reduced echelon form with each pivot at a
    vector's largest column: for each such column f, x_f = 1 and every
    other pivot column is zero.  Those pivots are the free columns of any
    system whose nullspace is the span, so this is the basis
    sparse_nullspace returns for it, in primitive integers, ordered by f:
    SparseEchelon.reduced() over reversed columns."""
    if not vectors:
        return []
    n = len(vectors[0])
    echelon = SparseEchelon()
    for v in vectors:
        echelon.insert({n - 1 - c: a for c, a in enumerate(v) if a})
    basis = []
    for _, row in sorted(echelon.reduced().items(), reverse=True):
        vec = [0] * n
        for c, a in row.items():
            vec[n - 1 - c] = a
        basis.append(tuple(vec))
    return basis


def over_common_denominator(values):
    """(d, ints): rationals over one positive common denominator d, the lcm
    of their denominators, with ints the integers d * value in order."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _integer_row(row: dict) -> dict:
    """A rational row with its denominators cleared, as a primitive integer row."""
    _, ints = over_common_denominator(row.values())
    return _row_normalize({c: x for c, x in zip(row, ints) if x})


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
    A vector may come as numerators over a denominator den: its tag is then
    den, which places den times the vector, so nothing else changes.
    """

    def __init__(self):
        self.size = 0  # vectors joined so far
        self._columns: dict = {}
        self._echelon = SparseEchelon()

    def _reduce(self, vector: dict, den: int) -> dict:
        row = {(1, self.size): den}
        for key, v in vector.items():
            if v:
                row[self._columns.setdefault(key, (0, len(self._columns)))] = v
        return self._echelon.reduce_row(_integer_row(row))

    def _read(self, row: dict):
        if min(row)[0] == 0:
            return None
        own = row[1, self.size]
        return [Fraction(-row.get((1, k), 0), own) for k in range(self.size)]

    def coordinates(self, vector: dict, den: int = 1):
        """Exact coordinates of vector / den over the joined vectors, or
        None when it lies outside their span."""
        return self._read(self._reduce(vector, den))

    def place(self, vector: dict, den: int = 1):
        """The coordinates of vector / den, or None after it joins the span."""
        row = self._reduce(vector, den)
        coords = self._read(row)
        if coords is None:
            self._echelon.insert(row)
            self.size += 1
        return coords


def coordinates(vectors, target):
    """Exact coordinates of target over vectors, or None when it is not in
    their span; each is a pair (sparse rational dict, den) standing for
    dict / den.  A vector in the span of the vectors before it gets
    coordinate 0, so the answer is unique."""
    span = KeyedSpan()
    joined = [k for k, v in enumerate(vectors) if span.place(*v) is None]
    coords = span.coordinates(*target)
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
    return coordinates([(c, 1) for c in columns], (dict(enumerate(rhs)), 1))


def kernel(matrix, ncols: int):
    """Nullspace basis of a rational matrix, one Fraction tuple per free
    column f of its reduced echelon form R: x_f = 1, x_p = -R[p][f] / R[p][p]
    at each pivot p, and every other entry zero."""
    echelon = SparseEchelon()
    for v in matrix:
        echelon.insert(_integer_row(dict(enumerate(v))))
    reduced = echelon.reduced()
    basis = {f: [Fraction(1) if c == f else Fraction(0) for c in range(ncols)]
             for f in range(ncols) if f not in reduced}
    for p, row in reduced.items():
        for c, a in row.items():
            if c != p:
                basis[c][p] = Fraction(-a, row[p])
    return [tuple(v) for v in basis.values()]


def reduced_rows(vectors):
    """Reduced row echelon form of integer or rational vectors of one
    length, as (primitive integer tuples with a positive pivot, pivot
    columns): SparseEchelon.reduced() in pivot order."""
    vectors = list(vectors)
    if not vectors:
        return [], []
    n = len(vectors[0])
    echelon = SparseEchelon()
    for v in vectors:
        echelon.insert(_integer_row(dict(enumerate(v))))
    rows, pivots = [], []
    for p, row in sorted(echelon.reduced().items()):
        vec = [0] * n
        for c, a in row.items():
            vec[c] = a
        rows.append(tuple(vec))
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
