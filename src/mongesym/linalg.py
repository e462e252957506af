"""Exact linear algebra on one engine: sparse fraction-free elimination.

Every entry point takes integer rows and answers in integers: callers
clear denominators before they call in.  SparseEchelon works on integer
rows (dict column -> coefficient) and never leaves the integers: its one
step clears a column against a pivot row by cross multiplication, and each
reduced row is divided by its content once, at the end, so no rounding and
no rational blow-up occurs.  The forward elimination applies the step at
each row's leading column, and the back-reduction reduced() from the
highest pivot down; reduced_rows reads the reduced form, and
canonical_basis is reduced_rows over reversed columns.  Every kernel is
read off the pivot rows by one integer back-substitution
(_back_substitute): kernel's on a small dense matrix, sparse_nullspace's
after a presolve.
sparse_nullspace first presolves: a row with one live entry forces its
column to zero in every kernel vector, and forcing propagates through a
column -> rows index (_forced_zeros).  Striking the forced columns, and the
rows they empty, leaves the kernel as it was, so the basis, the free
columns and the rank (pivots plus forced columns) are exactly those of the
whole system; on the determining equations the presolve strikes most rows.
Only the surviving rows are normalized (rows_to_integer) and eliminated,
shortest-first, which keeps fill-in low on those very sparse systems; an
integer back-substitution (_back_substitute) computes only the free
columns' vectors, each from just the pivot rows it reaches.

KeyedSpan keeps the span of sparse integer vectors over arbitrary keys and
reads their coordinates off tag columns; coordinates places its vectors in
a fresh one per call.  KeyedSpan, coordinates and solve_exact answer
(integer numerators, den > 0) in lowest terms.  symmetric_signature reads
the signature of a symmetric integer matrix off its characteristic
polynomial, by Descartes' rule of signs.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import defaultdict
from itertools import chain, compress


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
    """row with column c cleared against piv by cross multiplication.

    The caller owns row: it is updated in place when its multiplier is 1.
    The result is not normalized; reduce_row and reduced() divide out the
    content once per reduced row, not once per step."""
    a, b = row[c], piv[c]
    g = math.gcd(a, b)
    ma, mb = b // g, a // g
    if ma != 1:
        row = {k: ma * v for k, v in row.items()}
    get = row.get
    for k, v in piv.items():
        w = get(k, 0) - mb * v
        if w:
            row[k] = w
        else:  # column c among them
            del row[k]
    return row


class SparseEchelon:
    """Incremental echelon form of sparse integer rows, inserted in order."""

    def __init__(self, rows=()):
        self.pivots: dict = {}   # leading column -> normalized row
        for row in rows:
            self.insert(row)

    def reduce_row(self, row: dict) -> dict:
        """row reduced against the pivots at its leading column until that
        column holds no pivot, normalized; {} when it reduces to zero."""
        row = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        while row:
            c = min(row)
            piv = pivots.get(c)
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
            later = [c for c in row if c in out]
            if later:
                row = dict(row)
                for c in later:
                    row = _eliminate(row, out[c], c)
                row = _row_normalize(row)
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
    rows = [row if all(row.values()) else {c: v for c, v in row.items() if v}
            for row in rows]
    where = defaultdict(list)  # column -> rows with a nonzero entry there
    for i, row in enumerate(rows):
        for c in row:
            where[c].append(i)
    live = list(map(len, rows))
    forced: set = set()
    todo = [i for i, n in enumerate(live) if n == 1]
    while todo:
        i = todo.pop()
        if live[i] != 1:  # emptied since it was queued
            continue
        for c in rows[i]:
            if c not in forced:
                break
        forced.add(c)
        for j in where[c]:
            n = live[j] - 1
            live[j] = n
            if n == 1:
                todo.append(j)
    return forced, live


def _back_substitute(pivots: dict, free_cols) -> list:
    """One primitive integer kernel vector per free column f, as a sparse
    dict positive at f: x_f = 1, every other free column zero, and each
    pivot column solved from its row.

    Only the pivot rows that hold a column already nonzero in x can get a
    nonzero x at their pivot, so each vector visits just those, through a
    column -> pivot rows index, in descending pivot order: a max-heap of
    pivots, where a row pushed while solving pivot p holds p off its own
    pivot, so its pivot lies below p and the order is exact.  x stays
    integer: when the pivot entry a does not divide the row's sum s, x is
    first multiplied by a / gcd(s, a)."""
    holders = defaultdict(list)  # column -> pivots whose rows hold it off the pivot
    for p, row in pivots.items():
        for c in row:
            if c != p:
                holders[c].append(p)
    vectors = []
    for f in free_cols:
        x = {f: 1}
        queued = set(holders.get(f, ()))
        heap = [-p for p in queued]
        heapq.heapify(heap)
        while heap:
            p = -heapq.heappop(heap)
            row = pivots[p]
            s = 0
            for k, v in row.items():
                xv = x.get(k)
                if xv is not None:
                    s += v * xv
            if not s:
                continue
            a = row[p]
            g = math.gcd(s, a)
            if a != g:
                m = a // g
                x = {k: m * v for k, v in x.items()}
            x[p] = -(s // g)
            for q in holders.get(p, ()):
                if q not in queued:
                    queued.add(q)
                    heapq.heappush(heap, -q)
        g = math.gcd(*x.values())
        if x[f] < 0:
            g = -g
        vectors.append({c: v // g for c, v in x.items()})
    return vectors


def sparse_nullspace(rows, ncols: int, counts: dict | None = None):
    """Exact nullspace basis of a sparse homogeneous system with integer
    rows.

    Returns (rank, basis) where each basis vector is a primitive integer
    tuple of length ncols, positive at its free (largest) column; basis
    vectors are ordered by free column, so the output is deterministic.

    A singleton presolve (_forced_zeros) runs first.  The forced columns are
    zero in every kernel vector, so striking them and the rows they empty
    leaves the kernel as it was: its free columns and its basis, which
    depend only on the kernel, are unchanged, and the rank is the pivots of
    the rest plus the forced columns.  Only the surviving rows, struck,
    are normalized and eliminated.  The basis comes from an integer
    back-substitution (_back_substitute), which visits per free column only
    the pivot rows it reaches, not from reduced(), which clears every pivot
    row: 4,649 of them, after the presolve, for the 14 vectors of
    dz13(10,9) at degree 5, where the back-substitution takes 0.003 s
    against 0.024 s for reduced() (best of 7, process time, 2 cores,
    Python 3.11).

    A dict given as counts receives the elimination's sizes: rows (the
    nonempty input rows), forced_columns, surviving_rows, pivots,
    pivot_nonzeros and max_pivot_bits (the largest pivot-row entry).
    """
    rows = [r for r in rows if r]
    forced, live = _forced_zeros(rows)
    survivors = rows_to_integer(
        row if n == len(row) else {c: v for c, v in row.items() if v and c not in forced}
        for row, n in zip(rows, live) if n)
    ech = SparseEchelon(sorted(survivors, key=_row_order_key))
    pivots = ech.pivots
    if counts is not None:
        counts.update(rows=len(rows), forced_columns=len(forced),
                      surviving_rows=len(survivors), pivots=len(pivots),
                      pivot_nonzeros=sum(map(len, pivots.values())),
                      max_pivot_bits=max((abs(v).bit_length() for row in pivots.values()
                                          for v in row.values()), default=0))
    free_cols = [c for c in range(ncols) if c not in pivots and c not in forced]
    return ech.rank + len(forced), _dense(_back_substitute(pivots, free_cols), ncols)


def _dense(rows, ncols: int) -> list:
    """Sparse integer rows as dense tuples of length ncols."""
    out = []
    for row in rows:
        vec = [0] * ncols
        for c, v in row.items():
            vec[c] = v
        out.append(tuple(vec))
    return out


def canonical_basis(vectors):
    """The basis sparse_nullspace gives for the span of `vectors`.

    `vectors` are linearly independent integer tuples of one length.  Their
    span has one basis in reduced echelon form with each pivot at a
    vector's largest column: for each such column f, x_f = 1 and every
    other pivot column is zero.  Those pivots are the free columns of any
    system whose nullspace is the span, so this is the basis
    sparse_nullspace returns for it, in primitive integers, ordered by f:
    reduced_rows over reversed columns, read backwards."""
    rows, _ = reduced_rows(v[::-1] for v in vectors)
    return [row[::-1] for row in reversed(rows)]


def rows_to_integer(rows):
    """The integer rows, each divided by its content and positive at its
    leading column; perfbench/layertrace.py times it under this name."""
    return list(map(_row_normalize, rows))


# ---------------------------------------------------------------------------
# spans of integer vectors and their coordinates
# ---------------------------------------------------------------------------

class KeyedSpan:
    """The span of sparse integer vectors over hashable keys, as one
    SparseEchelon.  Keys become columns (0, i) in order of first sight, and
    the k-th vector placed carries a tag column (1, -k) of its own, after
    every key column.  A vector whose key part reduces to zero keeps only
    tags: a > 0 at its own, which leads, and a_k at the k-th joined
    vector's; its coordinates are -a_k over a, in lowest terms since the
    row is primitive.  Any other vector can join the span as its reduced
    row.  A rational vector comes as integer numerators over a denominator
    den: its tag is then den, which places den times the vector, so
    nothing else changes.
    """

    def __init__(self):
        self.size = 0  # vectors joined so far
        self._columns = {}
        self._echelon = SparseEchelon()

    def _reduce(self, vector: dict, den: int) -> dict:
        row = {(1, -self.size): den}
        for key, v in vector.items():
            if v:
                row[self._columns.setdefault(key, (0, len(self._columns)))] = v
        return self._echelon.reduce_row(row)

    def _read(self, row: dict):
        if min(row)[0] == 0:
            return None
        return [-row.get((1, -k), 0) for k in range(self.size)], row[1, -self.size]

    def coordinates(self, vector: dict, den: int = 1):
        """Exact coordinates of vector / den over the joined vectors, as
        (numerators, den), or None when it lies outside their span."""
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
    """Exact coordinates of target over vectors as (numerators, den), or
    None when it is not in their span; each is a pair (sparse integer dict,
    den) standing for dict / den.  A vector in the span of the vectors
    before it gets coordinate 0, so the answer is unique."""
    span = KeyedSpan()
    joined = [k for k, v in enumerate(vectors) if span.place(*v) is None]
    coords = span.coordinates(*target)
    if coords is None:
        return None
    out = dict(zip(joined, coords[0]))
    return [out.get(k, 0) for k in range(len(vectors))], coords[1]


def solve_exact(matrix, rhs):
    """One exact solution of matrix * x = rhs, with integer matrix and rhs,
    as (numerators, den), or None when inconsistent.

    A column that depends on the columns before it gets x = 0, which is the
    solution with every free variable of the reduced echelon form at zero.
    """
    columns = [dict(enumerate(col)) for col in zip(*matrix)]
    return coordinates([(c, 1) for c in columns], (dict(enumerate(rhs)), 1))


def _echelon(vectors, ncols: int) -> SparseEchelon:
    """The echelon form of dense integer vectors of length ncols.  It stops
    reading them at full rank, where every later vector lies in the span, so
    vectors may be a lazy iterable."""
    ech = SparseEchelon()
    for v in vectors:
        ech.insert({c: v[c] for c in compress(range(ncols), v)})
        if ech.rank == ncols:
            break
    return ech


def kernel(matrix, ncols: int):
    """Nullspace basis of an integer matrix, one primitive integer tuple per
    free column f of its echelon form, positive at f (its largest nonzero
    column) and zero at every other free column: sparse_nullspace's
    back-substitution (_back_substitute), without the presolve."""
    pivots = _echelon(matrix, ncols).pivots
    return _dense(_back_substitute(pivots, [c for c in range(ncols) if c not in pivots]),
                  ncols)


def reduced_rows(vectors):
    """Reduced row echelon form of integer vectors of one length, as
    (primitive integer tuples with a positive pivot, pivot columns):
    SparseEchelon.reduced() in pivot order.  vectors may be a lazy iterable,
    read only up to full rank."""
    vectors = iter(vectors)
    first = next(vectors, ())
    n = len(first)
    reduced = _echelon(chain((first,), vectors), n).reduced()
    pivots = sorted(reduced)
    return _dense([reduced[p] for p in pivots], n), pivots


def _sign_changes(coefficients) -> int:
    """Sign changes along the sequence, zero entries skipped."""
    signs = [c > 0 for c in coefficients if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def symmetric_signature(matrix):
    """Signature (n_plus, n_minus, n_zero) of a symmetric integer matrix A.

    Its characteristic polynomial det(tI - A) = sum c_k t^k comes from the
    Faddeev-LeVerrier recursion: c_n = 1, M_1 = I, and for k = 1..n
    c_(n-k) = -tr(A M_k) / k and M_(k+1) = A M_k + c_(n-k) I, where every
    division is exact over the integers.  Every M_k is a polynomial in A,
    so it is symmetric, and (A M_k)_ij is row i of A dotted with row j of
    M_k.  A symmetric matrix has only real eigenvalues, so Descartes' rule
    of signs is exact: the sign changes of p(t) count the positive ones,
    those of p(-t) the negative ones, and the rest are zero.
    """
    n = len(matrix)
    coefficients = [1]  # c_n, c_(n-1), ..., c_0
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(map(operator.mul, a, row)) for row in m] for a in matrix]
        c = -sum(am[i][i] for i in range(n)) // k
        coefficients.append(c)
        for i in range(n):
            am[i][i] += c
        m = am
    plus = _sign_changes(coefficients)
    minus = _sign_changes(-x if j % 2 else x for j, x in enumerate(coefficients))
    return plus, minus, n - plus - minus
