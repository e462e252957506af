"""The one elimination engine, checked against sympy.

linalg takes integer rows only: the tests draw rational matrices, hand
linalg each row over the lcm of its denominators, and give the oracles the
rational system, which has the same row space, kernel and solutions.
linalg answers in integers too: a rational answer comes as (numerators,
den), which the tests compare with the oracle's Fractions over their least
common denominator (as_integers)."""

import math
import random
from fractions import Fraction

import pytest

from mongesym import liealg, linalg
from mongesym.cli import main
from mongesym.linalg import (KeyedSpan, SparseEchelon, _forced_zeros,
                             canonical_basis, kernel, reduced_rows, solve_exact,
                             sparse_nullspace, symmetric_signature)

from helpers import (over_common_denominator, primitive_row,
                     reference_canonical_basis, reference_nullspace,
                     reference_root_signature, reference_rref, reference_solve,
                     reference_sparse_nullspace, reference_symmetric_signature,
                     same_span, sparse)


def random_matrix(rng: random.Random):
    """(rows, ncols): small rational entries with zero rows, repeated rows
    and rows combined from others, so most matrices are rank-deficient."""
    ncols = rng.randint(1, 14)
    rows = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.15:
            row = [Fraction(0)] * ncols
        elif kind < 0.3 and rows:
            row = list(rng.choice(rows))
        elif kind < 0.5 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                   if rng.random() < 0.6 else Fraction(0) for _ in range(ncols)]
        rows.append(row)
    return rows, ncols


def integer_rows(rows, ncols):
    """Each rational row over the lcm of its denominators, as a dense
    primitive integer row (helpers.primitive_row): the input linalg takes."""
    return [[r.get(c, 0) for c in range(ncols)]
            for r in (primitive_row(dict(enumerate(row))) for row in rows)]


def as_integers(values):
    """Rationals as (integer numerators, den) over the lcm of their reduced
    denominators, the lowest terms linalg answers in; None stays None."""
    if values is None:
        return None
    den, nums = over_common_denominator(values)
    return nums, den


SEEDS = range(300)


def test_reduced_rows_is_the_sympy_rref():
    # each sympy row scaled to primitive integers with a positive pivot
    for seed in SEEDS:
        rows, ncols = random_matrix(random.Random(seed))
        reduced, pivots = reference_rref(rows, ncols) if rows else ([], [])
        expected = [tuple(primitive_row(dict(enumerate(r))).get(c, 0)
                          for c in range(ncols)) for r in reduced]
        assert reduced_rows(integer_rows(rows, ncols)) == (expected, pivots), seed


def test_reduced_is_the_sympy_rref_up_to_row_scaling():
    for seed in SEEDS:
        rows, ncols = random_matrix(random.Random(seed))
        echelon = SparseEchelon()
        for row in rows:
            denom = math.lcm(*(x.denominator for x in row))
            echelon.insert({c: int(x * denom) for c, x in enumerate(row) if x})
        reduced = echelon.reduced()
        got = []
        for p in sorted(reduced):
            row = reduced[p]
            assert row[p] > 0 and math.gcd(*row.values()) == 1, seed
            got.append(tuple(Fraction(row.get(c, 0), row[p]) for c in range(ncols)))
        expected = reference_rref(rows, ncols) if rows else ([], [])
        assert (got, sorted(reduced)) == expected, seed


def wide_vectors(rng: random.Random):
    """Up to 6 sparse integer vectors of up to 60 entries, the shape of a
    solver basis: vectors with distinct largest columns, recombined by a
    random integer matrix, which may be singular."""
    n = rng.randint(1, 60)
    k = rng.randint(1, min(6, n))
    vectors = []
    for top in sorted(rng.sample(range(n), k)):
        v = [0] * n
        v[top] = rng.choice((-1, 1)) * rng.randint(1, 9)
        for c in range(top):
            if rng.random() < 0.3:
                v[c] = rng.randint(-9, 9)
        vectors.append(v)
    rng.shuffle(vectors)
    mixed = []
    for _ in range(k):
        weights = [rng.randint(-3, 3) for _ in range(k)]
        mixed.append(tuple(sum(w * v[c] for w, v in zip(weights, vectors))
                           for c in range(n)))
    return mixed


def test_canonical_basis_is_the_sympy_rref_over_reversed_columns():
    # sparse vectors in and out, ordered by free column, compared densified;
    # neither the order of the vectors nor that of their entries matters
    checked = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        vectors = wide_vectors(rng)
        n = len(vectors[0])
        if len(reference_rref(vectors, n)[1]) < len(vectors):
            continue
        checked += 1
        basis = canonical_basis([sparse(v) for v in vectors])
        assert all(type(x) is int and x for b in basis for x in b.values())
        assert [tuple(v) for v in dense(basis, n)] == reference_canonical_basis(vectors), seed
        rng.shuffle(vectors)
        shuffled = [dict(rng.sample(sorted(sparse(v).items()), len(sparse(v))))
                    for v in vectors]
        assert canonical_basis(shuffled) == basis, seed
    assert checked > 200
    assert canonical_basis([]) == []


def test_echelons_stop_reading_rows_at_full_rank():
    # every row after full rank lies in the span, so a lazy input is read
    # no further
    def rows():
        yield from ((2, 1), (0, 0), (1, 1))
        raise AssertionError("read past full rank")

    assert reduced_rows(rows()) == ([(1, 0), (0, 1)], [0, 1])
    assert kernel(rows(), 2) == []
    assert reduced_rows(iter(())) == ([], [])


def test_kernel_is_the_sympy_nullspace_basis():
    # one primitive integer vector per free column f, positive at f, its
    # largest nonzero column; sympy's vector is the same one scaled to x_f = 1
    for seed in SEEDS:
        rows, ncols = random_matrix(random.Random(seed))
        got = kernel(integer_rows(rows, ncols), ncols)
        expected = reference_nullspace(rows, ncols)
        assert len(got) == len(expected), seed
        for v, w in zip(got, expected):
            assert len(v) == ncols and all(type(x) is int for x in v), seed
            f = max(c for c, x in enumerate(v) if x)
            assert v[f] > 0 and math.gcd(*v) == 1, seed
            assert tuple(Fraction(x, v[f]) for x in v) == w, seed


def random_symmetric(rng: random.Random, n: int):
    """(kind, matrix): a symmetric integer n x n matrix that is the zero
    matrix, a rank-deficient B^T D B with B of k < n rows and D = diag(+-1),
    one with a zero diagonal, or one with entries in -3..3."""
    kind = rng.choice(("zero", "deficient", "zero_diagonal", "random"))
    if kind == "zero":
        return kind, [[0] * n for _ in range(n)]
    if kind == "deficient":
        k = rng.randrange(n) if n else 0
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        d = [rng.choice((-1, 1)) for _ in range(k)]
        return kind, [[sum(d[r] * b[r][i] * b[r][j] for r in range(k))
                       for j in range(n)] for i in range(n)]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or kind == "random":
                m[i][j] = m[j][i] = rng.randint(-3, 3)
    return kind, m


# hand-checked signatures: t^2 - 1 has a zero coefficient, and the last
# matrix has a zero diagonal and rank 2
SMALL_SIGNATURES = [
    ([], (0, 0, 0)),
    ([[0, 0], [0, 0]], (0, 0, 2)),
    ([[0, 1], [1, 0]], (1, 1, 0)),
    ([[1, 0, 0], [0, 0, 0], [0, 0, -2]], (1, 1, 1)),
    ([[-1, 0], [0, -3]], (0, 2, 0)),
    ([[0, 4, -2], [4, 0, 0], [-2, 0, 0]], (1, 1, 1)),
]


def test_symmetric_signature_matches_congruence_and_sympy_root_counts():
    # 360 seeded matrices, n = 0..8; sympy counts the characteristic
    # polynomial's roots, so it shares nothing with Descartes' rule
    for m, signature in SMALL_SIGNATURES:
        assert symmetric_signature(m) == signature, m
    kinds = set()
    for seed in range(360):
        kind, m = random_symmetric(random.Random(seed), seed % 9)
        kinds.add(kind)
        got = symmetric_signature(m)
        assert got == reference_symmetric_signature(m), seed
        assert got == reference_root_signature(m), seed
    assert kinds == {"zero", "deficient", "zero_diagonal", "random"}


def test_solve_exact_is_none_exactly_when_inconsistent():
    outcomes = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        rows, ncols = random_matrix(rng)
        if not rows:
            continue
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
        consistent = [sum(a * b for a, b in zip(row, x)) for row in rows]
        arbitrary = [Fraction(rng.randint(-3, 3)) for _ in rows]
        for rhs in (consistent, arbitrary):
            # each equation scaled with its right-hand side to integers
            matrix, scaled = [], []
            for row, b in zip(rows, rhs):
                d = math.lcm(*(x.denominator for x in (*row, b)))
                matrix.append([int(x * d) for x in row])
                scaled.append(int(b * d))
            got = solve_exact(matrix, scaled)
            assert got == as_integers(reference_solve(rows, rhs, ncols)), seed
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_explicit_zero_entries_are_dropped():
    assert sparse_nullspace([{0: 0, 1: 1}], 2) == (1, [(1, 0)])
    echelon = SparseEchelon()
    assert echelon.insert({0: 2, 1: 0})
    assert echelon.reduce_row({0: 0, 1: 3}) == {1: 1}
    assert not echelon.insert({0: 0})


def test_over_common_denominator_keeps_order_and_zeros():
    F = Fraction
    assert over_common_denominator([F(1, 2), F(0), F(-2, 3), F(5)]) == (6, [3, 0, -4, 30])
    assert over_common_denominator(x for x in (F(2, 4), F(3, 6))) == (2, [1, 1])
    assert over_common_denominator([]) == (1, [])


def test_solve_exact_without_rows_or_columns():
    assert solve_exact([], []) == ([], 1)
    assert solve_exact([[], []], [0, 0]) == ([], 1)
    assert solve_exact([[], []], [0, 1]) is None
    assert solve_exact([[0, 0]], [0]) == ([0, 0], 1)
    assert solve_exact([[0, 0]], [1]) is None


def test_keyed_span_reads_coordinates_off_tags():
    # keys seen late still sort before every tag
    span = KeyedSpan()
    assert span.place({"a": 1}) is None
    assert span.place({"b": 1}, 2) is None  # b / 2
    assert span.place({"a": 2, "b": -1}) == ([2, -2], 1)
    assert span.coordinates({"c": 1}) is None
    assert span.size == 2
    assert span.place({"a": 1, "c": 3}) is None
    assert span.coordinates({"a": 3, "b": 1, "c": 3}) == ([2, 2, 1], 1)
    assert span.coordinates({}) == ([0, 0, 0], 1)
    # (-a + b) / 3 = -1/3 * a + 2/3 * (b / 2): one positive den, lowest terms
    assert span.coordinates({"a": -1, "b": 1}, 3) == ([-1, 2, 0], 3)
    assert span.coordinates({"a": 2, "b": 4}, -6) == ([-1, -4, 0], 3)


# verify and genericity reach no elimination today; the test holds them to
# the contract should one come to
COMMANDS = {
    "solve": ["solve", "y + y2^(1/3)", "--degree", "2", "--offsets", "0,1/3,2/3",
              "--json"],
    "structure": ["structure", "eq2", "--json"],
    "verify": ["verify", "eq2", "--json"],
    "genericity": ["genericity", "eq2", "--json"],
    "reproduce": ["reproduce", "--json"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_only_ints_reach_linalg(monkeypatch, capsys, command):
    # every row any linalg entry point eliminates passes through
    # SparseEchelon.reduce_row, and the Killing matrix goes to
    # symmetric_signature: each value must be an int
    seen = []
    reduce_row = SparseEchelon.reduce_row
    signature = linalg.symmetric_signature

    def row_spy(self, row):
        seen.append(row.values())
        return reduce_row(self, row)

    def signature_spy(matrix):
        seen.extend(matrix)
        return signature(matrix)

    monkeypatch.setattr(SparseEchelon, "reduce_row", row_spy)
    monkeypatch.setattr(liealg, "symmetric_signature", signature_spy)
    assert main(COMMANDS[command]) == 0
    capsys.readouterr()
    if command not in ("verify", "genericity"):
        assert seen
    assert not [row for row in seen if any(type(v) is not int for v in row)]


def lowest_terms(answer) -> bool:
    """answer is int numerators over a positive int den with gcd 1."""
    nums, den = answer
    return (all(type(x) is int for x in nums) and type(den) is int and den > 0
            and math.gcd(den, *nums) == 1)


@pytest.mark.parametrize("command", ["structure", "reproduce"])
def test_linalg_answers_in_lowest_integer_terms(monkeypatch, capsys, command):
    # every answer of KeyedSpan.place, KeyedSpan.coordinates, coordinates
    # and solve_exact is None or (int numerators, positive int den), gcd 1
    answers = {}

    def spy(name, function):
        def wrapped(*args):
            answer = function(*args)
            answers.setdefault(name, []).append(answer)
            return answer
        return wrapped

    monkeypatch.setattr(KeyedSpan, "place", spy("place", KeyedSpan.place))
    monkeypatch.setattr(KeyedSpan, "coordinates",
                        spy("span.coordinates", KeyedSpan.coordinates))
    monkeypatch.setattr(liealg, "coordinates", spy("coordinates", linalg.coordinates))
    monkeypatch.setattr(liealg, "solve_exact", spy("solve_exact", linalg.solve_exact))
    assert main(COMMANDS[command]) == 0
    capsys.readouterr()
    assert sorted(answers) == ["coordinates", "place", "solve_exact", "span.coordinates"]
    for name, seen in answers.items():
        assert any(a is not None for a in seen), name
        assert all(lowest_terms(a) for a in seen if a is not None), name


# ---------------------------------------------------------------------------
# the singleton presolve of sparse_nullspace
# ---------------------------------------------------------------------------

# (rows, ncols, forced columns)
PLANTED = {
    # the second row is a singleton only once column 0 is forced, and the
    # third only once column 1 is
    "after_propagation": ([{0: 2}, {0: 1, 1: 3}, {1: -1, 2: 5}, {2: 4, 3: 4, 4: -4},
                           {3: 1, 4: 1, 5: 1}], 6, {0, 1, 2}),
    "forced_by_two_rows": ([{2: 3}, {2: -1}, {0: 1, 2: 7, 3: 1}, {0: 2, 1: 1}],
                           4, {2}),
    "every_column": ([{0: 1, 1: 1, 2: 1}, {2: 5}, {1: 2, 2: -3}, {0: -1, 3: 2},
                      {3: 1, 2: 1}], 4, {0, 1, 2, 3}),
    "no_singleton": ([{0: 1, 1: -1}, {1: 2, 2: 1}, {0: 3, 2: 3, 3: 1}, {3: 0, 4: 1, 5: 1}],
                     6, set()),
}


def random_sparse_system(rng: random.Random):
    """(rows, ncols): short integer rows, many of them singletons or pairs,
    so that forcing propagates along chains, with explicit zero entries and
    empty rows mixed in."""
    ncols = rng.randint(1, 16)
    rows = []
    for _ in range(rng.randint(0, 14)):
        size = rng.choice((0, 1, 1, 2, 2, 2, 3, 4))
        row = {c: rng.choice((-3, -2, -1, 1, 2, 5))
               for c in rng.sample(range(ncols), min(size, ncols))}
        if row and rng.random() < 0.1:
            row[rng.randrange(ncols)] = 0
        rows.append(row)
    return rows, ncols


def dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def check_against_oracles(rows, ncols):
    rank, basis = sparse_nullspace(rows, ncols)
    assert (rank, basis) == reference_sparse_nullspace(rows, ncols)
    null = reference_nullspace(dense(rows, ncols), ncols)
    assert rank == ncols - len(null)
    assert len(basis) == len(null)
    if basis:
        assert same_span(basis, null)


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_presolve_on_planted_systems(case):
    rows, ncols, forced = PLANTED[case]
    assert _forced_zeros(rows, ncols)[0] == forced
    check_against_oracles(rows, ncols)


def test_presolve_on_seeded_systems():
    forced = 0
    for seed in range(300):
        rows, ncols = random_sparse_system(random.Random(seed))
        forced += len(_forced_zeros([r for r in rows if r], ncols)[0])
        check_against_oracles(rows, ncols)
    assert forced > 300


def test_presolve_passes_only_survivors_on(monkeypatch):
    seen = []
    rows_to_integer = linalg.rows_to_integer

    def spy(rows):
        out = rows_to_integer(rows)
        seen.extend(out)
        return out

    monkeypatch.setattr(linalg, "rows_to_integer", spy)
    rows, ncols, _ = PLANTED["after_propagation"]
    assert sparse_nullspace(rows, ncols) == (5, [(0, 0, 0, -1, -1, 2)])
    assert seen == [{3: 1, 4: -1}, {3: 1, 4: 1, 5: 1}]


class CountedRow(dict):
    """A row that counts the passes over its entries."""
    passes = 0

    def items(self):
        CountedRow.passes += 1
        return super().items()

    def __iter__(self):
        CountedRow.passes += 1
        return super().__iter__()

    def keys(self):
        CountedRow.passes += 1
        return super().keys()

    def values(self):
        CountedRow.passes += 1
        return super().values()


def test_a_long_singleton_chain_is_forced_in_linear_work(monkeypatch):
    # the singleton comes last and each row forces the one before it, so a
    # sweep over the rows in order would force one column per sweep, and a
    # recursive propagation would nest 20,000 deep
    n = 20_000
    rows = [CountedRow({i: 1, i + 1: -2}) for i in range(n - 1)]
    rows.append(CountedRow({n - 1: 3}))
    eliminations = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: eliminations.append(1) or eliminate(*args))
    CountedRow.passes = 0
    assert sparse_nullspace(rows, n) == (n, [])
    assert CountedRow.passes <= 3 * n
    assert not eliminations
    CountedRow.passes = 0
    assert sparse_nullspace(rows, n + 1) == (n, [(0,) * n + (1,)])
    assert CountedRow.passes <= 3 * n


# ---------------------------------------------------------------------------
# the integer back-substitution of sparse_nullspace
# ---------------------------------------------------------------------------

def test_integer_rows_make_no_fraction(monkeypatch):
    # the presolve, the elimination and the back-substitution all stay in
    # the integers; the systems have pivot entries up to 5, so the
    # back-substitution must rescale to stay integer
    systems = [random_sparse_system(random.Random(seed)) for seed in range(300)]
    expected = [reference_sparse_nullspace(rows, ncols) for rows, ncols in systems]
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    got = [sparse_nullspace(rows, ncols) for rows, ncols in systems]
    monkeypatch.undo()
    assert made == []
    assert got == expected
    assert sum(len(basis) for _, basis in got) > 300


# one block of the block-diagonal system below: no singleton, so nothing is
# forced, pivot entries other than 1, and two free columns, each reaching
# pivot rows of its own block only
BLOCK = ([{0: 2, 1: 3, 3: -1}, {1: 5, 2: -2, 4: 1}, {2: 3, 3: 1, 4: 2}], 5)


def block_diagonal(copies: int):
    rows, width = BLOCK
    return ([{c + b * width: v for c, v in row.items()} for b in range(copies) for row in rows],
            copies * width)


def test_each_free_column_reads_only_its_own_block(monkeypatch):
    # the pivot rows are CountedRows; a back-substitution that walked every
    # pivot row below each free column would read the earlier blocks' rows
    # too, and the passes would grow with the square of the copies
    reduce_row = SparseEchelon.reduce_row
    passes = {}
    for copies in (1, 8):
        rows, ncols = block_diagonal(copies)
        expected = reference_sparse_nullspace(rows, ncols)
        assert len(expected[1]) == 2 * copies
        with monkeypatch.context() as patch:
            patch.setattr(SparseEchelon, "reduce_row",
                          lambda self, row: CountedRow(reduce_row(self, row)))
            CountedRow.passes = 0
            assert sparse_nullspace(rows, ncols) == expected
            passes[copies] = CountedRow.passes
    assert passes[8] == 8 * passes[1]


def test_the_vectors_rescale_and_reach_through_new_columns():
    # free column 3 is first reached by pivot 2 only; its vector then
    # reaches pivot 1 through column 2 and pivot 0 through column 1, and
    # each pivot entry divides nothing, so x is rescaled at every step
    rows = [{0: 3, 1: 1}, {1: 5, 2: 1}, {2: 7, 3: 1}]
    assert sparse_nullspace(rows, 4) == (3, [(-1, 3, -15, 105)])
    assert sparse_nullspace(rows, 4) == reference_sparse_nullspace(rows, 4)


def test_reduction_normalizes_once_and_leaves_the_pivot_rows_as_they_are():
    # the step updates a row in place when its multiplier is 1, which
    # clearing column 1 of the first row against the second one has
    echelon = SparseEchelon()
    assert echelon.insert({0: 2, 1: 2, 2: 6})
    assert echelon.insert({1: 1, 2: 1})
    pivots = {p: dict(row) for p, row in echelon.pivots.items()}
    assert pivots == {0: {0: 1, 1: 1, 2: 3}, 1: {1: 1, 2: 1}}
    assert echelon.reduce_row({0: 3, 1: 9, 2: 3, 3: 12}) == {2: 1, 3: -1}
    assert echelon.reduced() == {0: {0: 1, 2: 2}, 1: {1: 1, 2: 1}}
    assert echelon.pivots == pivots
