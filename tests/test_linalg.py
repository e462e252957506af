"""The one elimination engine on rational input, checked against sympy."""

import random
from fractions import Fraction

import pytest

from mongesym.linalg import KeyedSpan, kernel, reduced_rows, solve_exact

from helpers import reference_nullspace, reference_rref, reference_solve


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


SEEDS = range(300)


def test_reduced_rows_is_the_sympy_rref():
    for seed in SEEDS:
        rows, ncols = random_matrix(random.Random(seed))
        expected = reference_rref(rows, ncols) if rows else ([], [])
        assert reduced_rows(rows) == expected, seed


def test_kernel_is_the_sympy_nullspace_basis():
    for seed in SEEDS:
        rows, ncols = random_matrix(random.Random(seed))
        assert kernel(rows, ncols) == reference_nullspace(rows, ncols), seed


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
            got = solve_exact(rows, rhs)
            assert got == reference_solve(rows, rhs, ncols), seed
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_solve_exact_without_rows_or_columns():
    assert solve_exact([], []) == []
    assert solve_exact([[], []], [0, 0]) == []
    assert solve_exact([[], []], [0, 1]) is None
    assert solve_exact([[0, 0]], [0]) == [0, 0]
    assert solve_exact([[0, 0]], [1]) is None


def test_keyed_span_reads_coordinates_off_tags():
    # keys seen late still sort before every tag
    span = KeyedSpan()
    assert span.place({"a": 1}) is None
    assert span.place({"b": Fraction(1, 2)}) is None
    assert span.place({"a": 2, "b": -1}) == [2, -2]
    assert span.coordinates({"c": 1}) is None
    assert span.size == 2
    assert span.place({"a": 1, "c": 3}) is None
    assert span.coordinates({"a": 3, "b": 1, "c": 3}) == [2, 2, 1]
    assert span.coordinates({}) == [0, 0, 0]
