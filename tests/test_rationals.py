"""Exact integer roots and rational powers."""

from bisect import bisect_right
from fractions import Fraction

import pytest

from mongesym.rationals import exact_root, integer_nth_root, ratio_pow


@pytest.mark.parametrize("p", range(1, 17))
def test_integer_nth_root_is_the_brute_force_floor_root(p):
    # every n < 2^12, so p runs through bit_length - 1 and bit_length and
    # past them for every n
    powers = [r ** p for r in range(4097)]
    for n in range(1 << 12):
        assert integer_nth_root(n, p) == bisect_right(powers, n) - 1, n


@pytest.mark.parametrize("bits", [13, 64, 100, 521])
def test_integer_nth_root_near_the_bit_length(bits):
    for n in (1 << (bits - 1), (1 << bits) - 1, 3 << (bits - 2)):
        assert integer_nth_root(n, bits) == 1  # n < 2^bits
        assert integer_nth_root(n, bits - 1) == 2  # 2^(bits-1) <= n < 3^(bits-1)
    assert integer_nth_root(1 << bits, bits) == 2


def test_a_huge_root_order_is_answered_at_once():
    order = int("7" * 4000)
    assert integer_nth_root(2, order) == 1
    assert integer_nth_root(0, order) == 0 and integer_nth_root(1, order) == 1
    assert exact_root(2, order) is None and exact_root(1, order) == 1
    assert ratio_pow(1, 2, Fraction(1, order)) is None
    assert ratio_pow(1, 1, Fraction(-1, order)) == (1, 1)


def test_bad_arguments_are_refused():
    for n, p in ((-1, 2), (4, 0)):
        with pytest.raises(ValueError, match="requires n >= 0 and p >= 1"):
            integer_nth_root(n, p)
