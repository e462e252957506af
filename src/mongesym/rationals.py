"""Exact rational powers, on integer pairs and on fractions.Fraction.

No float ever enters an exact computation.  Expressions keep integer
numerators over one denominator per expression (see expr), so their rational
powers go through ratio_pow on (numerator, denominator) pairs; exact_pow is
the same on Fractions, for values at the interface (substitution, exp rates).
Both decide when a rational power of a rational number is again rational
(8^(1/3) = 2) and compute it exactly when it is.
"""

from __future__ import annotations

from fractions import Fraction


def integer_nth_root(n: int, p: int) -> int:
    """Floor of the p-th root of n >= 0, exact integer arithmetic."""
    if n < 0 or p <= 0:
        raise ValueError("integer_nth_root requires n >= 0 and p >= 1")
    if n in (0, 1) or p == 1:
        return n
    if p >= n.bit_length():  # n < 2^p, so the root is below 2
        return 1
    # Newton iteration on integers; seed from bit length.
    x = 1 << ((n.bit_length() + p - 1) // p)
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            break
        x = y
    while x ** p > n:
        x -= 1
    return x

def exact_root(n: int, p: int):
    """Exact p-th root of n >= 0, or None when n is not a perfect p-th power."""
    r = integer_nth_root(n, p)
    return r if r ** p == n else None

def ratio_pow(n: int, d: int, exponent: Fraction):
    """(n/d)**exponent as a pair (numerator, denominator > 0), or None when
    the value is irrational; n/d must be in lowest terms with d > 0, and so
    is the result.

    Negative bases are supported only for odd root orders ((-8)^(1/3) = -2).
    0**q is 0 for q > 0 and None otherwise.
    """
    s, p = exponent.numerator, exponent.denominator
    if n == 0:
        return (0, 1) if s > 0 else None
    sign = 1
    if n < 0:
        if p % 2 == 0:
            return None
        n, sign = -n, (-1 if s % 2 else 1)
    rn, rd = exact_root(n, p), exact_root(d, p)
    if rn is None or rd is None:
        return None
    if s < 0:
        rn, rd, s = rd, rn, -s
    return sign * rn ** s, rd ** s

def exact_pow(base: Fraction, exponent: Fraction):
    """base**exponent as a Fraction, or None when the value is irrational
    (ratio_pow on the base's numerator and denominator)."""
    base = Fraction(base)
    power = ratio_pow(base.numerator, base.denominator, Fraction(exponent))
    return None if power is None else Fraction(*power)
