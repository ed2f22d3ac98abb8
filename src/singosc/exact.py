"""Exact rational helpers shared by the spectrum modules (standard library only)."""

from __future__ import annotations

import math
from fractions import Fraction


def exact_sqrt(value: Fraction) -> Fraction | None:
    """Square root of a non-negative rational if it is again rational."""
    if value < 0:
        raise ValueError("negative radicand")
    num, den = value.numerator, value.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _sign_one_root(c: int, a: int, radicand: int) -> int:
    """Sign of c + a*sqrt(radicand), by at most one comparison of squares."""
    root = _sign(a) if radicand else 0
    base = _sign(c)
    if root == 0 or base == root:
        return base
    if base == 0:
        return root
    return base * _sign(c * c - a * a * radicand)


def sqrt_sum_sign(c: int, a: int, A: int, b: int, B: int) -> int:
    """Sign (-1, 0 or 1) of c + a*sqrt(A) + b*sqrt(B) for integers with A, B >= 0.

    With L = c + a*sqrt(A) and R = b*sqrt(B), the sum takes the sign of L or R
    when they agree or one vanishes; otherwise it takes the sign of L times the
    sign of L^2 - R^2 = (c^2 + a^2 A - b^2 B) + 2ac*sqrt(A).  So at most two
    comparisons of squared integers decide it, exactly and at any size.
    """
    if A < 0 or B < 0:
        raise ValueError("negative radicand")
    left = _sign_one_root(c, a, A)
    right = _sign(b) if B else 0
    if right == 0 or left == right:
        return left
    if left == 0:
        return right
    return left * _sign_one_root(c * c + a * a * A - b * b * B, 2 * a * c, A)
