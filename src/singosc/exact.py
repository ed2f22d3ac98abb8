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
