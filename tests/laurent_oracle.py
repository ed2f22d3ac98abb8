"""An independent oracle for block Laurent values, with rho_b expanded to r_b^2.

A value (num/den) / (rho1^j rho2^k) becomes a triple (P, j, k): P is the
numerator as a polynomial in the coordinates, momenta and parameters alone,
{(x exponents, p exponents, parameter exponents): Fraction}, in which every
rho_b has been replaced by the sum of its block's squares.  Two triples are
the same value when their numerators, cross-multiplied by the missing powers
of r1^2 and r2^2, are equal.  Nothing here uses the engine's normal form, its
packed keys or its division; values enter through ``as_dict`` and leave
through the constructor.
"""

from __future__ import annotations

from fractions import Fraction

from singosc.opalg import BlockPoly
from singosc.opalg.scalars import param_key


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def power(p: dict, e: int, width: int) -> dict:
    out = {(0,) * width: Fraction(1)}
    for _ in range(e):
        out = mul(out, p)
    return out


def width(layout) -> int:
    return 2 * layout.N + 4


def square_sum(layout, indices) -> dict:
    """sum of x_i^2 over ``indices``, as an oracle polynomial."""
    out = {}
    for i in indices:
        mono = [0] * width(layout)
        mono[i] = 2
        out[tuple(mono)] = Fraction(1)
    return out


def block_square(layout, block: int) -> dict:
    """r_block^2 as an oracle polynomial."""
    return square_sum(layout, range(layout.n) if block == 1 else range(layout.n, layout.N))


def expand(value) -> tuple[dict, int, int]:
    """(P, j, k) of a BlockPoly, every rho_b replaced by r_b^2."""
    layout = value.layout
    w = width(layout)
    out: dict = {}
    for mono, scalar in value.as_dict().items():
        coords, (e1, e2) = mono[:-2], mono[-2:]
        factor = mul(power(block_square(layout, 1), e1, w),
                     power(block_square(layout, 2), e2, w))
        for params, c in scalar.terms.items():
            out = add(out, mul({coords + params: c}, factor))
    return out, value.j, value.k


def lift(layout, triple, j: int, k: int) -> dict:
    """The numerator of ``triple`` over r1^(2j) r2^(2k), for j, k at least its own."""
    p, pj, pk = triple
    w = width(layout)
    return mul(p, mul(power(block_square(layout, 1), j - pj, w),
                      power(block_square(layout, 2), k - pk, w)))


def combine(layout, left, right, sign: int = 1) -> tuple[dict, int, int]:
    """left + sign * right, over the larger powers of r1^2 and r2^2."""
    j, k = max(left[1], right[1]), max(left[2], right[2])
    rhs = lift(layout, right, j, k)
    return add(lift(layout, left, j, k), {m: sign * c for m, c in rhs.items()}), j, k


def equal(layout, left, right) -> bool:
    """Cross-multiplied equality of two triples."""
    j, k = max(left[1], right[1]), max(left[2], right[2])
    return lift(layout, left, j, k) == lift(layout, right, j, k)


def value(layout, p: dict, j: int = 0, k: int = 0):
    """The BlockPoly of an oracle numerator over r1^(2j) r2^(2k)."""
    ncoord = width(layout) - 4
    num = {}
    for mono, c in p.items():
        key = param_key(mono[ncoord:])
        for i, e in enumerate(mono[:ncoord]):
            key += layout.x_key(i, e) if i < layout.N else layout.p_key(i - layout.N, e)
        num[key] = c
    return BlockPoly(layout, num, j, k)
