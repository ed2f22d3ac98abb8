"""Canonical form, closure, and calculus of the block Laurent polynomials."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singosc.opalg import BlockLayout, BlockPoly, ParamScalar


def _x(layout, i, power=1, coeff=1):
    return BlockPoly.monomial(layout, layout.x_key(i, power), coeff)


def _r1sq(layout):
    out = BlockPoly.zero(layout)
    for i in range(layout.n):
        out = out + _x(layout, i, 2)
    return out


def _r2sq(layout):
    out = BlockPoly.zero(layout)
    for i in range(layout.n, layout.N):
        out = out + _x(layout, i, 2)
    return out


def test_reduction_cancels_exact_block_factors():
    layout = BlockLayout(4, 2)
    r1 = _r1sq(layout)
    # (r1^2 * x3) / r1^2 must reduce to x3
    val = BlockPoly(layout, (r1 * _x(layout, 2)).num, j=1, k=0)
    assert val == _x(layout, 2)
    assert (val.j, val.k) == (0, 0)
    # (r1^2 r2^2) / (r1^2 r2^2) -> 1
    both = _r1sq(layout) * _r2sq(layout)
    val = BlockPoly(layout, both.num, j=1, k=1)
    assert val == BlockPoly.scalar(layout, 1)


def test_reduction_stops_at_non_divisible_numerator():
    layout = BlockLayout(4, 2)
    val = BlockPoly(layout, _x(layout, 0).num, j=1, k=0)
    assert (val.j, val.k) == (1, 0)
    assert val.term_count() == 1


def test_one_coordinate_block_divides_by_square():
    layout = BlockLayout(3, 1)
    # x1^3 / r1^2 with r1^2 = x1^2 reduces to x1
    val = BlockPoly(layout, _x(layout, 0, 3).num, j=1, k=0)
    assert val == _x(layout, 0)


def test_derivative_of_inverse_block_radius():
    layout = BlockLayout(4, 2)
    inv_r1 = BlockPoly(layout, BlockPoly.scalar(layout, 1).num, j=1, k=0)
    got = inv_r1.diff_x(0)
    expected = BlockPoly(layout, _x(layout, 0, 1, Fraction(-2)).num, j=2, k=0)
    assert got == expected
    # derivative in a block-2 coordinate leaves the r1 denominator alone
    assert inv_r1.diff_x(3).is_zero()


def test_derivative_product_rule_against_expansion():
    layout = BlockLayout(5, 2)
    rng = random.Random(11)
    for _ in range(20):
        num = {}
        for _ in range(3):
            key = sum(layout.x_key(rng.randrange(5), rng.randrange(3)) for _ in (0, 1))
            num[key] = Fraction(rng.randrange(-4, 5) or 1)
        val = BlockPoly(layout, num, j=rng.randrange(2), k=rng.randrange(2))
        i = rng.randrange(5)
        # cross-check: d/dx_i (val * r1^2 r2^2) == (d val) r1^2 r2^2 + val * d(r1^2 r2^2)
        r1r2 = _r1sq(layout) * _r2sq(layout)
        lhs = (val * r1r2).diff_x(i)
        rhs = val.diff_x(i) * r1r2 + val * r1r2.diff_x(i)
        assert lhs == rhs


def test_equivalent_cross_multiplication():
    layout = BlockLayout(4, 2)
    one_over_r1 = BlockPoly(layout, BlockPoly.scalar(layout, 1).num, j=1, k=0)
    scaled = BlockPoly(layout, _r2sq(layout).num, j=1, k=1, reduce=False)
    assert scaled.equivalent(one_over_r1)
    assert not scaled.equivalent(one_over_r1 + one_over_r1)


def test_scaled_by_param_scalar():
    layout = BlockLayout(2, 1)
    val = _x(layout, 0) + _x(layout, 1)
    scaled = val.scaled(ParamScalar.hbar(2, Fraction(1, 2)))
    d = scaled.as_dict()
    assert d[(1, 0)] == ParamScalar.hbar(2, Fraction(1, 2))


def test_substitute_params_drops_coupled_terms():
    layout = BlockLayout(2, 1)
    val = (BlockPoly.scalar(layout, ParamScalar.c1())
           + BlockPoly.scalar(layout, ParamScalar.omega(2)))
    out = val.substitute_params({"c1": Fraction(0)})
    assert out == BlockPoly.scalar(layout, ParamScalar.omega(2))
    out2 = val.substitute_params({"c1": Fraction(2), "omega": Fraction(3)})
    assert out2 == BlockPoly.scalar(layout, Fraction(11))


def test_degrees_and_momenta_layout():
    layout = BlockLayout(3, 1, momenta=True)
    val = BlockPoly.monomial(layout, layout.x_key(0, 2) + layout.p_key(2, 3))
    assert val.x_degree() == 2
    assert val.p_degree() == 3
    assert val.diff_p(2).p_degree() == 2
    assert val.diff_p(1).is_zero()


def test_invalid_layout_rejected():
    with pytest.raises(ValueError):
        BlockLayout(4, 0)
    with pytest.raises(ValueError):
        BlockLayout(4, 4)
    with pytest.raises(ValueError):
        BlockLayout(1, 1)


def _quotient_rule(value, i):
    """d/dx_i of P / (r1^2)^j (r2^2)^k as (dP r_b^2 - 2 e x_i P) / r_b^(2e+2),
    built from polynomials and fully reduced by the constructor."""
    layout = value.layout
    block = layout.block_of(i)
    exp = value.j if block == 1 else value.k
    P = BlockPoly(layout, {key: Fraction(c, value.den) for key, c in value.num.items()})
    rsq = _r1sq(layout) if block == 1 else _r2sq(layout)
    num = P.diff_x(i) * rsq - (_x(layout, i) * P).scaled(2 * exp)
    return BlockPoly(layout, {key: Fraction(c, num.den) for key, c in num.num.items()},
                     j=value.j + (block == 1), k=value.k + (block == 2))


def _random_part(layout, rng):
    num = {}
    for _ in range(rng.randrange(1, 4)):
        key = sum(layout.x_key(rng.randrange(layout.N), rng.randrange(1, 3))
                  for _ in range(rng.randrange(3)))
        num[key] = Fraction(rng.randrange(-4, 5) or 1, rng.randrange(1, 4))
    return BlockPoly(layout, num, j=rng.randrange(3), k=rng.randrange(3))


@pytest.mark.parametrize("split", [(4, 1), (4, 2), (5, 3)])
def test_derivative_is_the_fully_reduced_quotient_rule(split):
    # diff_x skips the same-block division for blocks of two or more
    # coordinates; the result must still be canonical.  Sums of parts over
    # different denominators make the other block's division succeed, and a
    # factor x_1 or x_N lets a one-coordinate block's x^2 divide out.
    layout = BlockLayout(*split)
    rng = random.Random(17)
    hits = 0
    for _ in range(40):
        value = _random_part(layout, rng) + _random_part(layout, rng)
        if rng.randrange(2):
            value = value * _x(layout, rng.choice((0, layout.N - 1)))
        for i in range(layout.N):
            expected = _quotient_rule(value, i)
            assert value.diff_x(i) == expected, (value, i)
            if (value.j if i < layout.n else value.k) > 0:
                grown = (value.j + (i < layout.n), value.k + (i >= layout.n))
                hits += (expected.j, expected.k) != grown
    assert hits  # a division after the quotient rule did succeed


def test_momentum_derivative_is_canonical():
    from singosc.opalg import build_classical
    gens = build_classical(4, 2)
    layout = gens.layout
    assert gens.H.value.diff_p(0) == BlockPoly.monomial(layout, layout.p_key(0))
