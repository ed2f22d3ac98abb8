"""Canonical form, closure, and calculus of the block Laurent polynomials."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import laurent_oracle as oracle
from laurent_oracle import expand
from singosc.opalg import BlockLayout, BlockPoly, ParamScalar
from singosc.opalg.scalars import param_key


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
    one_over_r1 = BlockPoly.monomial(layout, 0, j=1)
    # r2^2 / (r1^2 r2^2), built from x3^2 + x4^2 outside the engine
    scaled = (oracle.block_square(layout, 2), 1, 1)
    assert oracle.equal(layout, scaled, expand(one_over_r1))
    assert not oracle.equal(layout, scaled, expand(one_over_r1 + one_over_r1))
    assert oracle.value(layout, *scaled) == one_over_r1


def _random_x_value(layout, rng, nterms=4):
    """Random x and parameter terms, lead powers up to 3, over r1^2/r2^2 powers."""
    num = {}
    for _ in range(nterms):
        key = param_key((rng.randrange(2), 0, rng.randrange(2), 0))
        for _ in range(rng.randrange(4)):
            key += layout.x_key(rng.randrange(layout.N))
        num[key] = num.get(key, 0) + Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 6))
    return BlockPoly(layout, num, j=rng.randrange(3), k=rng.randrange(3))


@pytest.mark.parametrize("split", [(3, 1), (4, 2), (5, 3)])
def test_canonical_whichever_way_a_value_is_built(split):
    layout = BlockLayout(*split)
    rng = random.Random(5)
    r1sq, inv_rho1 = _r1sq(layout), BlockPoly.monomial(layout, 0, j=1)
    for _ in range(25):
        f, g, h = (_random_x_value(layout, rng) for _ in range(3))
        routes = [
            f * r1sq * inv_rho1,                  # (f r1^2) / rho1
            oracle.value(layout, *expand(f)),     # rebuilt from x-only squares
            (f + g) + h - g - h,                  # sums in different orders
            h + (f - h),
        ]
        for built in routes:
            assert built == f
            assert hash(built) == hash(f)
        assert (f + g) + h == h + (g + f) == f + (h + g)
        assert hash((f + g) + h) == hash(h + (g + f))


def test_scaled_by_param_scalar():
    layout = BlockLayout(2, 1)
    val = _x(layout, 0) + _x(layout, 1)
    scaled = val.scaled(ParamScalar.hbar(2, Fraction(1, 2)))
    d = scaled.as_dict()
    assert d[(1, 0, 0, 0, 0, 0)] == ParamScalar.hbar(2, Fraction(1, 2))


def test_substitute_params_drops_coupled_terms():
    layout = BlockLayout(2, 1)
    val = (BlockPoly.scalar(layout, ParamScalar.c1())
           + BlockPoly.scalar(layout, ParamScalar.omega(2)))
    out = val.substitute_params({"c1": Fraction(0)})
    assert out == BlockPoly.scalar(layout, ParamScalar.omega(2))
    out2 = val.substitute_params({"c1": Fraction(2), "omega": Fraction(3)})
    assert out2 == BlockPoly.scalar(layout, Fraction(11))


def test_degrees_and_momenta_layout():
    layout = BlockLayout(3, 1)
    val = BlockPoly.monomial(layout, layout.x_key(0, 2) + layout.p_key(2, 3))
    # x1 alone makes up block 1, so x1^2 is rho1: exponents (x, p, rho1, rho2)
    assert list(val.as_dict()) == [(0, 0, 0, 0, 0, 3, 1, 0)]
    mono = (2, 0, 0, 0, 0, 3, 0, 0, 0, 0)  # (x, p, parameters)
    assert expand(val) == ({mono: 1}, 0, 0)
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
    """d/dx_i of P / r1^(2j) r2^(2k) as (dP r_b^2 - 2 e x_i P) / r_b^(2e+2), with
    P the x-only oracle numerator, so no rho and no engine arithmetic."""
    layout = value.layout
    block = layout.block_of(i)
    P, j, k = expand(value)
    exp = j if block == 1 else k
    dP = {}
    for mono, c in P.items():
        if mono[i]:
            dP[mono[:i] + (mono[i] - 1,) + mono[i + 1:]] = c * mono[i]
    x_i = {tuple(1 if t == i else 0 for t in range(oracle.width(layout))): Fraction(-2 * exp)}
    num = oracle.add(oracle.mul(dP, oracle.block_square(layout, block)), oracle.mul(x_i, P))
    return num, j + (block == 1), k + (block == 2)


def _random_part(layout, rng):
    num = {}
    for _ in range(rng.randrange(1, 4)):
        key = sum(layout.x_key(rng.randrange(layout.N), rng.randrange(1, 3))
                  for _ in range(rng.randrange(3)))
        num[key] = Fraction(rng.randrange(-4, 5) or 1, rng.randrange(1, 4))
    return BlockPoly(layout, num, j=rng.randrange(3), k=rng.randrange(3))


@pytest.mark.parametrize("split", [(4, 1), (4, 2), (5, 3)])
def test_derivative_is_the_fully_reduced_quotient_rule(split):
    # diff_x forms its numerator over rho_b^(J+1) in one pass; the result must
    # be the canonical form of the quotient rule's value.  Sums of parts over
    # different denominators make the rho divisions succeed, and a factor x_1
    # or x_N lets a one-coordinate block's x^2 divide out.
    layout = BlockLayout(*split)
    rng = random.Random(17)
    hits = 0
    for _ in range(40):
        value = _random_part(layout, rng) + _random_part(layout, rng)
        if rng.randrange(2):
            value = value * _x(layout, rng.choice((0, layout.N - 1)))
        for i in range(layout.N):
            expected = _quotient_rule(value, i)
            got = value.diff_x(i)
            assert oracle.equal(layout, expand(got), expected), (value, i)
            assert got == oracle.value(layout, *expected), (value, i)
            if (value.j if i < layout.n else value.k) > 0:
                hits += (got.j, got.k) != expected[1:]
    assert hits  # a division after the derivative did succeed


def test_equality_tells_splits_apart():
    # rho1 is x1^2 at (4,1) and x1^2 + x2^2 at (4,2), with the same packed key;
    # the constant 1 is key 0 at every split
    from singosc.opalg import DiffOp, PhaseFn
    a, b = BlockLayout(4, 1), BlockLayout(4, 2)
    builds = [
        (lambda: BlockPoly.monomial(a, a.rho_key(1)), lambda: BlockPoly.monomial(b, b.rho_key(1))),
        (lambda: BlockPoly.scalar(BlockLayout(3, 1), 1),
         lambda: BlockPoly.scalar(BlockLayout(4, 2), 1)),
    ]
    for left, right in builds:
        assert left() != right()
        assert left() == left() and right() == right()
        assert hash(left()) == hash(left())
    rho_a, rho_b = builds[0]
    assert PhaseFn(rho_a()) != PhaseFn(rho_b())
    assert PhaseFn(rho_a()) == PhaseFn(rho_a())
    ops = [DiffOp.identity(BlockLayout(*split)) for split in ((3, 1), (4, 2), (4, 2))]
    assert ops[0] != ops[1] and ops[1] == ops[2]


def test_momentum_derivative_is_canonical():
    from singosc.opalg import build_classical
    gens = build_classical(4, 2)
    layout = gens.layout
    assert gens.H.value.diff_p(0) == BlockPoly.monomial(layout, layout.p_key(0))


def test_generator_term_counts_at_8_4():
    # r1^2 and r2^2 are the monomials rho1 and rho2, so no generator carries
    # a numerator multiplied out by the other terms' denominators (expanded,
    # the classical A had 1,108 terms and the quantum H 96)
    from singosc.opalg import build_classical, build_quantum
    classical, quantum = build_classical(8, 4), build_quantum(8, 4)
    assert (classical.H.term_count(), classical.A.term_count()) == (12, 58)
    assert (quantum.H.term_count(), quantum.A.term_count()) == (12, 66)
