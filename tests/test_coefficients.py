"""Integer numerators over one common denominator, checked against Fraction arithmetic.

Coefficients use the non-dyadic denominators 3, 5, 7 and 11 and every value
carries r1^2/r2^2 denominators, so common-denominator lifting, gcd
normalization and block reduction all take part.  The one-pass word sums
(``combine``, ``combine_phase``) are checked against chained arithmetic, in
which every product and every partial sum is reduced.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

import laurent_oracle as oracle
from laurent_oracle import expand
from random_scalars import random_scalar
from singosc.opalg import (BlockLayout, BlockPoly, DiffOp, ExponentOverflowError,
                           PhaseFn, combine, commutator)
from singosc.opalg.classical import combine_phase

DENOMINATORS = (3, 5, 7, 11)


def _random_terms(layout, rng, nterms=3):
    terms = {}
    for _ in range(nterms):
        key = sum(layout.x_key(rng.randrange(layout.N)) for _ in range(rng.randrange(0, 3)))
        key += layout.param_key((rng.randrange(2), rng.randrange(2), rng.randrange(2), 0))
        coeff = Fraction(rng.randrange(-9, 10) or 1, rng.choice(DENOMINATORS))
        terms[key] = terms.get(key, 0) + coeff
    return {key: c for key, c in terms.items() if c}


def _random_value(layout, rng):
    return BlockPoly(layout, _random_terms(layout, rng),
                     j=rng.randrange(1, 3), k=rng.randrange(1, 3))


@pytest.mark.parametrize("split", [(4, 2), (3, 1)])
def test_product_plus_sum_matches_fraction_reference(split):
    layout = BlockLayout(*split)
    rng = random.Random(101)
    for _ in range(30):
        a, b, c = (_random_value(layout, rng) for _ in range(3))
        got = a * b + c
        (pa, ja, ka), (pb, jb, kb) = expand(a), expand(b)
        expected = oracle.combine(layout, (oracle.mul(pa, pb), ja + jb, ka + kb), expand(c))
        assert got.j <= expected[1] and got.k <= expected[2]
        assert oracle.equal(layout, expand(got), expected)


def test_canonical_form_is_unique():
    layout = BlockLayout(4, 2)
    rng = random.Random(7)
    for _ in range(30):
        a, b, c = (_random_value(layout, rng) for _ in range(3))
        pairs = [((a + b) * c, a * c + b * c),
                 (a * b, b * a),
                 (a + b - b, a),
                 (a.scaled(Fraction(3, 7)).scaled(Fraction(7, 3)), a)]
        for left, right in pairs:
            assert left == right
            assert hash(left) == hash(right)
            assert left.den > 0 and gcd(left.den, *left.num.values()) == 1
    assert BlockPoly(layout, {5: Fraction(0, 3)}).den == 1
    assert (a - a).den == 1 and (a - a).is_zero()


def test_equivalent_agrees_with_equality():
    # equality of canonical forms is equality of cross-multiplied numerators
    layout = BlockLayout(4, 2)
    rng = random.Random(13)
    pool = []
    for _ in range(8):
        a, b = _random_value(layout, rng), _random_value(layout, rng)
        pool += [a, b, a * b, b * a + a - a, (a + b) * a]
    for left in pool:
        for right in pool:
            assert oracle.equal(layout, expand(left), expand(right)) == (left == right)


def test_commutator_matches_expanded_products():
    layout = BlockLayout(3, 2)
    rng = random.Random(29)
    for _ in range(10):
        ops = []
        for _ in range(2):
            terms = {}
            for _ in range(2):
                beta = [0] * layout.N
                for _ in range(rng.randrange(0, 3)):
                    beta[rng.randrange(layout.N)] += 1
                terms[tuple(beta)] = _random_value(layout, rng)
            ops.append(DiffOp(layout, terms))
        p, q = ops
        comm = commutator(p, q)
        assert comm == p * q - q * p
        # the action on a function never goes through operator composition
        f = _random_value(layout, rng)
        assert comm.apply(f) == p.apply(q.apply(f)) - q.apply(p.apply(f))


def _random_words(rng, make):
    """(scale, f, g | None) words over four factors: int, Fraction and
    ParamScalar scales, a mirror pair, a repeated word, a bare word and a self
    product, the last word cancelling the self product exactly.  The
    ParamScalar scales sit on live words: the repeated word and the bare one."""
    f, g, h, u = (make() for _ in range(4))
    scales = [rng.choice((1, -1, 2, -3)),
              Fraction(rng.randrange(-9, 10) or 1, rng.choice(DENOMINATORS)),
              random_scalar(rng, max_degree=1), random_scalar(rng, max_degree=1)]
    words = [(scales[2], f, h), (scales[0], f, g), (scales[1], g, f),  # mirror pair
             (rng.choice((1, -1)), f, h),                               # repeated
             (scales[3], h, None), (scales[0], u, u)]                   # bare, self
    return words + [(-scales[0], u, u)]


def _laurent_value(layout, rng):
    """A few terms over 3, 5, 7 or 11, with momenta on a phase-space layout,
    and a denominator rho1^j rho2^k with j, k in 0..2."""
    terms = _random_terms(layout, rng)
    if layout.momenta:
        terms = {key + layout.p_key(rng.randrange(layout.N), rng.randrange(2)): c
                 for key, c in terms.items()}
    return BlockPoly(layout, terms, j=rng.randrange(3), k=rng.randrange(3))


def _assert_cancelled_to_zero(value):
    assert value.is_zero() and value.den == 1 and (value.j, value.k) == (0, 0)


# The word sums lift every product onto the common rho powers and denominator
# of the whole sum as it is formed; the oracle reduces each product on its own.
WORD_SUM_SPLITS = [(3, 1), (4, 2), (4, 1), (5, 2)]


@pytest.mark.parametrize("split", WORD_SUM_SPLITS)
def test_phase_word_sum_matches_chained_arithmetic(split):
    layout = BlockLayout(*split, momenta=True)
    rng = random.Random(41)
    for _ in range(10):
        words = _random_words(rng, lambda: PhaseFn(_laurent_value(layout, rng)))
        got = combine_phase(words).value
        expected = BlockPoly.zero(layout)
        for scale, f, g in words:
            expected = expected + (f.value if g is None else f.value * g.value).scaled(scale)
        assert got == expected
        assert hash(got) == hash(expected)
        assert got.den > 0 and gcd(got.den, *got.num.values()) == 1
        # and against the oracle, whose sums owe nothing to the engine's lifts
        total = ({}, 0, 0)
        for scale, f, g in words:
            p, j, k = expand(f.value if g is None else f.value * g.value)
            total = oracle.combine(layout, total, (
                oracle.mul(expand(BlockPoly.scalar(layout, scale))[0], p), j, k))
        assert oracle.equal(layout, expand(got), total)
        _assert_cancelled_to_zero(
            combine_phase(words + [(-scale, f, g) for scale, f, g in words]).value)


@pytest.mark.parametrize("split", WORD_SUM_SPLITS)
def test_operator_word_sum_matches_chained_arithmetic(split):
    layout = BlockLayout(*split)
    rng = random.Random(43)

    def make():
        terms = {}
        for order in range(2):
            beta = [0] * layout.N
            for _ in range(order + rng.randrange(2)):
                beta[rng.randrange(layout.N)] += 1
            terms[tuple(beta)] = _laurent_value(layout, rng)
        return DiffOp(layout, terms)

    for _ in range(6):
        words = _random_words(rng, make)
        got = combine(words)
        expected = DiffOp.zero(layout)
        for scale, left, right in words:
            expected = expected + (left if right is None else left * right).scaled(scale)
        assert got == expected
        assert hash(got) == hash(expected)
        # apply() composes nothing, so it checks the products themselves
        fn = _laurent_value(layout, rng)
        applied = BlockPoly.zero(layout)
        for scale, left, right in words:
            applied = applied + left.apply(fn if right is None else right.apply(fn)).scaled(scale)
        assert got.apply(fn) == applied
        _assert_cancelled_to_zero(
            combine(words + [(-scale, left, right) for scale, left, right in words]).symbol)


def test_exponent_overflow_raises():
    layout = BlockLayout(4, 2)
    # x2 is not its block's lead, so its powers are not rewritten
    x64 = BlockPoly.monomial(layout, layout.x_key(1, 64))
    top = x64 * BlockPoly.monomial(layout, layout.x_key(1, 63))
    assert list(top.as_dict()) == [(0, 127, 0, 0, 0, 0)]
    with pytest.raises(ExponentOverflowError):
        x64 * x64
    with pytest.raises(ExponentOverflowError):
        layout.x_key(1, 128)
    # a product that takes a rho exponent to 128
    rho64 = BlockPoly.monomial(layout, layout.rho_key(1, 64))
    assert list((rho64 * BlockPoly.monomial(layout, layout.rho_key(1, 63))).as_dict()) == [
        (0, 0, 0, 0, 127, 0)]
    with pytest.raises(ExponentOverflowError):
        rho64 * rho64
    # a normal-form rewrite that takes one: rho1^127 x1 * x1 -> rho1^128 - ...
    x1 = BlockPoly.monomial(layout, layout.x_key(0))
    with pytest.raises(ExponentOverflowError):
        BlockPoly.monomial(layout, layout.rho_key(1, 127) + layout.x_key(0)) * x1
    with pytest.raises(ExponentOverflowError):
        BlockPoly.monomial(layout, layout.rho_key(2, 127) + layout.x_key(2)).diff_x(2)
    # a j/k lift of 128 or more (256 would carry past the guard bit into the
    # next field), and a lift of 127 onto a term that already holds rho
    one = BlockPoly.scalar(layout, 1)
    for power in (128, 256):
        with pytest.raises(ExponentOverflowError):
            BlockPoly.monomial(layout, 0, j=power) + one
    with pytest.raises(ExponentOverflowError):
        BlockPoly.monomial(layout, 0, k=128) * x1 + one
    with pytest.raises(ExponentOverflowError):
        BlockPoly.monomial(layout, 0, j=127) + BlockPoly.monomial(layout, layout.rho_key(1))
    with pytest.raises(ExponentOverflowError):
        layout.rho_key(2, 128)


@pytest.mark.parametrize("block", [1, 2])
def test_lifted_product_past_127_raises(block):
    # 1/rho^120 next to rho^10 * rho^126: lifting the product onto rho^120
    # takes its shifted factor to rho^130, and the kernel's addition of 126
    # to that field would carry into the next field, leaving a value that
    # looks valid; the shifted factor's guard bit must raise first
    def rho(layout, power, denominator=0):
        jk = {"j": denominator} if block == 1 else {"k": denominator}
        return BlockPoly.monomial(layout, layout.rho_key(block, power), **jk)

    phase = BlockLayout(4, 2, momenta=True)
    low, high, far = (PhaseFn(rho(phase, 10)), PhaseFn(rho(phase, 126)),
                      PhaseFn(rho(phase, 0, 120)))
    with pytest.raises(ExponentOverflowError):
        combine_phase([(1, far, None), (1, low, high)])

    layout = BlockLayout(4, 2)
    low, high, far = (DiffOp.multiplication(layout, rho(layout, power, j))
                      for power, j in ((10, 0), (126, 0), (0, 120)))
    with pytest.raises(ExponentOverflowError):
        combine([(1, far, None), (1, low, high)])
    with pytest.raises(ExponentOverflowError):
        combine([(1, far, None), (-1, high, low)])
