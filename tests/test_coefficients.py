"""Integer numerators over one common denominator, checked against Fraction arithmetic.

Coefficients use the non-dyadic denominators 3, 5, 7 and 11 and every value
carries r1^2/r2^2 denominators, so common-denominator lifting, gcd
normalization and block reduction all take part.  The one-pass word sums
(``combine``, ``combine_phase``, and Poisson brackets among products) are
checked against chained arithmetic, in which every product and every partial
sum is reduced.
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
                           PhaseFn, ParamScalar, combine, commutator, poisson_bracket)
from singosc.opalg.classical import bracket_words, combine_phase
from singosc.opalg.diffop import _FIRST
from singosc.opalg.poly import Derivatives
from singosc.opalg.scalars import PARAM_SHIFT, param_key
from test_classical import _chained_bracket

DENOMINATORS = (3, 5, 7, 11)


def _random_terms(layout, rng, nterms=3):
    terms = {}
    for _ in range(nterms):
        key = sum(layout.x_key(rng.randrange(layout.N)) for _ in range(rng.randrange(0, 3)))
        key += param_key((rng.randrange(2), rng.randrange(2), rng.randrange(2), 0))
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


def _laurent_value(layout, rng, momenta=False):
    """A few terms over 3, 5, 7 or 11, with momenta for a phase-space function
    (an operator coefficient has none), and a denominator rho1^j rho2^k with
    j, k in 0..2."""
    terms = _random_terms(layout, rng)
    if momenta:
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
    layout = BlockLayout(*split)
    rng = random.Random(41)
    for _ in range(10):
        words = _random_words(rng, lambda: PhaseFn(_laurent_value(layout, rng, momenta=True)))
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
def test_phase_word_sum_with_brackets_matches_chained_arithmetic(split):
    # the shape of a Poisson quadratic residual: brackets next to product,
    # mirror, bare and cancelling words, with factors shared between them
    layout = BlockLayout(*split)
    rng = random.Random(53)

    def make():
        return PhaseFn(_laurent_value(layout, rng, momenta=True))

    for _ in range(8):
        words = _random_words(rng, make)
        f, g, h = words[1][1], words[1][2], words[0][2]
        pairs = [(f, g), (h, make()), (g, f), (h, make()), (g, g)]
        expected = BlockPoly.zero(layout)
        for scale, left, right in words:
            expected = expected + (left.value if right is None
                                   else left.value * right.value).scaled(scale)
        brackets = []
        for left, right in pairs:
            brackets += bracket_words(left, right)
            expected = expected + _chained_bracket(left, right).value
        for mixed in (brackets + words, words[:3] + brackets + words[3:]):
            got = combine_phase(mixed).value
            assert got == expected
            assert hash(got) == hash(expected)
            assert got.den > 0 and gcd(got.den, *got.num.values()) == 1
        _assert_cancelled_to_zero(combine_phase(
            brackets + [word for left, right in pairs for word in bracket_words(right, left)]).value)


@pytest.mark.parametrize("split", WORD_SUM_SPLITS)
def test_a_bracket_whose_every_product_vanishes_is_the_canonical_zero(split):
    layout = BlockLayout(*split)
    x1, x2 = PhaseFn.coordinate(layout, 0), PhaseFn.coordinate(layout, 1)
    c1_r1 = PhaseFn(BlockPoly.monomial(layout, 0, ParamScalar.c1(), j=1))
    c2_r2 = PhaseFn(BlockPoly.monomial(layout, 0, ParamScalar.c2(), k=1))
    for f, g in ((x1, x2), (c1_r1, c2_r2), (x1, c2_r2), (x1, PhaseFn.zero(layout))):
        _assert_cancelled_to_zero(poisson_bracket(f, g).value)
        _assert_cancelled_to_zero(combine_phase(bracket_words(f, g) + bracket_words(g, f)).value)


@pytest.mark.parametrize("split", WORD_SUM_SPLITS)
def test_one_derivative_table_serves_operators_and_brackets(split):
    # a phase function may hold an operator's symbol itself, so one table then
    # holds that value's p derivatives for both the composition (every delta)
    # and the bracket (|delta| = 1): the two must be kept apart
    rng = random.Random(59)
    layout = BlockLayout(*split)

    def make_op():
        terms = {}
        for order in (1, 2, 3):
            beta = [0] * layout.N
            for _ in range(order):
                beta[rng.randrange(layout.N)] += 1
            terms[tuple(beta)] = _laurent_value(layout, rng)
        return DiffOp(layout, terms)

    for _ in range(3):
        ops = [make_op() for _ in range(2)]
        fns = [PhaseFn(op.symbol) for op in ops]
        product, bracket = ops[0] * ops[1], poisson_bracket(*fns)
        assert not bracket.is_zero()
        for first_bracket in (True, False):
            table = Derivatives()
            if first_bracket:
                assert poisson_bracket(*fns, table) == bracket
            assert combine([(1, *ops), (1, ops[1], ops[0])], table) == product + ops[1] * ops[0]
            assert poisson_bracket(*fns, table) == bracket


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
    assert list(top.as_dict()) == [(0, 127, 0, 0, 0, 0, 0, 0, 0, 0)]
    with pytest.raises(ExponentOverflowError):
        x64 * x64
    with pytest.raises(ExponentOverflowError):
        layout.x_key(1, 128)
    # a product that takes a rho exponent to 128
    rho64 = BlockPoly.monomial(layout, layout.rho_key(1, 64))
    assert list((rho64 * BlockPoly.monomial(layout, layout.rho_key(1, 63))).as_dict()) == [
        (0, 0, 0, 0, 0, 0, 0, 0, 127, 0)]
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

    phase = BlockLayout(4, 2)
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


# Scales with several parameter monomials over non-unit Fraction coefficients:
# the word sums form one kernel call per monomial, its parameter key a shift
# on the unscaled factor.
PARAMETER_SCALES = (
    ParamScalar({(2, 0, 1, 0): Fraction(3, 7), (0, 2, 0, 0): Fraction(-5, 2)}),
    ParamScalar({(1, 1, 0, 0): Fraction(-2, 3), (0, 0, 0, 1): Fraction(4, 5),
                 (0, 0, 0, 0): Fraction(1, 11)}),
    ParamScalar({(3, 0, 0, 0): Fraction(5, 3), (0, 0, 1, 1): Fraction(-7, 9)}),
)


def _parameter_scaled_words(make):
    """Words over four factors at different (j, k), every scale a multi-term
    ParamScalar: a mirror pair whose scales do not cancel, one whose scales
    cancel, a repeated word, a bare word and a self product."""
    s1, s2, s3 = PARAMETER_SCALES
    f, g, h, u = (make(j, k) for j, k in ((0, 1), (2, 0), (1, 2), (2, 2)))
    return [(s1, f, g), (s2, g, f),        # mirror pair, s1 + s2 != 0
            (s3, f, h), (-s3, h, f),       # mirror pair, cancelling scales
            (s2, u, g), (s1, u, g),        # repeated
            (s3, h, None), (s1, u, u)]     # bare, self


def _value_at(layout, rng, j, k, momenta=False):
    terms = _random_terms(layout, rng, nterms=4)
    if momenta:
        terms = {key + layout.p_key(rng.randrange(layout.N), rng.randrange(3)): c
                 for key, c in terms.items()}
    return BlockPoly(layout, terms, j=j, k=k)


@pytest.mark.parametrize("split", WORD_SUM_SPLITS)
def test_phase_word_sum_with_parameter_scales_matches_chained_arithmetic(split):
    layout = BlockLayout(*split)
    rng = random.Random(61)
    for _ in range(4):
        words = _parameter_scaled_words(
            lambda j, k: PhaseFn(_value_at(layout, rng, j, k, momenta=True)))
        f, g = words[0][1], words[0][2]
        expected = BlockPoly.zero(layout)
        for scale, left, right in words:
            expected = expected + (left.value if right is None
                                   else left.value * right.value).scaled(scale)
        s = PARAMETER_SCALES[0]
        brackets = [(s, g, f, _FIRST), (-s, f, g, _FIRST)]  # s {f, g}
        expected_all = expected + _chained_bracket(f, g).value.scaled(s)
        for mixed, want in ((words, expected), (words + brackets, expected_all)):
            got = combine_phase(mixed).value
            assert got == want
            assert hash(got) == hash(want)
            assert got.den > 0 and gcd(got.den, *got.num.values()) == 1
        _assert_cancelled_to_zero(
            combine_phase(words + [(-scale, f, g) for scale, f, g in words]).value)


@pytest.mark.parametrize("split", WORD_SUM_SPLITS)
def test_operator_word_sum_with_parameter_scales_matches_chained_arithmetic(split):
    layout = BlockLayout(*split)
    rng = random.Random(67)

    def make(j, k):
        terms = {}
        for order in range(3):
            beta = [0] * layout.N
            for _ in range(order):
                beta[rng.randrange(layout.N)] += 1
            terms[tuple(beta)] = _value_at(layout, rng, j, k)
        return DiffOp(layout, terms)

    for _ in range(3):
        words = _parameter_scaled_words(make)
        got = combine(words)
        expected = DiffOp.zero(layout)
        for scale, left, right in words:
            expected = expected + (left if right is None else left * right).scaled(scale)
        assert got == expected
        assert hash(got) == hash(expected)
        fn = _laurent_value(layout, rng)
        applied = BlockPoly.zero(layout)
        for scale, left, right in words:
            applied = applied + left.apply(fn if right is None else right.apply(fn)).scaled(scale)
        assert got.apply(fn) == applied
        _assert_cancelled_to_zero(
            combine(words + [(-scale, left, right) for scale, left, right in words]).symbol)


def _hbar_monomials(layout, powers, key=0):
    """sum_i hbar^powers[i] times x_{i+1}, so every term holds a distinct x."""
    return BlockPoly(layout, {key + layout.x_key(i) + param_key((p, 0, 0, 0)): 1
                              for i, p in enumerate(powers)})


def test_parameter_scale_past_127_raises():
    # hbar^100 on a product of hbar^30 and hbar^126, hbar^127: every product
    # key would take the hbar field to 256 or 257 and carry into the next
    # field, leaving no guard bit for the final check, so the scale's shift
    # onto the one-term factor must be refused before the kernel adds it
    scale = ParamScalar.hbar(100)
    phase = BlockLayout(4, 2)
    small, large = (PhaseFn(_hbar_monomials(phase, powers)) for powers in ((30,), (126, 127)))
    # the last sum lifts the product onto 1/rho1 as well: lift and monomial
    # are one shift
    over_rho1 = PhaseFn(BlockPoly.monomial(phase, 0, j=1))
    for words in ([(scale, small, large)], [(scale, large, small)],
                  [(scale, small, large), (1, over_rho1, None)]):
        with pytest.raises(ExponentOverflowError):
            combine_phase(words)
    layout = BlockLayout(4, 2)
    small, large = (DiffOp.multiplication(layout, _hbar_monomials(layout, powers))
                    for powers in ((30,), (126, 127)))
    over_rho1 = DiffOp.multiplication(layout, BlockPoly.monomial(layout, 0, j=1))
    for words in ([(scale, small, large)], [(scale, large, small)],
                  [(scale, small, large), (scale, large, small), (1, over_rho1, None)]):
        with pytest.raises(ExponentOverflowError):
            combine(words)


def test_parameter_scale_below_128_by_the_exact_maximum_passes():
    # the OR of hbar^64 and hbar^63 reads 127 in the hbar field, so a shift of
    # hbar^1 reaches 128 by that bound; the exact maximum, 64 + 1, is fine
    phase = BlockLayout(4, 2)
    f = PhaseFn(_hbar_monomials(phase, (64, 63)))
    g = PhaseFn(_hbar_monomials(phase, (0, 0, 0)))
    scale = ParamScalar.hbar(1, Fraction(2, 3))
    got = combine_phase([(scale, f, g)]).value
    assert got == (f.value * g.value).scaled(scale)
    assert max(key >> PARAM_SHIFT[0] & 0xFF for key in got.num) == 65
