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

from singosc.opalg import (BlockLayout, BlockPoly, DiffOp, ExponentOverflowError,
                           PhaseFn, combine, commutator, random_scalar)
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


# -- a Fraction reference: (packed key -> Fraction, j, k), never reduced --------

def _ref_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _ref_lift(layout, terms, dj, dk):
    for block, power in ((1, dj), (2, dk)):
        if power:
            terms = _ref_mul(terms, {key: Fraction(c)
                                     for key, c in layout.rpow(block, power).items()})
    return terms


def _ref_add(layout, a, b):
    (ta, ja, ka), (tb, jb, kb) = a, b
    j, k = max(ja, jb), max(ka, kb)
    out = dict(_ref_lift(layout, ta, j - ja, k - ka))
    for key, c in _ref_lift(layout, tb, j - jb, k - kb).items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}, j, k


def _ref_value(value):
    return {key: Fraction(c, value.den) for key, c in value.num.items()}, value.j, value.k


def _packed(layout, grouped):
    """as_dict() output back on packed keys, with Fraction coefficients."""
    out = {}
    for mono, scalar in grouped.items():
        base = sum(layout.x_key(i, e) for i, e in enumerate(mono) if e)
        for exps, c in scalar.terms.items():
            out[base + layout.param_key(exps)] = c
    return out


@pytest.mark.parametrize("split", [(4, 2), (3, 1)])
def test_product_plus_sum_matches_fraction_reference(split):
    layout = BlockLayout(*split)
    rng = random.Random(101)
    for _ in range(30):
        a, b, c = (_random_value(layout, rng) for _ in range(3))
        got = a * b + c
        ta, ja, ka = _ref_value(a)
        tb, jb, kb = _ref_value(b)
        expected, j, k = _ref_add(layout, (_ref_mul(ta, tb), ja + jb, ka + kb), _ref_value(c))
        assert got.j <= j and got.k <= k
        lifted = _ref_lift(layout, _packed(layout, got.as_dict()), j - got.j, k - got.k)
        assert lifted == expected


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
    layout = BlockLayout(4, 2)
    rng = random.Random(13)
    pool = []
    for _ in range(8):
        a, b = _random_value(layout, rng), _random_value(layout, rng)
        pool += [a, b, a * b, b * a + a - a, (a + b) * a]
    for left in pool:
        for right in pool:
            assert left.equivalent(right) == (left == right)


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


def _random_words(rng, make, count=6):
    """(scale, f, g | None) words, the last cancelling the first exactly."""
    words = []
    for idx in range(count):
        scale = random_scalar(rng, max_degree=1) if idx % 2 else Fraction(
            rng.randrange(-9, 10) or 1, rng.choice(DENOMINATORS))
        words.append((scale, make(), make() if idx % 3 else None))
    scale, f, g = words[0]
    return words + [(-scale, f, g)]


@pytest.mark.parametrize("split", [(3, 1), (4, 2)])
def test_phase_word_sum_matches_chained_arithmetic(split):
    layout = BlockLayout(*split, momenta=True)
    rng = random.Random(41)
    for _ in range(10):
        words = _random_words(rng, lambda: PhaseFn(_random_value(layout, rng)))
        got = combine_phase(words).value
        expected = BlockPoly.zero(layout)
        for scale, f, g in words:
            expected = expected + (f.value if g is None else f.value * g.value).scaled(scale)
        assert got == expected
        assert hash(got) == hash(expected)
        assert got.den > 0 and gcd(got.den, *got.num.values()) == 1


@pytest.mark.parametrize("split", [(3, 1), (4, 2)])
def test_operator_word_sum_matches_chained_arithmetic(split):
    layout = BlockLayout(*split)
    rng = random.Random(43)

    def make():
        terms = {}
        for _ in range(2):
            beta = [0] * layout.N
            for _ in range(rng.randrange(0, 3)):
                beta[rng.randrange(layout.N)] += 1
            terms[tuple(beta)] = _random_value(layout, rng)
        return DiffOp(layout, terms)

    for _ in range(6):
        words = _random_words(rng, make)
        got = combine(words)
        expected = DiffOp.zero(layout)
        for scale, left, right in words:
            expected = expected + (left if right is None else left * right).scaled(scale)
        assert got == expected
        assert hash(got) == hash(expected)


def test_exponent_overflow_raises():
    layout = BlockLayout(2, 1)
    x64 = BlockPoly.monomial(layout, layout.x_key(0, 64))
    assert (x64 * BlockPoly.monomial(layout, layout.x_key(0, 63))).x_degree() == 127
    with pytest.raises(ExponentOverflowError):
        x64 * x64
    with pytest.raises(ExponentOverflowError):
        layout.x_key(0, 128)
