"""Ring axioms, bookkeeping and packing of the exact parameter scalars."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random_scalars import random_scalar
from singosc.opalg import BlockLayout, BlockPoly, ExponentOverflowError, ParamScalar
from singosc.opalg.scalars import PARAM_SHIFT, VAR_NAMES


def _scalars():
    def build(seed):
        return random_scalar(random.Random(seed))
    return st.integers(min_value=0, max_value=10**6).map(build)


@given(_scalars(), _scalars(), _scalars())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(_scalars())
@settings(max_examples=30, deadline=None)
def test_additive_inverse_and_zero(a):
    assert (a - a).is_zero()
    assert a + ParamScalar() == a
    assert a * ParamScalar.rational(1) == a
    assert (a * ParamScalar()).is_zero()


def test_monomial_constructors():
    h = ParamScalar.hbar(2)
    assert h.terms == {(2, 0, 0, 0): Fraction(1)}
    w = ParamScalar.omega(1, Fraction(-3, 2))
    assert w.terms == {(0, 1, 0, 0): Fraction(-3, 2)}
    assert ParamScalar.c1() * ParamScalar.c2() == ParamScalar.monomial((0, 0, 1, 1))


def test_pow_matches_repeated_product():
    s = ParamScalar.hbar() + ParamScalar.c1(1, Fraction(1, 2))
    assert s ** 3 == s * s * s
    assert s ** 0 == ParamScalar.rational(1)
    with pytest.raises(ValueError):
        s ** -1


def test_substitute_and_constant_value():
    s = ParamScalar.hbar(2) * Fraction(3) + ParamScalar.c1() * ParamScalar.omega()
    out = s.substitute({"hbar": Fraction(1, 2), "c1": Fraction(0)})
    assert out == ParamScalar.rational(Fraction(3, 4))
    assert out.constant_value() == Fraction(3, 4)
    with pytest.raises(ValueError):
        s.constant_value()


def test_zero_pruning_and_repr():
    s = ParamScalar({(1, 0, 0, 0): Fraction(0), (0, 0, 1, 0): Fraction(2)})
    assert s.terms == {(0, 0, 1, 0): Fraction(2)}
    assert "c1" in repr(s)


def test_exponent_127_works_and_128_raises():
    # an exponent lives in 7 bits of its packed field: 127 is the largest, and
    # 128 raises rather than set the guard bit or carry into the next field
    one_each = ParamScalar.monomial((1, 1, 1, 1), Fraction(2, 3))
    assert (one_each ** 127).terms == {(127,) * 4: Fraction(2, 3) ** 127}
    assert ParamScalar.hbar(64) * ParamScalar.hbar(63) == ParamScalar.hbar(127)
    assert ParamScalar.monomial((127, 0, 127, 0)).terms == {(127, 0, 127, 0): 1}
    for exps in ((128, 0, 0, 0), (0, 128, 0, 0), (0, 0, 128, 0), (0, 0, 0, 128)):
        with pytest.raises(ExponentOverflowError):
            ParamScalar.monomial(exps)
        with pytest.raises(ExponentOverflowError):
            ParamScalar(dict.fromkeys([exps], 1))
        half = ParamScalar.monomial(tuple(e // 2 for e in exps))
        with pytest.raises(ExponentOverflowError):
            half * half
        with pytest.raises(ExponentOverflowError):
            half ** 2
        with pytest.raises(ExponentOverflowError):
            BlockPoly.scalar(BlockLayout(4, 2), half * (half + 1))
    with pytest.raises(ExponentOverflowError):
        one_each ** 128
    # 63 = 0b111111 squares c2^2 up to c2^64 and stops: c2^128 is never formed
    assert ParamScalar.c2(2) ** 63 == ParamScalar.c2(126)
    layout = BlockLayout(4, 2)
    top = BlockPoly.scalar(layout, ParamScalar.hbar(127, Fraction(-5, 7)))
    assert (top.num, top.den) == ({127 << PARAM_SHIFT[0]: -5}, 7)


def _point(rng) -> dict:
    names = rng.sample(VAR_NAMES, rng.randrange(1, 5))
    return {name: Fraction(rng.randrange(-6, 7), rng.randrange(1, 6)) for name in names}


@pytest.mark.parametrize("N,n", [(2, 1), (4, 2), (20, 10)])
def test_scalars_and_values_share_one_packing(N, n):
    layout = BlockLayout(N, n)
    rng = random.Random(1009 * N + n)
    for _ in range(40):
        s = random_scalar(rng, max_degree=3)
        value = BlockPoly.scalar(layout, s)
        # the scalar's own keys and denominator, with nothing converted
        assert (value.num, value.den, value.j, value.k) == (s.num, s.den, 0, 0)
        assert value.as_dict() == ({(0,) * (2 * N + 2): s} if s else {})
        point = _point(rng)
        assert value.substitute_params(point) == BlockPoly.scalar(layout, s.substitute(point))
        # a value with coordinates, momenta and rho: as_dict groups it by its
        # monomials into the same scalars, and substitution acts per monomial
        monos = [layout.x_key(rng.randrange(N)) + layout.p_key(rng.randrange(N))
                 + layout.rho_key(rng.randrange(1, 3), rng.randrange(3)) for _ in range(3)]
        scalars = [random_scalar(rng) for _ in monos]
        j, k = rng.randrange(2), rng.randrange(2)
        value = BlockPoly.zero(layout)
        for key, scalar in zip(monos, scalars):
            value = value + BlockPoly.monomial(layout, key, scalar, j, k)
        rebuilt = BlockPoly.zero(layout)
        for exps, scalar in value.as_dict().items():
            key = (sum(layout.x_key(i, e) for i, e in enumerate(exps[:N]))
                   + sum(layout.p_key(i, e) for i, e in enumerate(exps[N:2 * N]))
                   + layout.rho_key(1, exps[-2]) + layout.rho_key(2, exps[-1]))
            rebuilt = rebuilt + BlockPoly.monomial(layout, key, scalar, value.j, value.k)
        assert rebuilt == value
        substituted = BlockPoly.zero(layout)
        for key, scalar in zip(monos, scalars):
            substituted = substituted + BlockPoly.monomial(layout, key,
                                                           scalar.substitute(point), j, k)
        assert value.substitute_params(point) == substituted
