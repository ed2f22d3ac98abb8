"""Ring axioms and bookkeeping of the exact parameter scalars."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random_scalars import random_scalar
from singosc.opalg import ParamScalar


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
