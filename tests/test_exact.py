"""The biquadratic number type against a 100-digit mpmath oracle (test-only)."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath as mp
import pytest

from singosc.exact import Biquadratic, sqrt_sum_floor


def _oracle(x: Biquadratic) -> mp.mpf:
    a, b = x.radicands
    n0, n1, n2, n3 = x.num
    return (n0 + n1 * mp.sqrt(a) + n2 * mp.sqrt(b) + n3 * mp.sqrt(a * b)) / x.den


def _field(rng: random.Random) -> tuple[Biquadratic, Biquadratic]:
    """sqrt of two random non-negative rationals, squares and equal pairs included."""
    first = Fraction(rng.randrange(0, 60), rng.randrange(1, 9))
    second = rng.choice([first, first * 4, Fraction(rng.randrange(0, 60), rng.randrange(1, 9))])
    return Biquadratic.sqrt_pair(first, second)


def _element(rng: random.Random, m1: Biquadratic, m2: Biquadratic) -> Biquadratic:
    def coefficient():
        return Fraction(rng.randrange(-40, 41), rng.randrange(1, 12))
    return coefficient() + coefficient() * m1 + coefficient() * m2 + coefficient() * m1 * m2


def test_sqrt_pair_normalizes_the_field():
    # a square radicand folds into the rational part
    m1, m2 = Biquadratic.sqrt_pair(Fraction(9, 4), Fraction(2))
    assert m1 == Fraction(3, 2) and m1.radicands == (0, 2) and m1.num[1:] == (0, 0, 0)
    assert m2 * m2 == 2 and m2.num == (0, 0, 1, 0)
    # a square product folds sqrt b onto sqrt a: sqrt 8 = 2 sqrt 2
    m1, m2 = Biquadratic.sqrt_pair(Fraction(2), Fraction(8))
    assert m1.radicands == m2.radicands == (2, 0)
    assert m2 == 2 * m1 and m2.num == (0, 2, 0, 0)
    # m1 = m2 irrational: their difference is an exact zero
    m1, m2 = Biquadratic.sqrt_pair(Fraction(5, 3), Fraction(5, 3))
    assert m1 - m2 == 0 and (2 + (m1 - m2)) / 4 == Fraction(1, 2)
    # both rational
    m1, m2 = Biquadratic.sqrt_pair(Fraction(0), Fraction(16, 9))
    assert (m1, m2) == (0, Fraction(4, 3)) and m1.radicands == (0, 0)
    with pytest.raises(ValueError):
        Biquadratic.sqrt_pair(Fraction(-1), Fraction(2))


def test_canonical_form_gives_equality_and_hash():
    m1, m2 = Biquadratic.sqrt_pair(Fraction(3), Fraction(7, 5))
    x = (m1 + m2) * (m1 - m2)
    assert x == Fraction(3) - Fraction(7, 5) and hash(x) == hash(Fraction(8, 5))
    assert x.num == (8, 0, 0, 0) and x.den == 5
    y = m1 * m2 / 6
    assert y == m2 * m1 * Fraction(1, 6) and hash(y) == hash(m2 * m1 * Fraction(1, 6))
    assert y != m1 * m2 / 7 and y != Fraction(1, 6)
    assert Biquadratic((4, 2, 0, 6), -8, (3, 7)) == Biquadratic((-2, -1, 0, -3), 4, (3, 7))
    # numbers of two fields whose surds neither spans do not combine, and a
    # rational number is the same number in every field
    other = Biquadratic.sqrt_pair(Fraction(11), Fraction(13))[0]
    with pytest.raises(TypeError):
        m1 + other
    assert other * 0 + Fraction(8, 5) == x and x == other * 0 + Fraction(8, 5)


def test_numbers_of_one_square_class_are_equal_across_fields():
    root8 = Biquadratic.sqrt_pair(Fraction(8), Fraction(3))[0]
    root2, root3 = Biquadratic.sqrt_pair(Fraction(2), Fraction(3))
    assert root8.radicands == (8, 3) and root2.radicands == (2, 3)
    assert root8 == 2 * root2 and 2 * root2 == root8
    assert root8 - 2 * root2 == 0 and 2 * root2 - root8 == 0
    assert hash(root8) == hash(2 * root2)
    # * and / give one number whichever field they are written in
    x, y = root8 + root3 / 7, 3 - root8 * root3
    x2, y2 = 2 * root2 + root3 / 7, 3 - 2 * root2 * root3
    assert x * y == x2 * y2 == x * y2 == x2 * y and hash(x * y) == hash(x2 * y2)
    assert x / y == x2 / y2 == x / y2 == x2 / y and y / y2 == 1
    assert (x / y).radicands == (8, 3) and (x2 / y).radicands == (2, 3)
    # sqrt(a b) of one field is a surd of the other: sqrt 24 = 2 sqrt 6
    root6 = Biquadratic.sqrt_pair(Fraction(6), Fraction(2))[0]
    assert root8 * root3 == 2 * root6 and root6 * root2 == 2 * root3
    # a surd of another square class is no number of this field
    root5 = Biquadratic.sqrt_pair(Fraction(5), Fraction(3))[0]
    assert root5 != root8 and root8 != root5 and root5 * 0 + root3 == root3
    with pytest.raises(TypeError):
        root8 + root5
    with pytest.raises(TypeError):
        root8 * root5


def test_ring_axioms_and_inverse():
    rng = random.Random(17)
    for _ in range(150):
        m1, m2 = _field(rng)
        x, y, z = (_element(rng, m1, m2) for _ in range(3))
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == 0 and x + 0 == x and x * 1 == x and -(-x) == x
        assert 3 - x == -(x - 3) and Fraction(2, 3) * x == x * Fraction(2, 3)
        assert x ** 3 == x * x * x and x ** 0 == 1
        if x != 0:
            assert x * (1 / x) == 1 and (y / x) * x == y
            assert x ** -2 * x ** 2 == 1
        assert x / Fraction(-3, 7) == x * Fraction(-7, 3)
        with mp.workdps(80):
            product = _oracle(x) * _oracle(y)
            assert abs(_oracle(x * y) - product) <= mp.mpf(10) ** -60 * (1 + abs(product))
    with pytest.raises(ZeroDivisionError):
        1 / (m1 - m1)


def test_sign_matches_high_precision_also_when_nearly_cancelling():
    rng = random.Random(5)
    with mp.workdps(100):
        for _ in range(1500):
            m1, m2 = _field(rng)
            tail = (rng.randrange(-9, 10) * m1 + rng.randrange(-9, 10) * m2
                    + rng.randrange(-9, 10) * m1 * m2)
            # the rational part is the nearest integer to -tail, give or take two
            c = int(mp.nint(-_oracle(tail))) + rng.randrange(-2, 3)
            for x in (tail + c, (tail + c) / 10 ** 12 + Fraction(1, 10 ** 30)):
                value = _oracle(x)
                want = 0 if abs(value) < mp.mpf(10) ** -80 else (1 if value > 0 else -1)
                assert x.sign() == want, x
                assert (x > 0) == (want > 0) and (x < 0) == (want < 0) and (x == 0) == (want == 0)


def test_floor_near_and_at_integers():
    big = 10 ** 9
    # (big + 3) - sqrt(big^2 + 1) lies 1/(2 big) below 3, closer than the estimate sees
    assert sqrt_sum_floor((big + 3, -1, 0, 0), 1, (big * big + 1, 0)) == 2
    assert sqrt_sum_floor((3 - big, 1, 0, 0), 1, (big * big + 1, 0)) == 3
    assert sqrt_sum_floor((0, 1, -1, 0), 1, (49, 16)) == 3
    assert sqrt_sum_floor((1, 0, 0, 1), 2, (2, 8)) == 2  # (1 + 4) / 2
    rng = random.Random(31)
    with mp.workdps(100):
        for _ in range(1500):
            a, b = rng.randrange(0, 300), rng.randrange(0, 300)
            c1, c2, c3 = (rng.randrange(-9, 10) for _ in range(3))
            den = rng.randrange(1, 50)
            tail = c1 * mp.sqrt(a) + c2 * mp.sqrt(b) + c3 * mp.sqrt(a * b)
            c0 = int(mp.nint(-tail)) + rng.randrange(-2, 3) * den
            want = int(mp.floor((c0 + tail) / den + mp.mpf(10) ** -80))
            got = sqrt_sum_floor((c0, c1, c2, c3), den, (a, b))
            assert got == want, (c0, c1, c2, c3, den, a, b)


def test_str_and_float_match_mpmath():
    rng = random.Random(23)
    with mp.workdps(60):
        for _ in range(1500):
            m1, m2 = _field(rng)
            x = _element(rng, m1, m2) * Fraction(10) ** rng.randrange(-9, 21)
            assert str(x) == mp.nstr(_oracle(x), 17), x
            assert float(x) == float(_oracle(x))
    m1, m2 = Biquadratic.sqrt_pair(Fraction(2), Fraction(3))
    assert str(m1 - m1) == "0.0" and float(m1 - m1) == 0.0
    assert str(m1) == "1.414213562373095"
    assert str(-m1 * 10 ** 17) == "-1.414213562373095e+17"
    assert str(m1 * 10 ** 16) == "14142135623730950.0"
    assert str(m1 / 10 ** 5) == "1.414213562373095e-5"
    assert str(m1 / 10 ** 4) == "0.0001414213562373095"
    assert str(m1 * 0 + Fraction(1, 2)) == "0.5" and str(m1 * 0 + 100) == "100.0"
    # seventeen nines and a 5 round half up to the next power of ten (an exact
    # decimal tie, where mpmath rounds its binary approximation of the value)
    assert str(m1 * 0 + Fraction(10 ** 18 - 5, 10 ** 18)) == "1.0"
    assert str((m1 + m2) * 0 + Fraction(-1, 3)) == "-0.33333333333333333"


def test_rational_value():
    m1, m2 = Biquadratic.sqrt_pair(Fraction(25, 4), Fraction(2))
    assert m1.rational() == Fraction(5, 2)
    with pytest.raises(ValueError):
        m2.rational()
