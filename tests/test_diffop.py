"""Normal-ordering engine: composition, commutators, and the action oracle.

The decisive correctness check is operational: composing operators and then
applying to a function must agree with applying them in sequence, over exact
arithmetic, for randomized operators with Laurent coefficients.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singosc.opalg import (BlockLayout, BlockPoly, DiffOp, DimensionMismatchError,
                           ParamScalar, build_quantum, combine, commutator)


def _x(layout, i, power=1, coeff=1):
    return BlockPoly.monomial(layout, layout.x_key(i, power), coeff)


def _random_value(layout, rng, max_jk=1):
    num = {}
    for _ in range(rng.randrange(1, 4)):
        key = 0
        for _ in range(rng.randrange(0, 3)):
            key += layout.x_key(rng.randrange(layout.N))
        key += layout.param_key((rng.randrange(2), 0, rng.randrange(2), 0))
        num[key] = num.get(key, Fraction(0)) + Fraction(rng.randrange(-3, 4) or 1,
                                                        rng.randrange(1, 4))
    return BlockPoly(layout, {k: v for k, v in num.items() if v},
                     j=rng.randrange(max_jk + 1), k=rng.randrange(max_jk + 1))


def _random_op(layout, rng, max_order=2):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        beta = [0] * layout.N
        for _ in range(rng.randrange(0, max_order + 1)):
            beta[rng.randrange(layout.N)] += 1
        val = _random_value(layout, rng)
        if not val.is_zero():
            terms[tuple(beta)] = val
    return DiffOp(layout, terms)


def test_weyl_relation():
    layout = BlockLayout(2, 1)
    d1 = DiffOp.derivative(layout, 0)
    x1 = DiffOp.multiplication(layout, _x(layout, 0))
    got = d1 * x1
    expected = DiffOp(layout, {
        (1, 0): _x(layout, 0),
        (0, 0): BlockPoly.scalar(layout, 1),
    })
    assert got == expected


def test_derivative_composed_with_inverse_radius():
    layout = BlockLayout(4, 2)
    inv_r1 = BlockPoly(layout, BlockPoly.scalar(layout, 1).num, j=1, k=0)
    for i in range(2):  # block-1 coordinates only
        got = DiffOp.derivative(layout, i) * DiffOp.multiplication(layout, inv_r1)
        expected = DiffOp(layout, {
            tuple(1 if t == i else 0 for t in range(4)): inv_r1,
            (0, 0, 0, 0): BlockPoly(layout, _x(layout, i, 1, Fraction(-2)).num, j=2, k=0),
        })
        assert got == expected


def test_identity_is_neutral():
    gens = build_quantum(3, 1)
    ident = DiffOp.identity(gens.layout)
    assert gens.H * ident == gens.H
    assert ident * gens.H == gens.H


def test_commutator_basics():
    gens = build_quantum(4, 2)
    assert commutator(gens.H, gens.A).is_zero()
    assert commutator(gens.A, gens.A).is_zero()
    C = commutator(gens.A, gens.B)
    assert not C.is_zero()
    assert C.order() == 3


def test_composition_matches_sequential_application():
    rng = random.Random(23)
    layout = BlockLayout(3, 2)
    for _ in range(25):
        p = _random_op(layout, rng)
        q = _random_op(layout, rng)
        f = _random_value(layout, rng)
        assert (p * q).apply(f) == p.apply(q.apply(f))


def test_associativity_randomized():
    rng = random.Random(5)
    layout = BlockLayout(3, 1)
    for _ in range(10):
        p = _random_op(layout, rng, max_order=1)
        q = _random_op(layout, rng, max_order=1)
        r = _random_op(layout, rng, max_order=1)
        assert (p * q) * r == p * (q * r)


def test_normal_form_unique_across_build_routes():
    # the second-order generator equals -(1/4) sum of squared angular momenta
    # plus the singular potential, whichever way the product is associated
    from singosc.opalg import angular_momentum
    from singosc.opalg.generators import _singular_terms

    for N, n in [(3, 1), (4, 2), (5, 3)]:
        gens = build_quantum(N, n)
        layout = gens.layout
        total = DiffOp.zero(layout)
        for i in range(N):
            for jdx in range(i + 1, N):
                lij = angular_momentum(layout, i, jdx)
                total = total + lij * lij
        r_squared = BlockPoly.zero(layout)
        for i in range(N):  # x_i^2 summed, not the rho monomials the generators use
            r_squared = r_squared + _x(layout, i, 2)
        potential = DiffOp.multiplication(
            layout, (r_squared * _singular_terms(layout)).scaled(Fraction(1, 2)))
        rebuilt = total.scaled(Fraction(-1, 4)) + potential
        assert rebuilt == gens.A


def test_jacobi_identity_on_generators():
    rng = random.Random(31)
    gens = build_quantum(4, 2)
    pool = [gens.H, gens.A, gens.B, gens.J2, gens.K2,
            next(iter(gens.J.values())), next(iter(gens.K.values()))]
    for _ in range(6):
        p, q, r = (rng.choice(pool) for _ in range(3))
        total = (commutator(commutator(p, q), r)
                 + commutator(commutator(q, r), p)
                 + commutator(commutator(r, p), q))
        assert total.is_zero()


def test_commutator_antisymmetry():
    gens = build_quantum(3, 2)
    assert (commutator(gens.A, gens.B) + commutator(gens.B, gens.A)).is_zero()


def test_dimension_mismatch_rejected():
    g1 = build_quantum(3, 1)
    g2 = build_quantum(4, 2)
    with pytest.raises(DimensionMismatchError):
        g1.H * g2.H
    with pytest.raises(DimensionMismatchError):
        commutator(g1.A, g2.A)


def test_builder_layout_errors():
    with pytest.raises(ValueError):
        build_quantum(4, 0)
    with pytest.raises(ValueError):
        build_quantum(4, 4)


def test_generator_families_and_casimirs():
    gens = build_quantum(4, 2)
    assert set(gens.J) == {(1, 2)}
    assert set(gens.K) == {(3, 4)}
    j12 = gens.J[(1, 2)]
    assert gens.J2 == (j12 * j12).scaled(Fraction(-1))
    # one-coordinate blocks carry no rotations
    g41 = build_quantum(4, 1)
    assert g41.J == {} and g41.J2.is_zero()
    assert len(g41.K) == 3
    g21 = build_quantum(2, 1)
    assert g21.J == {} and g21.K == {}
    assert g21.J2.is_zero() and g21.K2.is_zero()


def test_harmonic_limit_of_hamiltonian():
    gens = build_quantum(3, 2)
    layout = gens.layout
    free = gens.H.substitute_params({"c1": Fraction(0), "c2": Fraction(0)})
    h2 = ParamScalar.hbar(2)
    expected_terms = {}
    for i in range(3):
        beta = tuple(2 if t == i else 0 for t in range(3))
        expected_terms[beta] = BlockPoly.scalar(layout, h2 * Fraction(-1, 2))
    r2 = DiffOp.zero(layout)
    poly = BlockPoly.zero(layout)
    for i in range(3):
        poly = poly + _x(layout, i, 2)
    expected_terms[(0, 0, 0)] = poly.scaled(ParamScalar.omega(2, Fraction(1, 2)))
    assert free == DiffOp(layout, expected_terms)


def test_explicit_two_dimensional_hamiltonian():
    gens = build_quantum(2, 1)
    layout = gens.layout
    h = gens.H
    assert h.coefficient((2, 0)) == BlockPoly.scalar(layout, ParamScalar.hbar(2, Fraction(-1, 2)))
    assert h.coefficient((0, 2)) == BlockPoly.scalar(layout, ParamScalar.hbar(2, Fraction(-1, 2)))
    zero_coeff = h.coefficient((0, 0))
    # (omega^2/2)(x1^2 + x2^2) + c1/x1^2 + c2/x2^2 over the common denominator
    w = ParamScalar.omega(2, Fraction(1, 2))
    expected = (_x(layout, 0, 2).scaled(w) + _x(layout, 1, 2).scaled(w)
                + BlockPoly(layout, BlockPoly.scalar(layout, ParamScalar.c1()).num, j=1)
                + BlockPoly(layout, BlockPoly.scalar(layout, ParamScalar.c2()).num, k=1))
    assert zero_coeff == expected


@pytest.mark.parametrize("split", [(3, 1), (4, 2)])
def test_combine_of_repeated_and_reversed_words_matches_sequential_application(split):
    # like words sum their scales, a reversed pair shares its coefficient
    # products (and drops them when the scales cancel); apply() composes
    # nothing, so it is an independent oracle
    rng = random.Random(61)
    layout = BlockLayout(*split)
    for _ in range(4):
        p, q, r = (_random_op(layout, rng) for _ in range(3))
        s = [ParamScalar.hbar(rng.randrange(3), Fraction(rng.randrange(1, 7), 5))
             for _ in range(4)]
        words = [(s[0], p, q), (s[1], q, p), (2, p, q),        # repeated and reversed
                 (1, q, r), (-1, r, q),                         # scales cancel
                 (s[2], r, p), (Fraction(-3, 7), r, r),         # single, self
                 (s[3], q, None), (Fraction(1, 2), q, None)]    # bare factor
        got = combine(words)
        for _ in range(3):
            fn = _random_value(layout, rng)
            expected = BlockPoly.zero(layout)
            for scale, left, right in words:
                value = left.apply(fn) if right is None else left.apply(right.apply(fn))
                expected = expected + value.scaled(scale)
            assert got.apply(fn) == expected


@pytest.mark.parametrize("split", [(3, 1), (4, 2)])
def test_symbol_product_matches_sequential_application(split):
    # apply() differentiates term by term and composes nothing, so it is an
    # independent oracle for the symbol product: third-order factors (so
    # binomials up to 3), r^2 denominators on every side, and a word next to
    # its mirror under another scale
    rng = random.Random(83)
    layout = BlockLayout(*split)
    for _ in range(6):
        left, right = (_random_op(layout, rng, max_order=3) for _ in range(2))
        fns = [_random_value(layout, rng, max_jk=2) for _ in range(2)]
        for fn in fns:
            assert (left * right).apply(fn) == left.apply(right.apply(fn))
        scale = ParamScalar.hbar(1, Fraction(rng.randrange(1, 7), 3))
        words = [(scale, left, right), (Fraction(-2, 5), right, left), (3, left, None)]
        got = combine(words)
        for fn in fns:
            expected = (left.apply(right.apply(fn)).scaled(scale)
                        + right.apply(left.apply(fn)).scaled(Fraction(-2, 5))
                        + left.apply(fn).scaled(3))
            assert got.apply(fn) == expected
