"""Poisson bracket engine and the classical quadratic algebra."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singosc.opalg import (MUTABLE_CONSTANTS, BlockLayout, BlockPoly, DiffOp, ParamScalar,
                           PhaseFn, QuadraticConstants, angular_momentum, build_classical,
                           build_quantum, classical_limit, combine, poisson_bracket,
                           verify_qp3)
from singosc.opalg import verify as verify_module
from singosc.opalg.scalars import param_key
from singosc.opalg.verify import _ProductCache
from test_verify import perturbed_word


def _layout():
    return BlockLayout(3, 1)


def test_canonical_pairs():
    layout = _layout()
    for i in range(3):
        xi = PhaseFn.coordinate(layout, i)
        for jdx in range(3):
            pj = PhaseFn.momentum(layout, jdx)
            bracket = poisson_bracket(xi, pj)
            if i == jdx:
                assert bracket == PhaseFn.scalar(layout, 1)
            else:
                assert bracket.is_zero()
            assert poisson_bracket(xi, PhaseFn.coordinate(layout, jdx)).is_zero()


def test_hamiltonian_conserves_generators():
    gens = build_classical(4, 2)
    for fn in (gens.A, gens.B, gens.J2, gens.K2):
        assert poisson_bracket(gens.H, fn).is_zero()


def test_new_integral_is_cubic_in_momenta():
    gens = build_classical(4, 2)
    C = poisson_bracket(gens.A, gens.B)
    assert not C.is_zero()
    assert C.momentum_degree() == 3


def _textbook(N, n):
    """H, A, B and L_12 = x1 p2 - x2 p1, written out from PhaseFn constructors."""
    layout = BlockLayout(N, n)
    x = [PhaseFn.coordinate(layout, i) for i in range(N)]
    p = [PhaseFn.momentum(layout, i) for i in range(N)]

    def total(fns):
        out = PhaseFn.zero(layout)
        for fn in fns:
            out = out + fn
        return out

    def L(i, jdx):
        return x[i] * p[jdx] - x[jdx] * p[i]

    p2_1, p2_2 = total(q * q for q in p[:n]), total(q * q for q in p[n:])
    r2_1, r2_2 = total(c * c for c in x[:n]), total(c * c for c in x[n:])
    half_w2 = ParamScalar.omega(2) * Fraction(1, 2)
    c1 = PhaseFn(BlockPoly.monomial(layout, 0, ParamScalar.c1(), j=1))  # c1 / r1^2
    c2 = PhaseFn(BlockPoly.monomial(layout, 0, ParamScalar.c2(), k=1))  # c2 / r2^2
    H = (p2_1 + p2_2).scaled(Fraction(1, 2)) + (r2_1 + r2_2).scaled(half_w2) + c1 + c2
    A = (total(L(i, jdx) * L(i, jdx) for i in range(N) for jdx in range(i + 1, N))
         .scaled(Fraction(1, 4)) + ((r2_1 + r2_2) * (c1 + c2)).scaled(Fraction(1, 2)))
    B = (p2_1 - p2_2).scaled(Fraction(1, 2)) + (r2_1 - r2_2).scaled(half_w2) + c1 - c2
    return {"H": H, "A": A, "B": B, "L12": L(0, 1)}


@pytest.mark.parametrize("split", [(3, 1), (4, 2)])
def test_classical_limit_gives_the_textbook_integrals(split):
    quantum, expected = build_quantum(*split), _textbook(*split)
    got = {"H": classical_limit(quantum.H), "A": classical_limit(quantum.A),
           "B": classical_limit(quantum.B),
           "L12": classical_limit(angular_momentum(quantum.layout, 0, 1))}
    assert got == expected
    classical = build_classical(*split)
    assert (classical.H, classical.A, classical.B) == (got["H"], got["A"], got["B"])
    assert classical.layout.same_split(quantum.layout)
    if split[1] >= 2:
        assert classical.J[(1, 2)] == expected["L12"]


@pytest.mark.parametrize("split", [(3, 1), (4, 2)])
@pytest.mark.parametrize("names", [("B", "B"), ("J2", "H"), ("A", "B"), ("H", "A")])
def test_classical_limit_is_multiplicative(split, names):
    gens = build_quantum(*split)
    P, Q = (getattr(gens, name) for name in names)
    assert classical_limit(combine([(1, P, Q)])) == classical_limit(P) * classical_limit(Q)


@pytest.mark.parametrize("split", [(3, 1), (4, 2)])
def test_classical_limit_keeps_the_operator_layout(split):
    quantum = build_quantum(*split)
    ops = [quantum.H, quantum.A, quantum.B, quantum.J2, quantum.K2,
           *quantum.J.values(), *quantum.K.values()]
    for op in ops:
        assert classical_limit(op).layout is op.layout


def test_classical_limit_rejects_a_derivative_without_its_hbar_power():
    layout = BlockLayout(3, 1)
    with pytest.raises(ValueError, match="no classical limit"):
        classical_limit(DiffOp.derivative(layout, 0, 2))
    # hbar d_1^2 is still short of hbar^2; hbar^2 d_1^2 + hbar^3 d_1^2 keeps -p1^2
    with pytest.raises(ValueError, match="no classical limit"):
        classical_limit(DiffOp.derivative(layout, 0, 2).scaled(ParamScalar.hbar()))
    op = DiffOp.derivative(layout, 0, 2).scaled(ParamScalar.hbar(2) + ParamScalar.hbar(3))
    assert classical_limit(op) == -PhaseFn.momentum(layout, 0, 2)


def _random_phase(layout, rng):
    out = PhaseFn.zero(layout)
    for _ in range(rng.randrange(1, 4)):
        term = PhaseFn.scalar(layout, Fraction(rng.randrange(-3, 4) or 1))
        for _ in range(rng.randrange(0, 3)):
            if rng.random() < 0.5:
                term = term * PhaseFn.coordinate(layout, rng.randrange(layout.N))
            else:
                term = term * PhaseFn.momentum(layout, rng.randrange(layout.N))
        out = out + term
    return out


def test_bracket_properties_randomized():
    layout = _layout()
    rng = random.Random(17)
    for _ in range(8):
        f = _random_phase(layout, rng)
        g = _random_phase(layout, rng)
        h = _random_phase(layout, rng)
        assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()
        bilinear = (poisson_bracket(f + g.scaled(Fraction(3, 2)), h)
                    - (poisson_bracket(f, h)
                       + poisson_bracket(g, h).scaled(Fraction(3, 2))))
        assert bilinear.is_zero()
        leibniz = (poisson_bracket(f, g * h)
                   - (poisson_bracket(f, g) * h + g * poisson_bracket(f, h)))
        assert leibniz.is_zero()
        jacobi = (poisson_bracket(poisson_bracket(f, g), h)
                  + poisson_bracket(poisson_bracket(g, h), f)
                  + poisson_bracket(poisson_bracket(h, f), g))
        assert jacobi.is_zero()


def test_full_poisson_verification_4_2():
    report = verify_qp3(4, 2)
    assert report.all_passed, [r.name for r in report.failures()]
    names = {r.name for r in report.results}
    assert "poisson-casimir[K-vs-K1]" in names
    assert "classical-limit[A,C]" in names
    assert "classical-limit[B,C]" in names


def test_poisson_verification_small_asymmetric():
    # one-coordinate blocks, where rho_b is the lone x_lead^2
    for split in [(2, 1), (3, 1), (4, 1), (5, 2)]:
        report = verify_qp3(*split)
        assert report.all_passed, (split, [r.name for r in report.failures()])


def _chained_bracket(f, g):
    """The bracket with every product and every partial sum reduced."""
    out = BlockPoly.zero(f.value.layout)
    for i in range(f.value.layout.N):
        out = out + f.value.diff_x(i) * g.value.diff_p(i)
        out = out - f.value.diff_p(i) * g.value.diff_x(i)
    return PhaseFn(out)


def _random_laurent_phase(layout, rng):
    """Random x, p, parameter terms over denominators 3..7, divided by r1^2 r2^2 powers."""
    num = {}
    for _ in range(rng.randrange(2, 5)):
        key = param_key((rng.randrange(2), 0, rng.randrange(2), 0))
        for _ in range(rng.randrange(0, 4)):
            i = rng.randrange(layout.N)
            key += layout.x_key(i) if rng.random() < 0.5 else layout.p_key(i)
        num[key] = num.get(key, 0) + Fraction(rng.randrange(-9, 10) or 1, rng.randrange(3, 8))
    return PhaseFn(BlockPoly(layout, num, j=rng.randrange(1, 3), k=rng.randrange(1, 3)))


@pytest.mark.parametrize("split", [(3, 1), (4, 2)])
def test_bracket_matches_chained_reference(split):
    layout = BlockLayout(*split)
    rng = random.Random(23)
    with_denominators = 0
    for _ in range(12):
        f, g = _random_laurent_phase(layout, rng), _random_laurent_phase(layout, rng)
        got, expected = poisson_bracket(f, g), _chained_bracket(f, g)
        assert got == expected
        assert hash(got) == hash(expected)
        with_denominators += got.value.j > 0 and got.value.k > 0 and got.value.den > 1
    assert with_denominators >= 6


@pytest.fixture(scope="module")
def gens_4_2():
    return build_classical(4, 2)


# the hbar^2-leading structure constants are the ones the Poisson relations see
CLASSICAL_CONSTANTS = tuple(f for f in MUTABLE_CONSTANTS if f not in ("ac_h4h", "ac_b", "bc_h4"))


@pytest.mark.parametrize("field_name", MUTABLE_CONSTANTS)
def test_mutating_a_structure_constant_fails_its_classical_limit(gens_4_2, field_name):
    consts = QuadraticConstants.for_dims(4, 2).bumped(field_name)
    report = verify_qp3(4, 2, gens=gens_4_2, quantum_constants=consts)
    failed = [r.name for r in report.failures()]
    if field_name in CLASSICAL_CONSTANTS:
        check = "classical-limit[A,C]" if field_name.startswith("ac_") else "classical-limit[B,C]"
        assert failed == [check]
        assert report[check].residual_terms > 0
    else:
        # an hbar^4 term has no classical limit
        assert failed == []


@pytest.mark.parametrize("side", ["K", "K1"])
def test_perturbing_any_poisson_casimir_word_leaves_a_residual(gens_4_2, side, monkeypatch):
    name = "casimir_generator_terms" if side == "K" else "casimir_central_terms"
    table = getattr(verify_module, name)
    check = "poisson-casimir[K-vs-K1]"
    assert verify_qp3(4, 2, gens=gens_4_2)[check].passed
    cache = _ProductCache(gens_4_2)
    C = cache.get("C")
    leading = [idx for idx, (power, _, f, g) in enumerate(table(cache))
               if power + (f is C) + (g is C) == 2]
    assert len(leading) == (11 if side == "K" else 9)
    for idx in leading:
        monkeypatch.setattr(verify_module, name, perturbed_word(table, idx))
        result = verify_qp3(4, 2, gens=gens_4_2)[check]
        assert not result.passed and result.residual_terms > 0, idx


@pytest.mark.parametrize("word", [(0, 1, "A", None), (1, 1, "C", None), (0, 1, "C", "B"),
                                  (3, 1, "C", "A")])
def test_a_word_below_the_leading_order_or_with_one_c_raises(gens_4_2, word):
    cache = _ProductCache(gens_4_2)
    power, scale, f, g = word
    factors = {"A": gens_4_2.A, "B": gens_4_2.B, "C": cache.get("C"), None: None}
    with pytest.raises(ValueError):
        cache.graded([(power, scale, factors[f], factors[g])])
