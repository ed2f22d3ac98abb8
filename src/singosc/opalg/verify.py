"""Exact verification of the quadratic symmetry algebra and its Poisson analogue.

Every check subtracts a closed-form right-hand side from an engine-computed
left-hand side and asserts that the difference is the exact zero operator
(or phase-space function).  The quadratic relations and the Casimirs are word
lists (scale, f, g | None) whose sum is the residual: ``combine`` and
``combine_phase`` add every word's product into one accumulator and reduce
once.  Each verify call owns one derivative table, so every derivative is
taken once per call.  The structure constants live in small dataclasses so
that mutation tests can knock any single one off by a unit and watch the
corresponding check fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .classical import PhaseFn, bracket_words, combine_phase, poisson_bracket
from .diffop import DiffOp, combine, commutator
from .generators import (ClassicalGenerators, QuantumGenerators, build_classical,
                         build_quantum)
from .poly import Derivatives
from .report import CheckResult, VerificationReport
from .scalars import ParamScalar

_H2 = ParamScalar.hbar(2)
_H4 = ParamScalar.hbar(4)
_W2 = ParamScalar.omega(2)
_C1 = ParamScalar.c1()
_C2 = ParamScalar.c2()


@dataclass(frozen=True)
class QuadraticConstants:
    """Structure constants of the two quadratic commutation relations.

    [A, C] = hbar^2 ( ac_anti {A,B} + ac_j2h J2 H + ac_k2h K2 H
                      + (ac_c1h c1 + ac_c2h c2) H ) + hbar^4 ( ac_h4h H + ac_b B )
    [B, C] = hbar^2 ( bc_b2 B^2 + bc_h2 H^2 ) + hbar^2 omega^2 ( bc_a A
                      + bc_j2 J2 + bc_k2 K2 + bc_c (c1 + c2) ) + hbar^4 omega^2 bc_h4
    """

    ac_anti: Fraction
    ac_j2h: Fraction
    ac_k2h: Fraction
    ac_c1h: Fraction
    ac_c2h: Fraction
    ac_h4h: Fraction
    ac_b: Fraction
    bc_b2: Fraction
    bc_h2: Fraction
    bc_a: Fraction
    bc_j2: Fraction
    bc_k2: Fraction
    bc_c: Fraction
    bc_h4: Fraction

    @classmethod
    def for_dims(cls, N: int, n: int) -> "QuadraticConstants":
        return cls(
            ac_anti=Fraction(2),
            ac_j2h=Fraction(-1),
            ac_k2h=Fraction(1),
            ac_c1h=Fraction(-2),
            ac_c2h=Fraction(2),
            ac_h4h=Fraction((N - 4) * (N - 2 * n), 4),
            ac_b=Fraction(N * (N - 4), 4),
            bc_b2=Fraction(-2),
            bc_h2=Fraction(2),
            bc_a=Fraction(-16),
            bc_j2=Fraction(4),
            bc_k2=Fraction(4),
            bc_c=Fraction(8),
            bc_h4=Fraction(-2 * n * (N - n)),
        )

    def bumped(self, field_name: str, amount: int = 1) -> "QuadraticConstants":
        """Copy with one structure constant perturbed by a unit."""
        return replace(self, **{field_name: getattr(self, field_name) + amount})


MUTABLE_CONSTANTS = tuple(QuadraticConstants.__dataclass_fields__)


class _ProductCache:
    """Memoizes the products used across several identities, quantum or classical,
    and holds the one derivative table of a verify call.

    ``bracket`` gives C = bracket(A, B): the commutator for operators, the
    Poisson bracket for phase-space functions.  Nothing outlives the cache, so
    generators reused across verify calls gain nothing from an earlier call."""

    def __init__(self, gens: QuantumGenerators | ClassicalGenerators, bracket=commutator):
        self.g = gens
        self.derivatives = Derivatives()
        self._bracket = bracket
        self._cache: dict = {}
        self._builders = {
            "C": lambda: self.bracket(gens.A, gens.B),
            "B2": lambda: self.product(gens.B, gens.B),
            "H2": lambda: self.product(gens.H, gens.H),
            "J2H": lambda: self.product(gens.J2, gens.H),
            "K2H": lambda: self.product(gens.K2, gens.H),
        }

    def bracket(self, f, g):
        return self._bracket(f, g, self.derivatives)

    def combine(self, words: list) -> DiffOp:
        return combine(words, self.derivatives)

    def product(self, f, g):
        if isinstance(f, PhaseFn):
            return f * g
        return self.combine([(1, f, g)])

    def get(self, name: str):
        value = self._cache.get(name)
        if value is None:
            value = self._cache[name] = self._builders[name]()
        return value


def quadratic_ac_rhs(cache: _ProductCache, consts: QuadraticConstants,
                     subs: dict | None = None) -> list:
    """Words of the right side of [A, C]; {A, B} is the two words A B and B A."""
    g = cache.g
    s = _scalar_mapper(subs)
    anti = s(_H2 * consts.ac_anti)
    return [
        (anti, g.A, g.B),
        (anti, g.B, g.A),
        (s(_H2 * consts.ac_j2h), cache.get("J2H"), None),
        (s(_H2 * consts.ac_k2h), cache.get("K2H"), None),
        (s(_H2 * (_C1 * consts.ac_c1h + _C2 * consts.ac_c2h) + _H4 * consts.ac_h4h), g.H, None),
        (s(_H4 * consts.ac_b), g.B, None),
    ]


def quadratic_bc_rhs(cache: _ProductCache, consts: QuadraticConstants,
                     subs: dict | None = None) -> list:
    """Words of the right side of [B, C]."""
    g = cache.g
    s = _scalar_mapper(subs)
    h2w2 = _H2 * _W2
    return [
        (s(_H2 * consts.bc_b2), cache.get("B2"), None),
        (s(_H2 * consts.bc_h2), cache.get("H2"), None),
        (s(h2w2 * consts.bc_a), g.A, None),
        (s(h2w2 * consts.bc_j2), g.J2, None),
        (s(h2w2 * consts.bc_k2), g.K2, None),
        (s(h2w2 * ((_C1 + _C2) * consts.bc_c) + _H4 * _W2 * consts.bc_h4),
         DiffOp.identity(g.layout), None),
    ]


def casimir_generator_terms(cache: _ProductCache, subs: dict | None = None) -> list:
    """Words (scale, left, right) of the cubic Casimir built from A, B, C and the
    central elements; right None stands for the identity."""
    g = cache.g
    N, n = g.N, g.n
    s = _scalar_mapper(subs)
    h2w2 = _H2 * _W2
    B2 = cache.get("B2")
    scalar_b = _H2 * (_C1 * 4 - _C2 * 4) + _H4 * Fraction(-(N - 4) * (N - 2 * n), 2)
    return [
        (ParamScalar.rational(1), cache.get("C"), cache.get("C")),
        (s(_H2 * Fraction(-2)), g.A, B2),
        (s(_H2 * Fraction(-2)), B2, g.A),
        (s(_H4 * Fraction(16 - N * (N - 4), 4)), B2, None),
        (s(_H2 * Fraction(2)), cache.get("J2H"), g.B),
        (s(_H2 * Fraction(-2)), cache.get("K2H"), g.B),
        (s(scalar_b), g.H, g.B),
        (s(h2w2 * Fraction(-16)), g.A, g.A),
        (s(h2w2 * ((_C1 + _C2) * 16) + _H4 * _W2 * Fraction(-4 * n * (N - n))), g.A, None),
        (s(h2w2 * Fraction(8)), g.J2, g.A),
        (s(h2w2 * Fraction(8)), g.K2, g.A),
        (s(_H2 * Fraction(4)), cache.get("H2"), g.A),
    ]


def casimir_central_terms(cache: _ProductCache, subs: dict | None = None) -> list:
    """Words of the same Casimir expressed through H, J2, K2 alone."""
    g = cache.g
    N, n = g.N, g.n
    s = _scalar_mapper(subs)
    h2w2 = _H2 * _W2
    coeff_h2 = _H2 * ((_C1 + _C2) * 4) + _H4 * Fraction(-(4 * (N - 4) - (N - 2 * n) ** 2), 4)
    coeff_j2 = h2w2 * ((_C1 - _C2) * 4) + _H4 * _W2 * Fraction(-(N - 4) * (N - n))
    coeff_k2 = h2w2 * ((_C1 - _C2) * -4) + _H4 * _W2 * Fraction(-n * (N - 4))
    coeff_id = (h2w2 * ((_C1 - _C2) * (_C1 - _C2) * 4)
                + _H4 * _W2 * (_C1 * Fraction(-2 * (N - n) * (N - 4))
                               + _C2 * Fraction(-2 * n * (N - 4)))
                + ParamScalar.hbar(6) * _W2 * Fraction(n * (N - n) * (N - 4)))
    return [
        (s(_H2 * Fraction(2)), cache.get("J2H"), g.H),
        (s(_H2 * Fraction(2)), cache.get("K2H"), g.H),
        (s(coeff_h2), cache.get("H2"), None),
        (s(h2w2), g.J2, g.J2),
        (s(h2w2), g.K2, g.K2),
        (s(h2w2 * Fraction(-2)), g.J2, g.K2),
        (s(coeff_j2), g.J2, None),
        (s(coeff_k2), g.K2, None),
        (s(coeff_id), DiffOp.identity(g.layout), None),
    ]


def casimir_residual(cache: _ProductCache, subs: dict | None = None) -> DiffOp:
    """Generator-built Casimir minus its central-element form, in one pass."""
    return cache.combine(casimir_generator_terms(cache, subs)
                         + _negated(casimir_central_terms(cache, subs)))


def quadratic_residual(cache: _ProductCache, X: DiffOp, rhs_words: list) -> DiffOp:
    """[X, C] minus its right side, in one pass."""
    C = cache.get("C")
    return cache.combine([(1, X, C), (-1, C, X)] + _negated(rhs_words))


def _negated(words: list) -> list:
    return [(-scale, left, right) for scale, left, right in words]


def _scalar_mapper(subs: dict | None):
    if not subs:
        return lambda ps: ps
    return lambda ps: ps.substitute(subs)


def _timed(report: VerificationReport, name: str, residual_fn, detail: str = "") -> None:
    start = time.perf_counter()
    residual = residual_fn()
    elapsed = time.perf_counter() - start
    report.add(CheckResult(name=name, passed=residual.is_zero(),
                           residual_terms=residual.term_count(),
                           wall_time=elapsed, detail=detail))


def _vanishing_checks(report: VerificationReport, gens, bracket, families) -> None:
    """H commutes with everything, and J2, K2 are central: each bracket is zero."""
    for pair in ("H,A", "H,B", "H,J2", "H,K2", "A,J2", "A,K2", "B,J2", "B,K2", "J2,K2"):
        f, g = (getattr(gens, name) for name in pair.split(","))
        family = families[0] if pair.startswith("H,") else families[1]
        _timed(report, f"{family}[{pair}]", lambda: bracket(f, g))


def _so_residual(gens: dict, bracket, zero, scale):
    """First nonzero residual of bracket(L_ab, L_cd) = scale (d_ac L_bd + d_bd L_ac
    - d_ad L_bc - d_bc L_ad), or ``zero`` when every pair holds.

    The quantum real form has scale -hbar, the Poisson form scale 1.
    """
    def gen(i, jdx):
        if i == jdx:
            return zero
        return gens[(i, jdx)] if i < jdx else -gens[(jdx, i)]

    pairs = sorted(gens)
    for a, b in pairs:
        for c, d in pairs:
            rhs = zero
            if a == c:
                rhs = rhs + gen(b, d)
            if b == d:
                rhs = rhs + gen(a, c)
            if a == d:
                rhs = rhs - gen(b, c)
            if b == c:
                rhs = rhs - gen(a, d)
            residual = bracket(gens[(a, b)], gens[(c, d)]) - rhs.scaled(scale)
            if not residual.is_zero():
                return residual
    return zero


def verify_q3(N: int, n: int, *, constants: QuadraticConstants | None = None,
              casimir: bool = True, substitutions: dict | None = None,
              gens: QuantumGenerators | None = None) -> VerificationReport:
    """Exact check of the full quantum symmetry algebra for one (N, n) split.

    ``substitutions`` optionally fixes some of (hbar, omega, c1, c2) to exact
    rationals (the sampled fast mode); by default everything stays symbolic.
    """
    if gens is None:
        gens = build_quantum(N, n)
    if substitutions:
        gens = _substituted(gens, substitutions)
    consts = constants or QuadraticConstants.for_dims(N, n)
    cache = _ProductCache(gens)
    report = VerificationReport(context={"family": "quantum", "N": N, "n": n})

    _vanishing_checks(report, gens, cache.bracket, ("commute", "central"))
    _timed(report, "quadratic[A,C]", lambda: quadratic_residual(
        cache, gens.A, quadratic_ac_rhs(cache, consts, substitutions)))
    _timed(report, "quadratic[B,C]", lambda: quadratic_residual(
        cache, gens.B, quadratic_bc_rhs(cache, consts, substitutions)))
    if casimir:
        _timed(report, "casimir[generators-vs-central]",
               lambda: casimir_residual(cache, substitutions))
    # the hbar of the right-hand side must be substituted like the generators
    minus_hbar = _scalar_mapper(substitutions)(ParamScalar.hbar(1, -1))
    zero = DiffOp.zero(gens.layout)
    _timed(report, "so-rotations[block1]",
           lambda: _so_residual(gens.J, cache.bracket, zero, minus_hbar),
           detail=f"{len(gens.J)} generators")
    _timed(report, "so-rotations[block2]",
           lambda: _so_residual(gens.K, cache.bracket, zero, minus_hbar),
           detail=f"{len(gens.K)} generators")
    return report.finalize()


def _substituted(gens: QuantumGenerators, values: dict) -> QuantumGenerators:
    return QuantumGenerators(
        layout=gens.layout,
        H=gens.H.substitute_params(values),
        A=gens.A.substitute_params(values),
        B=gens.B.substitute_params(values),
        J={k: v.substitute_params(values) for k, v in gens.J.items()},
        K={k: v.substitute_params(values) for k, v in gens.K.items()},
        J2=gens.J2.substitute_params(values),
        K2=gens.K2.substitute_params(values),
    )


# -- classical (Poisson) side --------------------------------------------------


def poisson_ac_rhs(cache: _ProductCache) -> list:
    """Words of {A, C} = -4 A B + J2 H - K2 H + 2 (c1 - c2) H."""
    g = cache.g
    return [
        (-4, g.A, g.B),
        (1, cache.get("J2H"), None),
        (-1, cache.get("K2H"), None),
        (_C1 * 2 - _C2 * 2, g.H, None),
    ]


def poisson_bc_rhs(cache: _ProductCache) -> list:
    """Words of {B, C} = 2 B^2 - 2 H^2 + 16 w^2 A - 4 w^2 J2 - 4 w^2 K2 - 8 w^2 (c1 + c2)."""
    g = cache.g
    return [
        (2, cache.get("B2"), None),
        (-2, cache.get("H2"), None),
        (_W2 * 16, g.A, None),
        (_W2 * -4, g.J2, None),
        (_W2 * -4, g.K2, None),
        (_W2 * (_C1 + _C2) * -8, PhaseFn.scalar(g.layout, 1), None),
    ]


def poisson_casimir(cache: _ProductCache) -> list:
    """Words of K = C^2 + 4 A B^2 - 2 [J2 H - K2 H + 2 (c1-c2) H] B + 16 w^2 A^2
    - 2 [8 w^2 (c1+c2) + 4 w^2 J2 + 4 w^2 K2 + 2 H^2] A."""
    g = cache.g
    return [
        (1, cache.get("C"), cache.get("C")),
        (4, g.A, cache.get("B2")),
        (-2, cache.get("J2H"), g.B),
        (2, cache.get("K2H"), g.B),
        ((_C1 - _C2) * -4, g.H, g.B),
        (_W2 * 16, g.A, g.A),
        (_W2 * (_C1 + _C2) * -16, g.A, None),
        (_W2 * -8, g.J2, g.A),
        (_W2 * -8, g.K2, g.A),
        (-4, cache.get("H2"), g.A),
    ]


def poisson_casimir_central(cache: _ProductCache) -> list:
    """Words of K1 = -2 J2 H^2 - 2 K2 H^2 - 4 (c1+c2) H^2 - w^2 J2^2 - w^2 K2^2
    + 2 w^2 J2 K2 - 4 w^2 (c1-c2) J2 + 4 w^2 (c1-c2) K2 - 4 w^2 (c1-c2)^2."""
    g = cache.g
    return [
        (-2, cache.get("J2H"), g.H),
        (-2, cache.get("K2H"), g.H),
        ((_C1 + _C2) * -4, cache.get("H2"), None),
        (-_W2, g.J2, g.J2),
        (-_W2, g.K2, g.K2),
        (_W2 * 2, g.J2, g.K2),
        (_W2 * (_C1 - _C2) * -4, g.J2, None),
        (_W2 * (_C1 - _C2) * 4, g.K2, None),
        (_W2 * (_C1 - _C2) * (_C1 - _C2) * -4, PhaseFn.scalar(g.layout, 1), None),
    ]


def verify_qp3(N: int, n: int, *, gens: ClassicalGenerators | None = None,
               quantum_constants: QuadraticConstants | None = None) -> VerificationReport:
    """Exact check of the quadratic Poisson algebra and its Casimir for (N, n).

    Also checks that the hbar^2-leading part of the quantum structure constants
    reproduces the Poisson relations (the classical-limit consistency check).
    Each relation is one word list, summed and reduced once by ``combine_phase``.
    """
    if gens is None:
        gens = build_classical(N, n)
    report = VerificationReport(context={"family": "classical", "N": N, "n": n})
    cache = _ProductCache(gens, poisson_bracket)

    _vanishing_checks(report, gens, cache.bracket, ("poisson", "poisson-central"))
    _timed(report, "poisson-quadratic[A,C]", lambda: combine_phase(
        bracket_words(gens.A, cache.get("C"), cache.derivatives)
        + _negated(poisson_ac_rhs(cache))))
    _timed(report, "poisson-quadratic[B,C]", lambda: combine_phase(
        bracket_words(gens.B, cache.get("C"), cache.derivatives)
        + _negated(poisson_bc_rhs(cache))))
    _timed(report, "poisson-casimir[K-vs-K1]", lambda: combine_phase(
        poisson_casimir(cache) + _negated(poisson_casimir_central(cache))))
    zero = PhaseFn.zero(gens.layout)
    _timed(report, "poisson-so[block1]",
           lambda: _so_residual(gens.J, cache.bracket, zero, 1))
    _timed(report, "poisson-so[block2]",
           lambda: _so_residual(gens.K, cache.bracket, zero, 1))

    consts = quantum_constants or QuadraticConstants.for_dims(N, n)
    _timed(report, "classical-limit[A,C]",
           lambda: combine_phase(_classical_limit_ac_words(cache, consts)))
    _timed(report, "classical-limit[B,C]",
           lambda: combine_phase(_classical_limit_bc_words(cache, consts)))
    return report.finalize()


def _classical_limit_ac_words(cache: _ProductCache, consts: QuadraticConstants) -> list:
    """Leading hbar^2 part of the quantum [A,C] relation vs the Poisson {A,C}.

    Under [.,.] -> i hbar {.,.} the double commutator [A, [A, B]] maps onto
    -hbar^2 {A, {A, B}}, so {A, C} must equal minus the hbar^2-coefficient of
    the quantum right side with {A,B} read as 2AB: the words sum to zero.
    """
    g = cache.g
    return poisson_ac_rhs(cache) + [
        (consts.ac_anti * 2, g.A, g.B),
        (consts.ac_j2h, cache.get("J2H"), None),
        (consts.ac_k2h, cache.get("K2H"), None),
        (_C1 * consts.ac_c1h + _C2 * consts.ac_c2h, g.H, None),
    ]


def _classical_limit_bc_words(cache: _ProductCache, consts: QuadraticConstants) -> list:
    g = cache.g
    return poisson_bc_rhs(cache) + [
        (consts.bc_b2, cache.get("B2"), None),
        (consts.bc_h2, cache.get("H2"), None),
        (_W2 * consts.bc_a, g.A, None),
        (_W2 * consts.bc_j2, g.J2, None),
        (_W2 * consts.bc_k2, g.K2, None),
        (_W2 * (_C1 + _C2) * consts.bc_c, PhaseFn.scalar(g.layout, 1), None),
    ]
