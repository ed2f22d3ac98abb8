"""Exact verification of the quadratic symmetry algebra and its Poisson analogue.

Every check subtracts a closed-form right-hand side from an engine-computed
left-hand side and asserts that the difference is the exact zero operator
(or phase-space function).  The structure constants live in small dataclasses
so that mutation tests can knock any single one off by a unit and watch the
corresponding check fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .classical import PhaseFn, poisson_bracket
from .diffop import DiffOp, anticommutator, combine, commutator
from .generators import (ClassicalGenerators, QuantumGenerators, build_classical,
                         build_quantum)
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
    """Memoizes the expensive operator products used across several identities."""

    def __init__(self, gens: QuantumGenerators):
        self.g = gens
        self._cache: dict[str, DiffOp] = {}

    def get(self, name: str) -> DiffOp:
        op = self._cache.get(name)
        if op is None:
            op = self._build(name)
            self._cache[name] = op
        return op

    def _build(self, name: str) -> DiffOp:
        g = self.g
        builders = {
            "C": lambda: commutator(g.A, g.B),
            "AB_anti": lambda: anticommutator(g.A, g.B),
            "B2": lambda: g.B * g.B,
            "H2": lambda: g.H * g.H,
            "A2": lambda: g.A * g.A,
            "C2": lambda: self.get("C") * self.get("C"),
            "AB2_anti": lambda: anticommutator(g.A, self.get("B2")),
            "J2H": lambda: g.J2 * g.H,
            "K2H": lambda: g.K2 * g.H,
            "HB": lambda: g.H * g.B,
            "J2HB": lambda: self.get("J2H") * g.B,
            "K2HB": lambda: self.get("K2H") * g.B,
            "J2A": lambda: g.J2 * g.A,
            "K2A": lambda: g.K2 * g.A,
            "H2A": lambda: self.get("H2") * g.A,
            "J2H2": lambda: self.get("J2H") * g.H,
            "K2H2": lambda: self.get("K2H") * g.H,
            "J2J2": lambda: g.J2 * g.J2,
            "K2K2": lambda: g.K2 * g.K2,
            "J2K2": lambda: g.J2 * g.K2,
        }
        return builders[name]()


def quadratic_ac_rhs(cache: _ProductCache, consts: QuadraticConstants,
                     subs: dict | None = None) -> DiffOp:
    g = cache.g
    s = _scalar_mapper(subs)
    return combine([
        (s(_H2 * consts.ac_anti), cache.get("AB_anti")),
        (s(_H2 * consts.ac_j2h), cache.get("J2H")),
        (s(_H2 * consts.ac_k2h), cache.get("K2H")),
        (s(_H2 * (_C1 * consts.ac_c1h + _C2 * consts.ac_c2h) + _H4 * consts.ac_h4h), g.H),
        (s(_H4 * consts.ac_b), g.B),
    ])


def quadratic_bc_rhs(cache: _ProductCache, consts: QuadraticConstants,
                     subs: dict | None = None) -> DiffOp:
    g = cache.g
    s = _scalar_mapper(subs)
    ident = DiffOp.identity(g.layout)
    h2w2 = _H2 * _W2
    return combine([
        (s(_H2 * consts.bc_b2), cache.get("B2")),
        (s(_H2 * consts.bc_h2), cache.get("H2")),
        (s(h2w2 * consts.bc_a), g.A),
        (s(h2w2 * consts.bc_j2), g.J2),
        (s(h2w2 * consts.bc_k2), g.K2),
        (s(h2w2 * ((_C1 + _C2) * consts.bc_c) + _H4 * _W2 * consts.bc_h4), ident),
    ])


def casimir_generator_terms(cache: _ProductCache, subs: dict | None = None) -> list:
    """Term list of the cubic Casimir built from A, B, C and the central elements."""
    g = cache.g
    N, n = g.N, g.n
    s = _scalar_mapper(subs)
    h2w2 = _H2 * _W2
    scalar_b = _H2 * (_C1 * 4 - _C2 * 4) + _H4 * Fraction(-(N - 4) * (N - 2 * n), 2)
    return [
        (ParamScalar.rational(1), cache.get("C2")),
        (s(_H2 * Fraction(-2)), cache.get("AB2_anti")),
        (s(_H4 * Fraction(16 - N * (N - 4), 4)), cache.get("B2")),
        (s(_H2 * Fraction(2)), cache.get("J2HB")),
        (s(_H2 * Fraction(-2)), cache.get("K2HB")),
        (s(scalar_b), cache.get("HB")),
        (s(h2w2 * Fraction(-16)), cache.get("A2")),
        (s(h2w2 * ((_C1 + _C2) * 16) + _H4 * _W2 * Fraction(-4 * n * (N - n))), g.A),
        (s(h2w2 * Fraction(8)), cache.get("J2A")),
        (s(h2w2 * Fraction(8)), cache.get("K2A")),
        (s(_H2 * Fraction(4)), cache.get("H2A")),
    ]


def casimir_central_terms(cache: _ProductCache, subs: dict | None = None) -> list:
    """Term list of the same Casimir expressed through H, J2, K2 alone."""
    g = cache.g
    N, n = g.N, g.n
    s = _scalar_mapper(subs)
    ident = DiffOp.identity(g.layout)
    h2w2 = _H2 * _W2
    coeff_h2 = _H2 * ((_C1 + _C2) * 4) + _H4 * Fraction(-(4 * (N - 4) - (N - 2 * n) ** 2), 4)
    coeff_j2 = h2w2 * ((_C1 - _C2) * 4) + _H4 * _W2 * Fraction(-(N - 4) * (N - n))
    coeff_k2 = h2w2 * ((_C1 - _C2) * -4) + _H4 * _W2 * Fraction(-n * (N - 4))
    coeff_id = (h2w2 * ((_C1 - _C2) * (_C1 - _C2) * 4)
                + _H4 * _W2 * (_C1 * Fraction(-2 * (N - n) * (N - 4))
                               + _C2 * Fraction(-2 * n * (N - 4)))
                + ParamScalar.hbar(6) * _W2 * Fraction(n * (N - n) * (N - 4)))
    return [
        (s(_H2 * Fraction(2)), cache.get("J2H2")),
        (s(_H2 * Fraction(2)), cache.get("K2H2")),
        (s(coeff_h2), cache.get("H2")),
        (s(h2w2), cache.get("J2J2")),
        (s(h2w2), cache.get("K2K2")),
        (s(h2w2 * Fraction(-2)), cache.get("J2K2")),
        (s(coeff_j2), g.J2),
        (s(coeff_k2), g.K2),
        (s(coeff_id), ident),
    ]


def casimir_residual(cache: _ProductCache, subs: dict | None = None) -> DiffOp:
    """Generator-built Casimir minus its central-element form, in one pass."""
    terms = casimir_generator_terms(cache, subs)
    terms.extend((-scale, op) for scale, op in casimir_central_terms(cache, subs))
    return combine(terms)


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


def _so_block_residuals(ops: dict, hbar_sign: Fraction, layout,
                        subs: dict | None) -> DiffOp:
    """First nonzero residual of [L_ab, L_cd] = -hbar (d_ac L_bd + d_bd L_ac
    - d_ad L_bc - d_bc L_ad), or zero when every pair holds.

    Stated in the real form.  ``subs`` must be the substitution already applied
    to ``ops``, so that the hbar of the right-hand side matches theirs.
    """
    hbar = _scalar_mapper(subs)(ParamScalar.hbar(1, hbar_sign))
    pairs = sorted(ops)
    for ab in pairs:
        for cd in pairs:
            a, b = ab
            c, d = cd

            def gen(i, jdx):
                if i == jdx:
                    return DiffOp.zero(layout)
                if i < jdx:
                    return ops[(i, jdx)]
                return -ops[(jdx, i)]

            rhs = DiffOp.zero(layout)
            if a == c:
                rhs = rhs + gen(b, d)
            if b == d:
                rhs = rhs + gen(a, c)
            if a == d:
                rhs = rhs - gen(b, c)
            if b == c:
                rhs = rhs - gen(a, d)
            residual = commutator(ops[ab], ops[cd]) - rhs.scaled(hbar)
            if not residual.is_zero():
                return residual
    return DiffOp.zero(layout)


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

    _timed(report, "commute[H,A]", lambda: commutator(gens.H, gens.A))
    _timed(report, "commute[H,B]", lambda: commutator(gens.H, gens.B))
    _timed(report, "commute[H,J2]", lambda: commutator(gens.H, gens.J2))
    _timed(report, "commute[H,K2]", lambda: commutator(gens.H, gens.K2))
    _timed(report, "central[A,J2]", lambda: commutator(gens.A, gens.J2))
    _timed(report, "central[A,K2]", lambda: commutator(gens.A, gens.K2))
    _timed(report, "central[B,J2]", lambda: commutator(gens.B, gens.J2))
    _timed(report, "central[B,K2]", lambda: commutator(gens.B, gens.K2))
    _timed(report, "central[J2,K2]", lambda: commutator(gens.J2, gens.K2))
    _timed(report, "quadratic[A,C]",
           lambda: commutator(gens.A, cache.get("C"))
           - quadratic_ac_rhs(cache, consts, substitutions))
    _timed(report, "quadratic[B,C]",
           lambda: commutator(gens.B, cache.get("C"))
           - quadratic_bc_rhs(cache, consts, substitutions))
    if casimir:
        _timed(report, "casimir[generators-vs-central]",
               lambda: casimir_residual(cache, substitutions))
    _timed(report, "so-rotations[block1]",
           lambda: _so_block_residuals(gens.J, Fraction(-1), gens.layout, substitutions),
           detail=f"{len(gens.J)} generators")
    _timed(report, "so-rotations[block2]",
           lambda: _so_block_residuals(gens.K, Fraction(-1), gens.layout, substitutions),
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


def poisson_ac_rhs(g: ClassicalGenerators) -> PhaseFn:
    # {A, C} = -4 A B + J2 H - K2 H + 2 (c1 - c2) H
    return (g.A * g.B).scaled(Fraction(-4)) + g.J2 * g.H - g.K2 * g.H \
        + g.H.scaled(_C1 * 2 - _C2 * 2)


def poisson_bc_rhs(g: ClassicalGenerators) -> PhaseFn:
    # {B, C} = 2 B^2 - 2 H^2 + 16 w^2 A - 4 w^2 J2 - 4 w^2 K2 - 8 w^2 (c1 + c2)
    ident = PhaseFn.scalar(g.layout, 1)
    return ((g.B * g.B).scaled(Fraction(2)) + (g.H * g.H).scaled(Fraction(-2))
            + g.A.scaled(_W2 * 16) + g.J2.scaled(_W2 * -4) + g.K2.scaled(_W2 * -4)
            + ident.scaled(_W2 * (_C1 + _C2) * -8))


def poisson_casimir(g: ClassicalGenerators, C: PhaseFn) -> PhaseFn:
    # K = C^2 + 4 A B^2 - 2 [J2 H - K2 H + 2 (c1-c2) H] B + 16 w^2 A^2
    #     - 2 [8 w^2 (c1+c2) + 4 w^2 J2 + 4 w^2 K2 + 2 H^2] A
    bracket_b = g.J2 * g.H - g.K2 * g.H + g.H.scaled((_C1 - _C2) * 2)
    bracket_a = (g.J2.scaled(_W2 * 4) + g.K2.scaled(_W2 * 4)
                 + (g.H * g.H).scaled(Fraction(2))
                 + PhaseFn.scalar(g.layout, _W2 * (_C1 + _C2) * 8))
    return (C * C + (g.A * g.B * g.B).scaled(Fraction(4))
            - (bracket_b * g.B).scaled(Fraction(2))
            + (g.A * g.A).scaled(_W2 * 16)
            - (bracket_a * g.A).scaled(Fraction(2)))


def poisson_casimir_central(g: ClassicalGenerators) -> PhaseFn:
    # K1 = -2 J2 H^2 - 2 K2 H^2 - 4 (c1+c2) H^2 - w^2 J2^2 - w^2 K2^2 + 2 w^2 J2 K2
    #      - 4 w^2 (c1-c2) J2 + 4 w^2 (c1-c2) K2 - 4 w^2 (c1-c2)^2
    h2 = g.H * g.H
    ident = PhaseFn.scalar(g.layout, 1)
    return ((g.J2 * h2).scaled(Fraction(-2)) + (g.K2 * h2).scaled(Fraction(-2))
            + h2.scaled((_C1 + _C2) * -4)
            + (g.J2 * g.J2).scaled(-_W2) + (g.K2 * g.K2).scaled(-_W2)
            + (g.J2 * g.K2).scaled(_W2 * 2)
            + g.J2.scaled(_W2 * (_C1 - _C2) * -4) + g.K2.scaled(_W2 * (_C1 - _C2) * 4)
            + ident.scaled(_W2 * (_C1 - _C2) * (_C1 - _C2) * -4))


def _poisson_so_residual(fns: dict, layout) -> PhaseFn:
    """{L_ab, L_cd} = d_ac L_bd + d_bd L_ac - d_ad L_bc - d_bc L_ad."""
    pairs = sorted(fns)
    for ab in pairs:
        for cd in pairs:
            a, b = ab
            c, d = cd

            def gen(i, jdx):
                if i == jdx:
                    return PhaseFn.zero(layout)
                if i < jdx:
                    return fns[(i, jdx)]
                return -fns[(jdx, i)]

            rhs = PhaseFn.zero(layout)
            if a == c:
                rhs = rhs + gen(b, d)
            if b == d:
                rhs = rhs + gen(a, c)
            if a == d:
                rhs = rhs - gen(b, c)
            if b == c:
                rhs = rhs - gen(a, d)
            residual = poisson_bracket(fns[ab], fns[cd]) - rhs
            if not residual.is_zero():
                return residual
    return PhaseFn.zero(layout)


def verify_qp3(N: int, n: int, *, gens: ClassicalGenerators | None = None,
               quantum_constants: QuadraticConstants | None = None) -> VerificationReport:
    """Exact check of the quadratic Poisson algebra and its Casimir for (N, n).

    Also checks that the hbar^2-leading part of the quantum structure constants
    reproduces the Poisson relations (the classical-limit consistency check).
    """
    if gens is None:
        gens = build_classical(N, n)
    report = VerificationReport(context={"family": "classical", "N": N, "n": n})
    C = poisson_bracket(gens.A, gens.B)

    _timed(report, "poisson[H,A]", lambda: poisson_bracket(gens.H, gens.A))
    _timed(report, "poisson[H,B]", lambda: poisson_bracket(gens.H, gens.B))
    _timed(report, "poisson[H,J2]", lambda: poisson_bracket(gens.H, gens.J2))
    _timed(report, "poisson[H,K2]", lambda: poisson_bracket(gens.H, gens.K2))
    _timed(report, "poisson-central[A,J2]", lambda: poisson_bracket(gens.A, gens.J2))
    _timed(report, "poisson-central[A,K2]", lambda: poisson_bracket(gens.A, gens.K2))
    _timed(report, "poisson-central[B,J2]", lambda: poisson_bracket(gens.B, gens.J2))
    _timed(report, "poisson-central[B,K2]", lambda: poisson_bracket(gens.B, gens.K2))
    _timed(report, "poisson-central[J2,K2]", lambda: poisson_bracket(gens.J2, gens.K2))
    _timed(report, "poisson-quadratic[A,C]",
           lambda: poisson_bracket(gens.A, C) - poisson_ac_rhs(gens))
    _timed(report, "poisson-quadratic[B,C]",
           lambda: poisson_bracket(gens.B, C) - poisson_bc_rhs(gens))
    _timed(report, "poisson-casimir[K-vs-K1]",
           lambda: poisson_casimir(gens, C) - poisson_casimir_central(gens))
    _timed(report, "poisson-so[block1]",
           lambda: _poisson_so_residual(gens.J, gens.layout))
    _timed(report, "poisson-so[block2]",
           lambda: _poisson_so_residual(gens.K, gens.layout))

    consts = quantum_constants or QuadraticConstants.for_dims(N, n)
    _timed(report, "classical-limit[A,C]",
           lambda: _classical_limit_ac_residual(gens, consts))
    _timed(report, "classical-limit[B,C]",
           lambda: _classical_limit_bc_residual(gens, consts))
    return report.finalize()


def _classical_limit_ac_residual(g: ClassicalGenerators,
                                 consts: QuadraticConstants) -> PhaseFn:
    """Leading hbar^2 part of the quantum [A,C] relation vs the Poisson {A,C}.

    Under [.,.] -> i hbar {.,.} the double commutator [A, [A, B]] maps onto
    -hbar^2 {A, {A, B}}, so {A, C} must equal minus the hbar^2-coefficient of
    the quantum right side with {A,B} read as 2AB.
    """
    expected = -(
        (g.A * g.B).scaled(consts.ac_anti * 2)
        + (g.J2 * g.H).scaled(consts.ac_j2h)
        + (g.K2 * g.H).scaled(consts.ac_k2h)
        + g.H.scaled(_C1 * consts.ac_c1h + _C2 * consts.ac_c2h)
    )
    return poisson_ac_rhs(g) - expected


def _classical_limit_bc_residual(g: ClassicalGenerators,
                                 consts: QuadraticConstants) -> PhaseFn:
    ident = PhaseFn.scalar(g.layout, 1)
    expected = -(
        (g.B * g.B).scaled(consts.bc_b2)
        + (g.H * g.H).scaled(consts.bc_h2)
        + g.A.scaled(_W2 * consts.bc_a)
        + g.J2.scaled(_W2 * consts.bc_j2)
        + g.K2.scaled(_W2 * consts.bc_k2)
        + ident.scaled(_W2 * (_C1 + _C2) * consts.bc_c)
    )
    return poisson_bc_rhs(g) - expected
