"""Exact verification of the quadratic symmetry algebra and its Poisson analogue.

Every check subtracts a closed-form right-hand side from an engine-computed
left-hand side and asserts that the difference is the exact zero operator
(or phase-space function).  Each quadratic relation and each side of the
Casimir is written once, as graded words (hbar_power, scale, f, g | None) for
hbar^power * scale * f g; ``combine`` and ``combine_phase`` add every word's
product into one accumulator and reduce once.  Each verify call owns one
derivative table, so every derivative is taken once per call.

The Poisson relations are the leading order of the quantum ones under
[.,.] -> i hbar {.,.}.  The quantum C = [A, B] is i hbar times the classical
C = {A, B}, so a word with k factors C is of order hbar^(power + k), and each
relation starts at order hbar^2.  Its classical form keeps the words of that
order with scale i^k/(-1) times theirs (-scale for k = 0, +scale for k = 2),
drops the higher orders, and rejects a lower one.  Classically AB = BA, so
{A, B} becomes 2AB.  The structure constants live in small dataclasses so
that mutation tests can knock any single one off by a unit and watch the
corresponding check fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .classical import PhaseFn, bracket_words, combine_phase, poisson_bracket
from .diffop import DiffOp, combine, commutator
from .generators import Generators, build_classical, build_quantum
from .poly import Derivatives
from .report import CheckResult, VerificationReport
from .scalars import ParamScalar

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

    The family follows the generators: ``bracket``, ``bracket_words`` and
    ``combine`` are the commutator and ``diffop.combine`` for operators, the
    Poisson bracket and ``combine_phase`` for phase-space functions, and C is
    bracket(A, B).  ``graded`` turns graded words into the family's words.
    Nothing outlives the cache, so generators reused across verify calls gain
    nothing from an earlier call."""

    def __init__(self, gens: Generators):
        self.g = gens
        self.classical = isinstance(gens.H, PhaseFn)
        self.derivatives = Derivatives()
        self._cache: dict = {}
        self._builders = {
            "1": lambda: (PhaseFn.scalar(gens.layout, 1) if self.classical
                          else DiffOp.identity(gens.layout)),
            "C": lambda: self.bracket(gens.A, gens.B),
            "B2": lambda: self.product(gens.B, gens.B),
            "H2": lambda: self.product(gens.H, gens.H),
            "J2H": lambda: self.product(gens.J2, gens.H),
            "K2H": lambda: self.product(gens.K2, gens.H),
        }

    def bracket(self, f, g):
        if self.classical:
            return poisson_bracket(f, g, self.derivatives)
        return commutator(f, g, self.derivatives)

    def bracket_words(self, f, g) -> list:
        if self.classical:
            return bracket_words(f, g, self.derivatives)
        return [(1, f, g), (-1, g, f)]

    def combine(self, words: list):
        if self.classical:
            return combine_phase(words)
        return combine(words, self.derivatives)

    def product(self, f, g):
        if self.classical:
            return f * g
        return self.combine([(1, f, g)])

    def get(self, name: str):
        value = self._cache.get(name)
        if value is None:
            value = self._cache[name] = self._builders[name]()
        return value

    def graded(self, words: list) -> list:
        """Words (scale, f, g) of the family from graded words: hbar^power folded
        into each quantum scale, or the classical leading order."""
        if not self.classical:
            return [(ParamScalar.hbar(power) * scale, f, g)
                    for power, scale, f, g in words]
        C = self.get("C")
        leading = []
        for power, scale, f, g in words:
            k = (f is C) + (g is C)
            if power + k < 2 or k == 1:
                raise ValueError(f"hbar^{power} word with {k} factors C: below the "
                                 "leading order hbar^2, or imaginary there")
            if power + k == 2:
                leading.append((scale if k else -scale, f, g))
        return leading


def quadratic_ac_rhs(cache: _ProductCache, consts: QuadraticConstants) -> list:
    """Graded words of the right side of [A, C]; {A, B} is the two words A B and B A."""
    g = cache.g
    return [
        (2, consts.ac_anti, g.A, g.B),
        (2, consts.ac_anti, g.B, g.A),
        (2, consts.ac_j2h, cache.get("J2H"), None),
        (2, consts.ac_k2h, cache.get("K2H"), None),
        (2, _C1 * consts.ac_c1h + _C2 * consts.ac_c2h, g.H, None),
        (4, consts.ac_h4h, g.H, None),
        (4, consts.ac_b, g.B, None),
    ]


def quadratic_bc_rhs(cache: _ProductCache, consts: QuadraticConstants) -> list:
    """Graded words of the right side of [B, C]."""
    g = cache.g
    return [
        (2, consts.bc_b2, cache.get("B2"), None),
        (2, consts.bc_h2, cache.get("H2"), None),
        (2, _W2 * consts.bc_a, g.A, None),
        (2, _W2 * consts.bc_j2, g.J2, None),
        (2, _W2 * consts.bc_k2, g.K2, None),
        (2, _W2 * (_C1 + _C2) * consts.bc_c, cache.get("1"), None),
        (4, _W2 * consts.bc_h4, cache.get("1"), None),
    ]


def casimir_generator_terms(cache: _ProductCache) -> list:
    """Graded words of the cubic Casimir built from A, B, C and the central
    elements; right None stands for the identity."""
    g = cache.g
    N, n = g.N, g.n
    B2 = cache.get("B2")
    return [
        (0, 1, cache.get("C"), cache.get("C")),
        (2, -2, g.A, B2),
        (2, -2, B2, g.A),
        (4, Fraction(16 - N * (N - 4), 4), B2, None),
        (2, 2, cache.get("J2H"), g.B),
        (2, -2, cache.get("K2H"), g.B),
        (2, _C1 * 4 - _C2 * 4, g.H, g.B),
        (4, Fraction(-(N - 4) * (N - 2 * n), 2), g.H, g.B),
        (2, _W2 * -16, g.A, g.A),
        (2, _W2 * (_C1 + _C2) * 16, g.A, None),
        (4, _W2 * Fraction(-4 * n * (N - n)), g.A, None),
        (2, _W2 * 8, g.J2, g.A),
        (2, _W2 * 8, g.K2, g.A),
        (2, 4, cache.get("H2"), g.A),
    ]


def casimir_central_terms(cache: _ProductCache) -> list:
    """Graded words of the same Casimir expressed through H, J2, K2 alone."""
    g = cache.g
    N, n = g.N, g.n
    one = cache.get("1")
    return [
        (2, 2, cache.get("J2H"), g.H),
        (2, 2, cache.get("K2H"), g.H),
        (2, (_C1 + _C2) * 4, cache.get("H2"), None),
        (4, Fraction(-(4 * (N - 4) - (N - 2 * n) ** 2), 4), cache.get("H2"), None),
        (2, _W2, g.J2, g.J2),
        (2, _W2, g.K2, g.K2),
        (2, _W2 * -2, g.J2, g.K2),
        (2, _W2 * (_C1 - _C2) * 4, g.J2, None),
        (4, _W2 * Fraction(-(N - 4) * (N - n)), g.J2, None),
        (2, _W2 * (_C1 - _C2) * -4, g.K2, None),
        (4, _W2 * Fraction(-n * (N - 4)), g.K2, None),
        (2, _W2 * (_C1 - _C2) * (_C1 - _C2) * 4, one, None),
        (4, _W2 * (_C1 * Fraction(-2 * (N - n) * (N - 4))
                   + _C2 * Fraction(-2 * n * (N - 4))), one, None),
        (6, _W2 * Fraction(n * (N - n) * (N - 4)), one, None),
    ]


def casimir_residual(cache: _ProductCache):
    """Generator-built Casimir minus its central-element form, in one pass."""
    return cache.combine(cache.graded(casimir_generator_terms(cache)
                                      + _negated(casimir_central_terms(cache))))


def quadratic_residual(cache: _ProductCache, X, rhs_words: list):
    """[X, C] minus its right side, or {X, C} minus the leading order of it, in
    one pass."""
    return cache.combine(cache.bracket_words(X, cache.get("C"))
                         + cache.graded(_negated(rhs_words)))


def _negated(words: list) -> list:
    return [(power, -scale, f, g) for power, scale, f, g in words]


def _at(residual, point: dict | None):
    """``residual`` read at ``point``: substitution is a ring map and the normal
    form is unique, so the read-out vanishes exactly when the identity holds there."""
    return residual.substitute_params(point) if point else residual


def _timed(report: VerificationReport, name: str, residual_fn, detail: str = "",
           point: dict | None = None) -> None:
    start = time.perf_counter()
    residual = _at(residual_fn(), point)
    elapsed = time.perf_counter() - start
    report.add(CheckResult(name=name, passed=residual.is_zero(),
                           residual_terms=residual.term_count(),
                           wall_time=elapsed, detail=detail))


def _vanishing_checks(report: VerificationReport, gens, bracket, families,
                      point: dict | None = None) -> None:
    """H commutes with everything, and J2, K2 are central: each bracket is zero."""
    for pair in ("H,A", "H,B", "H,J2", "H,K2", "A,J2", "A,K2", "B,J2", "B,K2", "J2,K2"):
        f, g = (getattr(gens, name) for name in pair.split(","))
        family = families[0] if pair.startswith("H,") else families[1]
        _timed(report, f"{family}[{pair}]", lambda: bracket(f, g), point=point)


def _so_residual(gens: dict, bracket, zero, scale, point: dict | None = None):
    """First residual of bracket(L_ab, L_cd) = scale (d_ac L_bd + d_bd L_ac
    - d_ad L_bc - d_bc L_ad) that is nonzero at ``point``, or ``zero`` when
    every pair holds there.

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
            residual = _at(bracket(gens[(a, b)], gens[(c, d)]) - rhs.scaled(scale),
                           point)
            if not residual.is_zero():
                return residual
    return zero


def verify_q3(N: int, n: int, *, constants: QuadraticConstants | None = None,
              casimir: bool = True, substitutions: dict | None = None,
              gens: Generators | None = None) -> VerificationReport:
    """Exact check of the full quantum symmetry algebra for one (N, n) split.

    Each identity is proved symbolically, for all (hbar, omega, c1, c2).
    ``substitutions`` fixes some of them to exact rationals, and each report
    then reads its residual at that point: a check passes when the identity
    holds there, and ``residual_terms`` counts the terms left there.
    """
    if gens is None:
        gens = build_quantum(N, n)
    consts = constants or QuadraticConstants.for_dims(N, n)
    cache = _ProductCache(gens)
    report = VerificationReport(context={"family": "quantum", "N": N, "n": n})

    _vanishing_checks(report, gens, cache.bracket, ("commute", "central"),
                      substitutions)
    _timed(report, "quadratic[A,C]", lambda: quadratic_residual(
        cache, gens.A, quadratic_ac_rhs(cache, consts)), point=substitutions)
    _timed(report, "quadratic[B,C]", lambda: quadratic_residual(
        cache, gens.B, quadratic_bc_rhs(cache, consts)), point=substitutions)
    if casimir:
        _timed(report, "casimir[generators-vs-central]", lambda: casimir_residual(cache),
               point=substitutions)
    minus_hbar = ParamScalar.hbar(1, -1)
    zero = DiffOp.zero(gens.layout)
    _timed(report, "so-rotations[block1]",
           lambda: _so_residual(gens.J, cache.bracket, zero, minus_hbar, substitutions),
           detail=f"{len(gens.J)} generators")
    _timed(report, "so-rotations[block2]",
           lambda: _so_residual(gens.K, cache.bracket, zero, minus_hbar, substitutions),
           detail=f"{len(gens.K)} generators")
    return report.finalize()


def verify_qp3(N: int, n: int, *, gens: Generators | None = None,
               quantum_constants: QuadraticConstants | None = None) -> VerificationReport:
    """Exact check of the quadratic Poisson algebra and its Casimir for (N, n).

    The Poisson relations are the leading hbar order of the quantum relation
    table, built from ``quantum_constants``, so each ``classical-limit`` check
    is both the Poisson relation and its agreement with the quantum one.
    """
    if gens is None:
        gens = build_classical(N, n)
    consts = quantum_constants or QuadraticConstants.for_dims(N, n)
    report = VerificationReport(context={"family": "classical", "N": N, "n": n})
    cache = _ProductCache(gens)

    _vanishing_checks(report, gens, cache.bracket, ("poisson", "poisson-central"))
    _timed(report, "poisson-casimir[K-vs-K1]", lambda: casimir_residual(cache))
    zero = PhaseFn.zero(gens.layout)
    _timed(report, "poisson-so[block1]",
           lambda: _so_residual(gens.J, cache.bracket, zero, 1))
    _timed(report, "poisson-so[block2]",
           lambda: _so_residual(gens.K, cache.bracket, zero, 1))
    _timed(report, "classical-limit[A,C]", lambda: quadratic_residual(
        cache, gens.A, quadratic_ac_rhs(cache, consts)))
    _timed(report, "classical-limit[B,C]", lambda: quadratic_residual(
        cache, gens.B, quadratic_bc_rhs(cache, consts)))
    return report.finalize()
