"""Exact verification of the quadratic symmetry algebra and its Poisson analogue.

Every check subtracts a closed-form right-hand side from an engine-computed
left-hand side and asserts that the difference is the exact zero operator
(or phase-space function).  The right sides are the graded words
(hbar_power, scale, f, g | None) of ``singosc.relations``, built over the
parameter symbols, with each name mapped to its generator or cached product;
``combine`` and ``combine_phase`` add every word's product into one
accumulator and reduce once.  Each verify call owns one derivative table, so
every derivative is taken once per call.

The Poisson relations are the leading order of the quantum ones under
[.,.] -> i hbar {.,.}.  The quantum C = [A, B] is i hbar times the classical
C = {A, B}, so a word with k factors C is of order hbar^(power + k), and each
relation starts at order hbar^2.  Its classical form keeps the words of that
order with scale i^k/(-1) times theirs (-scale for k = 0, +scale for k = 2),
drops the higher orders, and rejects a lower one.  Classically AB = BA, so
{A, B} becomes 2AB.  The ``constants`` and ``quantum_constants`` keywords
replace the ``QuadraticConstants`` of both quadratic relations, so that
mutation tests can knock any single one off by a unit.
"""

from __future__ import annotations

import time

from .. import relations
from ..relations import QuadraticConstants
from .classical import PhaseFn, bracket_words, combine_phase, poisson_bracket
from .diffop import DiffOp, combine, commutator
from .generators import Generators, build_classical, build_quantum
from .poly import Derivatives
from .report import CheckResult, VerificationReport
from .scalars import ParamScalar

_W2 = ParamScalar.omega(2)
_C1 = ParamScalar.c1()
_C2 = ParamScalar.c2()
# +-hbar^power for the graded words, built once
_HBAR = {sign: tuple(ParamScalar.hbar(power, sign) for power in range(7)) for sign in (1, -1)}


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
        self._cache = {name: getattr(gens, name) for name in ("A", "B", "H", "J2", "K2")}
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

    def resolved(self, words: list) -> list:
        """``words`` over names, each name replaced by its generator or product."""
        return [(power, scale, self.get(f), g and self.get(g)) for power, scale, f, g in words]

    def graded(self, words: list, sign: int = 1) -> list:
        """Words (scale, f, g) of the family from graded words times ``sign``:
        hbar^power folded into each quantum scale, or the classical leading order."""
        if not self.classical:
            return [(_HBAR[sign][power] * scale, f, g) for power, scale, f, g in words]
        C = self.get("C")
        leading = []
        for power, scale, f, g in words:
            k = (f is C) + (g is C)
            if power + k < 2 or k == 1:
                raise ValueError(f"hbar^{power} word with {k} factors C: below the "
                                 "leading order hbar^2, or imaginary there")
            if power + k == 2:
                leading.append((scale if (k == 0) == (sign < 0) else -scale, f, g))
        return leading


def quadratic_ac_rhs(cache: _ProductCache, consts: QuadraticConstants) -> list:
    """Graded words of the right side of [A, C]."""
    return cache.resolved(relations.quadratic_ac_words(consts, _C1, _C2, _W2))


def quadratic_bc_rhs(cache: _ProductCache, consts: QuadraticConstants) -> list:
    """Graded words of the right side of [B, C]."""
    return cache.resolved(relations.quadratic_bc_words(consts, _C1, _C2, _W2))


def casimir_generator_terms(cache: _ProductCache) -> list:
    """Graded words of the Casimir in A, B and C, from ``QuadraticConstants.for_dims``."""
    return cache.resolved(relations.casimir_generator_words(cache.g.N, cache.g.n, _C1, _C2, _W2))


def casimir_central_terms(cache: _ProductCache) -> list:
    """Graded words of the same Casimir in H, J2 and K2."""
    return cache.resolved(relations.casimir_central_words(cache.g.N, cache.g.n, _C1, _C2, _W2))


def casimir_residual(cache: _ProductCache):
    """Generator-built Casimir minus its central-element form, in one pass."""
    return cache.combine(cache.graded(casimir_generator_terms(cache))
                         + cache.graded(casimir_central_terms(cache), -1))


def quadratic_residual(cache: _ProductCache, X, rhs_words: list):
    """[X, C] minus its right side, or {X, C} minus the leading order of it, in
    one pass."""
    return cache.combine(cache.bracket_words(X, cache.get("C"))
                         + cache.graded(rhs_words, -1))


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
