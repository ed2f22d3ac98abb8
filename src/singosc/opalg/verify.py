"""Exact verification of the quadratic symmetry algebra and its Poisson analogue.

Both families hand one check table, ``_CHECKS``, to ``report.run_checks``; it
names each check for each family: commute/poisson, central/poisson-central,
quadratic/classical-limit, casimir[generators-vs-central]/poisson-casimir[K-vs-K1]
and so-rotations/poisson-so.  Every residual is one combination of words
(scale, f, g | None), added into one accumulator and reduced once by the
family's combiner, and a check passes when it is the exact zero operator (or
phase-space function).  The right sides are the graded words
(hbar_power, scale, f, g | None) of ``singosc.relations``, built over the
parameter symbols, with each name mapped to its generator or cached product.
Each verify call owns one derivative table, so every derivative is taken once
per call.

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

from functools import partial
from itertools import combinations

from .. import relations
from ..relations import QuadraticConstants
from .classical import PhaseFn, bracket_words, combine_phase, poisson_bracket
from .diffop import DiffOp, combine, commutator
from .generators import Generators, build_classical, build_quantum
from .poly import Derivatives
from ..report import VerificationReport, run_checks
from .scalars import ParamScalar

_W2 = ParamScalar.omega(2)
_C1 = ParamScalar.c1()
_C2 = ParamScalar.c2()
# +-hbar^power for the graded words, built once
_HBAR = {sign: tuple(ParamScalar.hbar(power, sign) for power in range(7)) for sign in (1, -1)}


class _ProductCache:
    """Memoizes the products used across several identities, quantum or classical,
    and holds the one derivative table of a verify call.

    The family follows the generators and is chosen here, once: ``bracket``,
    ``bracket_words`` and ``combine`` are the commutator, its two words and
    ``diffop.combine`` for operators, the Poisson bracket, its two words and
    ``combine_phase`` for phase-space functions.  C is bracket(A, B), and
    ``rotation`` is the scale s of bracket(L_ab, L_cd) = s (d_ac L_bd + ...):
    -hbar for the real-form operators, 1 for their classical limits.
    ``graded`` turns graded words into the family's words.  Nothing outlives
    the cache, so generators reused across verify calls gain nothing from an
    earlier call."""

    def __init__(self, gens: Generators):
        self.g = gens
        self.classical = isinstance(gens.H, PhaseFn)
        self.derivatives = derivatives = Derivatives()
        if self.classical:
            # poisson_bracket is looked up at each call, so a wrapped one sees them all
            self.bracket = lambda f, g: poisson_bracket(f, g, derivatives)
            self.bracket_words = bracket_words
            self.combine = lambda words: combine_phase(words, derivatives)
            one, self.rotation = PhaseFn.scalar(gens.layout, 1), 1
        else:
            self.bracket = lambda f, g: commutator(f, g, derivatives)
            self.bracket_words = lambda f, g: [(1, f, g), (-1, g, f)]
            self.combine = lambda words: combine(words, derivatives)
            one, self.rotation = DiffOp.identity(gens.layout), _HBAR[-1][1]
        self._cache = {name: getattr(gens, name) for name in ("A", "B", "H", "J2", "K2")}
        self._cache["1"] = one
        self._builders = {
            "C": lambda: self.bracket(gens.A, gens.B),
            "B2": lambda: self.combine([(1, gens.B, gens.B)]),
            "H2": lambda: self.combine([(1, gens.H, gens.H)]),
            "J2H": lambda: self.combine([(1, gens.J2, gens.H)]),
            "K2H": lambda: self.combine([(1, gens.K2, gens.H)]),
        }

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


# Each check below returns the residual of its check on ``key``, read at ``point``.

def _bracket_check(cache, consts, key, point):
    f, g = (cache.get(name) for name in key.split(","))
    return _at(cache.bracket(f, g), point)


def _quadratic_check(cache, consts, key, point):
    rhs = quadratic_ac_rhs if key == "A,C" else quadratic_bc_rhs
    return _at(quadratic_residual(cache, cache.get(key[0]), rhs(cache, consts)), point)


def _casimir_check(cache, consts, key, point):
    return _at(casimir_residual(cache), point)


def _so_residual(cache, consts, key, point):
    """First residual of bracket(L_ab, L_cd) = s (d_ac L_bd + d_bd L_ac
    - d_ad L_bc - d_bc L_ad), s = ``cache.rotation``, over the unordered pairs
    (a swap negates both sides, and bracket(L, L) = 0), that is nonzero at
    ``point``, or a zero one when every pair holds there.  Each pair is its
    bracket words and the L words scaled by -s, combined once; L_ba = -L_ab."""
    gens = getattr(cache.g, _BLOCKS[key])
    minus_s = {1: -cache.rotation, -1: cache.rotation}
    # a block of fewer than two generators has no pair: its residual is the empty sum
    residual = cache.combine([(0, cache.get("1"), None)])
    for (a, b), (c, d) in combinations(gens, 2):
        # two distinct pairs: no delta term is an L_xx
        words = cache.bracket_words(gens[(a, b)], gens[(c, d)]) + [
            (minus_s[sign if x < y else -sign], gens[min(x, y), max(x, y)], None)
            for sign, delta, x, y in ((1, a == c, b, d), (1, b == d, a, c),
                                      (-1, a == d, b, c), (-1, b == c, a, d)) if delta]
        residual = _at(cache.combine(words), point)
        if not residual.is_zero():
            return residual
    return residual


_BLOCKS = {"block1": "J", "block2": "K"}


def _so_detail(cache, key):
    if cache.classical:
        return ""
    count = len(getattr(cache.g, _BLOCKS[key]))
    return f"{count} generator{'' if count == 1 else 's'}"


# Every check of both families, in run order: its (quantum, Poisson) name, the
# keys it runs on (in brackets; None: the bare name), its residual and detail.
_CHECKS = (
    (("commute", "poisson"), ("H,A", "H,B", "H,J2", "H,K2"), _bracket_check, None),
    (("central", "poisson-central"), ("A,J2", "A,K2", "B,J2", "B,K2", "J2,K2"), _bracket_check,
     None),
    (("quadratic", "classical-limit"), ("A,C", "B,C"), _quadratic_check, None),
    (("casimir[generators-vs-central]", "poisson-casimir[K-vs-K1]"), (None,), _casimir_check,
     None),
    (("so-rotations", "poisson-so"), tuple(_BLOCKS), _so_residual, _so_detail),
)


def _verify(N: int, n: int, gens: Generators, consts: QuadraticConstants | None,
            casimir: bool = True, point: dict | None = None) -> VerificationReport:
    """Every check of ``_CHECKS`` in the family of ``gens``, run by ``run_checks``."""
    cache = _ProductCache(gens)
    consts = consts or QuadraticConstants.for_dims(N, n)
    family = cache.classical

    def check(residual_fn, key, detail):
        residual = residual_fn(cache, consts, key, point)
        return residual.is_zero(), residual.term_count(), detail(cache, key) if detail else ""

    return run_checks(
        {"family": ("quantum", "classical")[family], "N": N, "n": n},
        ((names[family] if key is None else f"{names[family]}[{key}]",
          partial(check, residual_fn, key, detail))
         for names, keys, residual_fn, detail in _CHECKS
         if casimir or residual_fn is not _casimir_check for key in keys))


def verify_q3(N: int, n: int, *, constants: QuadraticConstants | None = None,
              casimir: bool = True, substitutions: dict | None = None,
              gens: Generators | None = None) -> VerificationReport:
    """Exact check of the full quantum symmetry algebra for one (N, n) split.

    Each identity is proved symbolically, for all (hbar, omega, c1, c2).
    ``substitutions`` fixes some of them to exact rationals, and each report
    then reads its residual at that point: a check passes when the identity
    holds there, and ``residual_terms`` counts the terms left there.
    """
    return _verify(N, n, gens or build_quantum(N, n), constants, casimir, substitutions)


def verify_qp3(N: int, n: int, *, gens: Generators | None = None,
               quantum_constants: QuadraticConstants | None = None) -> VerificationReport:
    """Exact check of the quadratic Poisson algebra and its Casimir for (N, n).

    The Poisson relations are the leading hbar order of the quantum relation
    table, built from ``quantum_constants``, so each ``classical-limit`` check
    is both the Poisson relation and its agreement with the quantum one.
    """
    return _verify(N, n, gens or build_classical(N, n), quantum_constants)
