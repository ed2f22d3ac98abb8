"""The relation constants of Q(3), written once for the proof and the spectrum.

Each quadratic relation and each side of the Casimir is a list of graded words
(k, s, f, g) for hbar^k s f g: s is free of hbar and built from the arguments
(c1, c2, w2 = omega^2), and f, g name A, B, C = [A, B], the central H, J2, K2
and 1, or the products B2 = B B, H2 = H H, J2H = J2 H and K2H = K2 H (g None
is the identity).  ``opalg.verify`` passes parameter symbols and proves the
relations; ``qalg`` passes Fractions and evaluates the words on a unirrep.

The algebra has Daskaloyannis's form with no A^2 term (C. Daskaloyannis,
J. Math. Phys. 42 (2001) 1100), [A, C] = gamma {A, B} + eps B + zeta and
[B, C] = -gamma' B^2 + z A + eta with zeta and eta central, so the generator
side of his Casimir K = C^2 - gamma {A, B^2} + (gamma^2 - eps) B^2 - 2 zeta B
+ z A^2 + 2 eta A has no constants of its own.  This module imports no engine
code.
"""

from fractions import Fraction
from functools import cache
from typing import NamedTuple


class QuadraticConstants(NamedTuple):
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
    @cache
    def for_dims(cls, N: int, n: int) -> "QuadraticConstants":
        """The constants of the split (N, n), built once per split: a tuple is immutable."""
        return cls(ac_anti=Fraction(2), ac_j2h=Fraction(-1), ac_k2h=Fraction(1),
                   ac_c1h=Fraction(-2), ac_c2h=Fraction(2),
                   ac_h4h=Fraction((N - 4) * (N - 2 * n), 4), ac_b=Fraction(N * (N - 4), 4),
                   bc_b2=Fraction(-2), bc_h2=Fraction(2), bc_a=Fraction(-16),
                   bc_j2=Fraction(4), bc_k2=Fraction(4), bc_c=Fraction(8),
                   bc_h4=Fraction(-2 * n * (N - n)))

    def bumped(self, field_name: str, amount: int = 1) -> "QuadraticConstants":
        """Copy with one structure constant perturbed by a unit."""
        return self._replace(**{field_name: getattr(self, field_name) + amount})


MUTABLE_CONSTANTS = QuadraticConstants._fields


def _zeta(consts: QuadraticConstants, c1, c2) -> list:
    """Graded words of zeta, the central part of [A, C]."""
    return [(2, consts.ac_j2h, "J2H", None), (2, consts.ac_k2h, "K2H", None),
            (2, c1 * consts.ac_c1h + c2 * consts.ac_c2h, "H", None),
            (4, consts.ac_h4h, "H", None)]


def _eta(consts: QuadraticConstants, c1, c2, w2) -> list:
    """Graded words of eta, the central part of [B, C]."""
    return [(2, consts.bc_h2, "H2", None), (2, w2 * consts.bc_j2, "J2", None),
            (2, w2 * consts.bc_k2, "K2", None), (2, w2 * (c1 + c2) * consts.bc_c, "1", None),
            (4, w2 * consts.bc_h4, "1", None)]


def quadratic_ac_words(consts: QuadraticConstants, c1, c2, w2) -> list:
    """The right side of [A, C]; {A, B} is the two words A B and B A."""
    return [(2, consts.ac_anti, "A", "B"), (2, consts.ac_anti, "B", "A"),
            *_zeta(consts, c1, c2), (4, consts.ac_b, "B", None)]


def quadratic_bc_words(consts: QuadraticConstants, c1, c2, w2) -> list:
    """The right side of [B, C]."""
    return [(2, consts.bc_b2, "B2", None), (2, w2 * consts.bc_a, "A", None),
            *_eta(consts, c1, c2, w2)]


def _times(factor: int, words: list, name: str) -> list:
    """factor * (the sum of central ``words``) * ``name``."""
    return [(power, factor * scale, name, None) if f == "1" else
            (power, factor * scale, f, name) for power, scale, f, _ in words]


def casimir_generator_words(N: int, n: int, c1, c2, w2) -> list:
    """Daskaloyannis's Casimir K in A, B and C, from ``QuadraticConstants.for_dims``:
    gamma = hbar^2 ac_anti, eps = hbar^4 ac_b and z = hbar^2 w2 bc_a."""
    consts = QuadraticConstants.for_dims(N, n)
    return [(0, 1, "C", "C"), (2, -consts.ac_anti, "A", "B2"), (2, -consts.ac_anti, "B2", "A"),
            (4, consts.ac_anti ** 2 - consts.ac_b, "B2", None),
            *_times(-2, _zeta(consts, c1, c2), "B"), (2, w2 * consts.bc_a, "A", "A"),
            *_times(2, _eta(consts, c1, c2, w2), "A")]


def casimir_central_words(N: int, n: int, c1, c2, w2) -> list:
    """The same Casimir as a polynomial in the central elements H, J2 and K2."""
    return [(2, 2, "J2H", "H"), (2, 2, "K2H", "H"), (2, (c1 + c2) * 4, "H2", None),
            (4, Fraction(-(4 * (N - 4) - (N - 2 * n) ** 2), 4), "H2", None),
            (2, w2, "J2", "J2"), (2, w2, "K2", "K2"), (2, w2 * -2, "J2", "K2"),
            (2, w2 * (c1 - c2) * 4, "J2", None),
            (4, w2 * Fraction(-(N - 4) * (N - n)), "J2", None),
            (2, w2 * (c1 - c2) * -4, "K2", None), (4, w2 * Fraction(-n * (N - 4)), "K2", None),
            (2, w2 * (c1 - c2) * (c1 - c2) * 4, "1", None),
            (4, w2 * (c1 * Fraction(-2 * (N - n) * (N - 4))
                      + c2 * Fraction(-2 * n * (N - 4))), "1", None),
            (6, w2 * Fraction(n * (N - n) * (N - 4)), "1", None)]
