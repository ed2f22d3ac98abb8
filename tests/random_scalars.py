"""Random elements of the parameter ring, for the randomized exact axiom checks."""

from __future__ import annotations

from fractions import Fraction

from singosc.opalg import ParamScalar


def random_scalar(rng, max_degree: int = 2, max_coeff: int = 9) -> ParamScalar:
    """Small random ring element."""
    terms: dict = {}
    for _ in range(rng.randrange(1, 5)):
        exps = tuple(rng.randrange(0, max_degree + 1) for _ in range(4))
        num = rng.randrange(-max_coeff, max_coeff + 1)
        den = rng.randrange(1, max_coeff + 1)
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    return ParamScalar(terms)
