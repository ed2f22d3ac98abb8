"""Total spectra with degeneracies: enumeration over radial and angular labels.

A level's energy depends only on p = N1 + N2 and the two indicial exponents,
so a level stores one entry per (p, l_n, l_Nn): the p + 1 radial splits of p
are always degenerate, each weighted by the two angular multiplicities.  At zero
coupling a one-coordinate block carries the parity labels l in {0, 1} with
the signed exponent l + (m-2)/2; at positive coupling only the regular
half-line sector is kept (and flagged).  Levels are grouped by exact energy,
and the table is cut exactly at e_cut: equal energies are found by comparing
the rational and square-root parts of the exponents, never by a float
tolerance.  Each level's exact energy is an ``exact.Biquadratic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import count

from .exact import Biquadratic, sqrt_sum_floor


def dim_harm(m: int, l: int) -> int:
    """Dimension of the degree-l harmonic polynomials in m variables."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if l < 0:
        raise ValueError("l must be non-negative")
    if m == 1:
        return 1 if l in (0, 1) else 0
    if m == 2:
        return 1 if l == 0 else 2
    return ((2 * l + m - 2) * math.factorial(l + m - 3)
            // (math.factorial(l) * math.factorial(m - 2)))


# -- indicial exponents per block -----------------------------------------------


def block_labels(m: int, c_reduced: Fraction):
    """Angular labels carried by a block, in increasing alpha: parity pair for
    m = 1 at c = 0, the flagged regular sector only for m = 1 at c > 0, all l
    otherwise."""
    if m == 1:
        return (0, 1) if c_reduced == 0 else (0,)
    return count(0)


# -- level table ------------------------------------------------------------------


@dataclass(frozen=True)
class Contributor:
    N1: int
    N2: int
    l_n: int
    l_Nn: int
    multiplicity: int


@dataclass(frozen=True, init=False)
class Level:
    energy: float
    degeneracy: int
    labels: tuple[tuple[int, int, int, int], ...]
    flags: tuple[str, ...] = ()

    def __init__(self, energy: float, degeneracy: int,
                 labels: tuple[tuple[int, int, int, int], ...], flags: tuple[str, ...], key):
        # The generated frozen __init__ sets each field by object.__setattr__;
        # filling the instance dict gives the same instance for less, and
        # enumerate_levels builds one per level.
        attrs = self.__dict__
        attrs["energy"], attrs["degeneracy"] = energy, degeneracy
        attrs["labels"], attrs["flags"], attrs["_key"] = labels, flags, key

    @cached_property
    def energy_exact(self) -> Biquadratic:
        """hbar omega (rational + sum of b / sqrt(R)) / D, from the key
        ((the (R, b) pairs, rational), D, hbar omega) that the level was grouped by."""
        (irrational, rational), D, hw = self._key
        roots = [R for R, _ in irrational]
        product = math.prod(roots)
        num = (rational * product, *(b * (product // R) for R, b in irrational), 0, 0, 0)
        return Biquadratic(num[:4], D * product, (*roots, 0, 0)[:2]) * hw

    @property
    def contributors(self) -> tuple[Contributor, ...]:
        """Each (p, l_n, l_Nn, multiplicity per split) label as its p + 1 splits."""
        return tuple(Contributor(N1=n1, N2=p - n1, l_n=l_n, l_Nn=l_nn, multiplicity=mult)
                     for p, l_n, l_nn, mult in self.labels for n1 in range(p + 1))


@dataclass(frozen=True)
class LevelTable:
    N: int
    n: int
    c1: Fraction
    c2: Fraction
    hbar: Fraction
    omega: Fraction
    e_cut: Fraction | float
    levels: tuple[Level, ...]

    def records(self) -> list[dict]:
        """One record per (level, p, l_n, l_Nn).  ``level`` is the level's
        0-based position in the table, so two levels whose float energies
        print alike stay apart."""
        out = []
        for index, level in enumerate(self.levels):
            for p, l_n, l_nn, mult in sorted(level.labels):
                rec = {
                    "level": index,
                    "energy_over_hw": level.energy / float(self.hbar * self.omega),
                    "p": p, "l_n": l_n, "l_Nn": l_nn,
                    "degeneracy": level.degeneracy,
                    "contributor_multiplicity": (p + 1) * mult,
                }
                if level.flags:
                    rec["flags"] = ",".join(level.flags)
                out.append(rec)
        return out


# The largest e_cut, in units of hbar omega, that enumerate_levels accepts.
# The table grows as (e_cut / hbar omega)^3: at (4,2) with c1 = c2 = 0 it holds
# 22,352 label entries over 63 levels at this limit (`levels` takes 0.5 s and
# 31 MB on a 2-CPU x86-64 VM), and would hold about 10^8 at 1000 hbar omega.
E_CUT_LIMIT = 64


def _short(x: Fraction | float) -> str:
    """x as it prints when that is short, else to three significant digits:
    an e_cut of 1e400 reads 1.00E+400, not as its 401 digits."""
    text = str(x)
    if len(text) <= 24:
        return text
    from decimal import Context
    x = Fraction(x)
    return str(Context(prec=3).divide(x.numerator, x.denominator))


def enumerate_levels(N: int, n: int, c1: Fraction | int = 0, c2: Fraction | int = 0,
                     e_cut: Fraction | float = 10.0, hbar: Fraction = Fraction(1),
                     omega: Fraction = Fraction(1)) -> LevelTable:
    """All levels with E <= e_cut, grouped by exact energy with their degeneracies.

    A float e_cut counts at its exact binary value.  An e_cut above
    ``E_CUT_LIMIT`` hbar omega raises ``ValueError`` before anything is
    enumerated."""
    if not 1 <= n <= N - 1:
        raise ValueError(f"invalid split ({N}, {n})")
    c1, c2, hbar, omega = Fraction(c1), Fraction(c2), Fraction(hbar), Fraction(omega)
    if c1 < 0 or c2 < 0:
        raise ValueError("couplings must be non-negative")
    if hbar <= 0 or omega <= 0:
        raise ValueError("hbar and omega must be positive")
    if e_cut > E_CUT_LIMIT * hbar * omega:
        raise ValueError(f"e_cut {_short(e_cut)} is above {E_CUT_LIMIT} hbar omega = "
                         f"{E_CUT_LIMIT * hbar * omega}; the level table grows as "
                         "(e_cut / hbar omega)^3")
    blocks = ((n, c1 / hbar ** 2), (N - n, c2 / hbar ** 2))
    hw = hbar * omega
    two_hw = 2.0 * float(hw)
    cut = Fraction(e_cut) / hw
    xn, xd = cut.numerator, cut.denominator
    # E / (hbar omega) = 2 p + 2 + alpha1 + alpha2, and each alpha is
    # (a + b / sqrt(R)) / D: a and b ints over one denominator D for the table,
    # R the radicand of the first alpha met in its square class (R = 1 and
    # b = 0 for a rational alpha).  Square roots of radicands in distinct
    # classes are linearly independent over Q (Besicovitch 1940), so two
    # energies are equal exactly when their rational and irrational parts are.
    D = math.lcm(4, *(c.denominator for _, c in blocks))
    classes: list[int] = []

    @cache
    def alpha(block: int, l: int) -> tuple[float, int, int, int]:
        """(float alpha, a, b, R) of a block label.  At zero coupling alpha is
        the signed l + (m-2)/2, which selects the parity branch of a
        one-coordinate block; else alpha^2 = (l + (m-2)/2)^2 + 2 c / hbar^2."""
        m, c_reduced = blocks[block]
        a = (2 * l + m - 2) * D // 2
        if c_reduced == 0:
            return a / D, a, 0, 1
        square = a * a + 2 * c_reduced.numerator * (D // c_reduced.denominator) * D
        root = math.isqrt(square)
        if root * root == square:
            return root / D, root, 0, 1
        # sqrt(square) = s / sqrt(R) where square * R = s^2
        R = next((R for R in classes if math.isqrt(square * R) ** 2 == square * R), None)
        if R is None:
            classes.append(R := square)
        return math.sqrt(square / (D * D)), 0, math.isqrt(square * R), R

    # one entry per (l1, l2, p), in the table's order; alpha grows with l, so a
    # label's pairs end at the first past the cut, and the labels of block 1
    # at the first whose pair with l2 = 0 is
    entries = []
    for l1 in block_labels(*blocks[0]):
        f1, a1, b1, R1 = alpha(0, l1)
        dim1 = dim_harm(blocks[0][0], l1)
        for l2 in block_labels(*blocks[1]):
            f2, a2, b2, R2 = alpha(1, l2)
            rational = 2 * D + a1 + a2
            # floor((cut - (rational + b1 / sqrt(R1) + b2 / sqrt(R2)) / D) / 2)
            top = sqrt_sum_floor(((xn * D - xd * rational) * R1 * R2, -xd * b1 * R2,
                                  -xd * b2 * R1, 0), 2 * xd * D * R1 * R2, (R1, R2))
            if top < 0:
                break
            irrational = _irrational_part(b1, R1, b2, R2)
            mult = dim1 * dim_harm(blocks[1][0], l2)
            half = (f1 + f2) / 2.0
            for p in range(top + 1):
                entries.append((two_hw * (p + 1 + half), p, l1, l2, mult,
                                (irrational, rational + 2 * p * D)))
        if l2 == 0 and top < 0:
            break
    entries.sort()

    # one level per exact energy, at the float of its first entry
    levels: dict[tuple, tuple[float, list[tuple[int, int, int, int]]]] = {}
    for value, p, l1, l2, mult, key in entries:
        levels.setdefault(key, (value, []))[1].append((p, l1, l2, mult))
    flags = tuple(f"block{i}-half-line-regular-sector"
                  for i, (m, c_reduced) in enumerate(blocks, 1) if m == 1 and c_reduced > 0)
    return LevelTable(N=N, n=n, c1=c1, c2=c2, hbar=hbar, omega=omega, e_cut=e_cut, levels=tuple(
        Level(value, sum((p + 1) * mult for p, _, _, mult in labels), tuple(labels), flags,
              (key, D, hw))
        for key, (value, labels) in levels.items()))


def _irrational_part(b1: int, R1: int, b2: int, R2: int) -> tuple[tuple[int, int], ...]:
    """b1 / sqrt(R1) + b2 / sqrt(R2) as (R, b) pairs with b != 0, sorted by R."""
    if R1 == R2:
        return ((R1, b1 + b2),) if b1 + b2 else ()
    return tuple(sorted((R, b) for R, b in ((R1, b1), (R2, b2)) if b))
