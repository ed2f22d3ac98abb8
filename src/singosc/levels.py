"""Total spectra with degeneracies: enumeration over radial and angular labels.

A level is fixed by (N1, N2, l_n, l_Nn); its energy depends only on
p = N1 + N2 and the two indicial exponents, so the p + 1 radial splits of p
are always degenerate, weighted by the two angular multiplicities.  At zero
coupling a one-coordinate block carries the parity labels l in {0, 1} with
the signed exponent l + (m-2)/2; at positive coupling only the regular
half-line sector is kept (and flagged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count as _count, takewhile

from .exact import exact_sqrt

MERGE_REL_TOL = 1e-9


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


def dim_harm_bruteforce(m: int, l: int) -> int:
    """Oracle: dimension of the kernel of the Laplacian on degree-l monomials.

    Exact rational Gaussian elimination; intended for small (m, l).
    """
    monos = _monomials(m, l)
    if l < 2:
        return len(monos)
    lower = {mono: idx for idx, mono in enumerate(_monomials(m, l - 2))}
    rows = []
    for mono in monos:
        row = [Fraction(0)] * len(lower)
        for i in range(m):
            if mono[i] >= 2:
                img = list(mono)
                img[i] -= 2
                row[lower[tuple(img)]] += mono[i] * (mono[i] - 1)
        rows.append(row)
    # rank by column elimination over Q
    rank = 0
    ncols = len(lower)
    pivots = []
    for col in range(ncols):
        pivot_row = None
        for ridx, row in enumerate(rows):
            if row[col] and ridx not in pivots:
                pivot_row = ridx
                break
        if pivot_row is None:
            continue
        pivots.append(pivot_row)
        rank += 1
        prow = rows[pivot_row]
        inv = 1 / prow[col]
        for ridx, row in enumerate(rows):
            if ridx != pivot_row and row[col]:
                factor = row[col] * inv
                for cdx in range(col, ncols):
                    row[cdx] -= factor * prow[cdx]
    return len(monos) - rank


def _monomials(m: int, degree: int) -> list[tuple[int, ...]]:
    if m == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in _monomials(m - 1, degree - first):
            out.append((first,) + rest)
    return out


def oscillator_level_count(N: int, l: int) -> int:
    """C(l + N - 1, N - 1), the count of N-tuples of quanta summing to l."""
    return math.comb(l + N - 1, N - 1)


def count_quanta_tuples(N: int, l: int) -> int:
    """Brute-force enumeration oracle for oscillator_level_count."""
    if N == 1:
        return 1
    total = 0
    for first in range(l + 1):
        total += count_quanta_tuples(N - 1, l - first)
    return total


# -- indicial exponents per block -----------------------------------------------


def block_alpha(m: int, l: int, c_reduced: Fraction) -> tuple[float, Fraction | None]:
    """(alpha as float, exact Fraction if available) for one block.

    At zero coupling the signed value l + (m-2)/2 is used, which selects the
    correct parity branch for one-coordinate blocks.
    """
    if c_reduced == 0:
        exact = Fraction(2 * l + m - 2, 2)
        return float(exact), exact
    alpha_sq = Fraction(2 * l + m - 2, 2) ** 2 + 2 * c_reduced
    exact = exact_sqrt(alpha_sq)
    if exact is not None:
        return float(exact), exact
    return math.sqrt(float(alpha_sq)), None


def block_labels(m: int, c_reduced: Fraction, l_limit: int):
    """Angular labels carried by a block: parity pair for m = 1 at c = 0,
    the flagged regular sector only for m = 1 at c > 0, all l otherwise."""
    if m == 1:
        return (0, 1) if c_reduced == 0 else (0,)
    return tuple(range(l_limit + 1))


# -- level table ------------------------------------------------------------------


@dataclass(frozen=True)
class Contributor:
    N1: int
    N2: int
    l_n: int
    l_Nn: int
    multiplicity: int


@dataclass(frozen=True)
class Level:
    energy: float
    energy_exact: Fraction | None
    degeneracy: int
    contributors: tuple[Contributor, ...]
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class LevelTable:
    N: int
    n: int
    c1: Fraction
    c2: Fraction
    hbar: Fraction
    omega: Fraction
    e_cut: float
    levels: tuple[Level, ...]

    def records(self) -> list[dict]:
        out = []
        for level in self.levels:
            seen = {}
            for contrib in level.contributors:
                key = (contrib.N1 + contrib.N2, contrib.l_n, contrib.l_Nn)
                seen[key] = seen.get(key, 0) + contrib.multiplicity
            for (p, l_n, l_nn), mult in sorted(seen.items()):
                rec = {
                    "energy_over_hw": level.energy / float(self.hbar * self.omega),
                    "p": p, "l_n": l_n, "l_Nn": l_nn,
                    "degeneracy": level.degeneracy,
                    "contributor_multiplicity": mult,
                }
                if level.flags:
                    rec["flags"] = ",".join(level.flags)
                out.append(rec)
        return out


def enumerate_levels(N: int, n: int, c1: Fraction | int = 0, c2: Fraction | int = 0,
                     e_cut: float = 10.0, hbar: Fraction = Fraction(1),
                     omega: Fraction = Fraction(1)) -> LevelTable:
    """All levels with E <= e_cut, grouped by energy with their degeneracies."""
    if not 1 <= n <= N - 1:
        raise ValueError(f"invalid split ({N}, {n})")
    c1, c2, hbar, omega = Fraction(c1), Fraction(c2), Fraction(hbar), Fraction(omega)
    if c1 < 0 or c2 < 0:
        raise ValueError("couplings must be non-negative")
    if hbar <= 0 or omega <= 0:
        raise ValueError("hbar and omega must be positive")
    h2 = hbar ** 2
    c1r, c2r = c1 / h2, c2 / h2
    hw = float(hbar * omega)
    m1_dim, m2_dim = n, N - n
    step = 2 * hbar * omega

    # angular label ranges large enough to pass e_cut
    l_limit = max(4, int(e_cut / hw) + 2)

    def past_cut(alpha_sum: float) -> bool:
        return 2.0 * hw * (1 + alpha_sum / 2.0) > e_cut + 1e-12

    def alphas(m: int, c_reduced: Fraction, other_low: float) -> dict:
        # alpha grows with l and float addition is monotone, so a block's labels
        # end at the first whose pair with the other block's label 0 is past the cut
        pairs = ((l, block_alpha(m, l, c_reduced)) for l in block_labels(m, c_reduced, l_limit))
        return dict(takewhile(lambda pair: not past_cut(pair[1][0] + other_low), pairs))

    alpha1 = alphas(m1_dim, c1r, block_alpha(m2_dim, 0, c2r)[0])
    alpha2 = alphas(m2_dim, c2r, block_alpha(m1_dim, 0, c1r)[0])

    entries: list[tuple[float, Fraction | None, Contributor]] = []
    flags = []
    if m1_dim == 1 and c1r > 0:
        flags.append("block1-half-line-regular-sector")
    if m2_dim == 1 and c2r > 0:
        flags.append("block2-half-line-regular-sector")

    for l1, (float1, exact1) in alpha1.items():
        for l2, (float2, exact2) in alpha2.items():
            if past_cut(float1 + float2):
                continue
            mult = dim_harm(m1_dim, l1) * dim_harm(m2_dim, l2)
            if mult == 0:
                continue
            # E = 2 hbar omega (p + 1 + (alpha1 + alpha2)/2) grows by 2 hbar omega per p
            exact = None
            if exact1 is not None and exact2 is not None:
                exact = step * (1 + (exact1 + exact2) / 2)
            for p in _count(0):
                value = 2.0 * hw * (p + 1 + (float1 + float2) / 2.0)
                if value > e_cut + 1e-12:
                    break
                for n1 in range(p + 1):
                    entries.append((value, exact, Contributor(
                        N1=n1, N2=p - n1, l_n=l1, l_Nn=l2, multiplicity=mult)))
                if exact is not None:
                    exact += step

    entries.sort(key=lambda e: (e[0], e[2].N1 + e[2].N2, e[2].l_n, e[2].l_Nn, e[2].N1))
    # one group of entries per level; each entry joins the group whose first
    # value lies within MERGE_REL_TOL of its own
    groups: list[list[tuple[float, Fraction | None, Contributor]]] = []
    for entry in entries:
        if groups and abs(entry[0] - groups[-1][0][0]) <= MERGE_REL_TOL * abs(entry[0]):
            groups[-1].append(entry)
        else:
            groups.append([entry])
    levels: list[Level] = []
    for group in groups:
        value, exact, _ = group[0]
        level_flags = tuple(flags)
        if len(group) > 1:
            merged_flags = set(flags)
            # an exact energy that differs from the first one's (or is missing
            # on one side only) marks a merge by floating-point closeness alone
            if any(other != exact for _, other, _ in group):
                merged_flags.add("accidental-merge")
                exact = None
            level_flags = tuple(sorted(merged_flags))
        levels.append(Level(energy=value, energy_exact=exact,
                            degeneracy=sum(c.multiplicity for _, _, c in group),
                            contributors=tuple(c for _, _, c in group),
                            flags=level_flags))
    return LevelTable(N=N, n=n, c1=c1, c2=c2, hbar=hbar, omega=omega,
                      e_cut=e_cut, levels=tuple(levels))


@dataclass(frozen=True)
class CountCheck:
    n: int
    l: int
    counted: int
    expected: int

    @property
    def passed(self) -> bool:
        return self.counted == self.expected


def oscillator_count_check(N: int, l_max: int) -> list[CountCheck]:
    """At c1 = c2 = 0: per-level counts must match the isotropic oscillator.

    For every partition n and every l <= l_max, the contributions of all
    (N1, N2, l_n, l_Nn) with 2(N1 + N2) + l_n + l_Nn = l must add up to
    C(l + N - 1, N - 1).
    """
    out = []
    for n in range(1, N):
        dims = (n, N - n)
        for l in range(l_max + 1):
            total = 0
            labels1 = block_labels(dims[0], Fraction(0), l)
            labels2 = block_labels(dims[1], Fraction(0), l)
            for l1 in labels1:
                for l2 in labels2:
                    rem = l - l1 - l2
                    if rem < 0 or rem % 2:
                        continue
                    p = rem // 2
                    total += (p + 1) * dim_harm(dims[0], l1) * dim_harm(dims[1], l2)
            out.append(CountCheck(n=n, l=l, counted=total,
                                  expected=oscillator_level_count(N, l)))
    return out
