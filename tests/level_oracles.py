"""Brute-force oracles for the degeneracy bookkeeping in ``singosc.levels``,
and the level of a pair of radial modes."""

from __future__ import annotations

from fractions import Fraction

from singosc.levels import Level, enumerate_levels


def regular_level(N: int, n: int, c1: Fraction, c2: Fraction, p: int, l_n: int, l_nn: int,
                  energy: float, hbar: Fraction = Fraction(1),
                  omega: Fraction = Fraction(1)) -> Level:
    """The level of (N, n) at couplings c1, c2 that holds the label (p, l_n, l_Nn)
    of two regular radial modes, as ``radial.ComponentSpec`` solves them: at zero
    coupling a one-coordinate block carries its regular mode as the parity
    label 1.  ``energy``, within hbar omega / 2 of the level's, places the cut."""
    hw = Fraction(hbar) * Fraction(omega)
    label = (p, *(1 if m == 1 and c == 0 else l
                  for m, c, l in ((n, c1, l_n), (N - n, c2, l_nn))))
    table = enumerate_levels(N, n, c1, c2, e_cut=energy + float(hw) / 2, hbar=hbar, omega=omega)
    [level] = [level for level in table.levels
               if label in {entry[:3] for entry in level.labels}]
    return level


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


def count_quanta_tuples(N: int, l: int) -> int:
    """Brute-force enumeration oracle for the oscillator count C(l + N - 1, N - 1)."""
    if N == 1:
        return 1
    total = 0
    for first in range(l + 1):
        total += count_quanta_tuples(N - 1, l - first)
    return total
