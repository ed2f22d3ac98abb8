"""Brute-force oracles for the degeneracy bookkeeping in ``singosc.levels``."""

from __future__ import annotations

from fractions import Fraction


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
