"""The FD oracle's per-grid solver: certified inverse iteration, bisection fallback."""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, lapack

from singosc import radial
from singosc.cli import main
from singosc.exact import exact_sqrt
from singosc.radial import (ComponentSpec, GridError, GridSpec, fd_eigenvalues,
                            sign_changes)


def _spy_full_bisection(monkeypatch) -> list[int]:
    """Record the size of every matrix that ``radial._bisect`` solves to full
    precision (tol 0); the coarse grid's loose guesses are not recorded."""
    bisect = radial._bisect
    sizes = []

    def spy(diag, off, count, tol=0.0):
        if tol == 0.0:
            sizes.append(diag.size)
        return bisect(diag, off, count, tol)
    monkeypatch.setattr(radial, "_bisect", spy)
    return sizes


def _irrational_specs(seed: int, how_many: int) -> list[tuple[ComponentSpec, int, int]]:
    """(spec, count, nodes) with m = 1..8, an irrational alpha, count <= 12 and
    nodes <= 256, drawn until the grid resolves the requested levels."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < how_many:
        m = rng.randrange(1, 9)
        spec = ComponentSpec(m=m, c=Fraction(rng.randrange(1, 60), rng.randrange(1, 8)),
                             l=0 if m == 1 else rng.randrange(0, 4))
        count, nodes = rng.randrange(1, 13), rng.choice([64, 128, 256])
        if exact_sqrt(spec.alpha_squared) is not None:
            continue
        try:
            radial._fd_grid(spec, GridSpec(nodes=nodes), count)
        except GridError:
            continue
        specs.append((spec, count, nodes))
    return specs


def _dense_levels(spec: ComponentSpec, cells: int, r_max: float, count: int) -> np.ndarray:
    [(diag, off)] = radial._regularized_tridiagonals(spec, [cells], r_max)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(dense)[:count]


def _check_against_dense(spec: ComponentSpec, count: int, nodes: int, r_max=None):
    result = fd_eigenvalues(spec, GridSpec(nodes=nodes, r_max=r_max), count)
    for cells, raw in zip((nodes, 2 * nodes, 4 * nodes), result.raw_levels):
        dense = _dense_levels(spec, cells, result.r_max, count)
        assert np.all(np.abs(np.asarray(raw) - dense) <= 1e-11 * np.abs(dense)), (spec, cells)


@pytest.mark.parametrize("spec,count,nodes", _irrational_specs(27, 6))
def test_every_grid_matches_a_dense_eigensolver_without_bisecting(spec, count, nodes,
                                                                  monkeypatch):
    full = _spy_full_bisection(monkeypatch)
    _check_against_dense(spec, count, nodes)
    assert full == []


@pytest.mark.parametrize("spec,count,nodes", _irrational_specs(27, 6))
def test_the_finest_grid_vectors_obey_the_oscillation_theorem(spec, count, nodes):
    vectors = fd_eigenvalues(spec, GridSpec(nodes=nodes), count).vectors
    assert vectors.shape == (4 * nodes, count)
    assert [sign_changes(vectors[:, k]) for k in range(count)] == list(range(count))


def test_a_short_r_max_grid_matches_a_dense_eigensolver():
    # the cut at r_max = 4.5 that the CLI's non-convergence test uses
    _check_against_dense(ComponentSpec(m=2), 3, 256, r_max=4.5)


def _tridiagonal_by_grid(spec: ComponentSpec, M: int, r_max: float):
    """Reference: one grid built on its own, with its own face powers."""
    h = r_max / M
    alpha = math.sqrt(float(spec.alpha_squared))
    centers = (np.arange(1, M + 1) - 0.5) * h
    faces = np.arange(0, M + 1) * h
    a_face = faces ** (2.0 * alpha + 1.0)
    p = 2.0 * alpha + 2.0
    w_cell = (faces[1:] ** p - faces[:-1] ** p) / p
    wq = float(spec.omega_reduced)
    v = 0.5 * wq * wq * centers * centers
    diag = (a_face[:-1] + a_face[1:]) / (2.0 * h)
    diag[-1] += a_face[-1] / h
    diag = (diag + v * w_cell) / w_cell
    off = -a_face[1:-1] / (2.0 * h) / np.sqrt(w_cell[:-1] * w_cell[1:])
    return diag, off


def test_shared_face_powers_build_each_grid_bit_for_bit():
    rng = random.Random(28)
    built = 0
    while built < 40:
        m = rng.randrange(1, 9)
        spec = ComponentSpec(m=m, c=Fraction(rng.randrange(0, 60), rng.randrange(1, 8)),
                             l=0 if m == 1 else rng.randrange(0, 4),
                             hbar=Fraction(rng.randrange(1, 5), rng.randrange(1, 4)),
                             omega=Fraction(rng.randrange(1, 5), rng.randrange(1, 4)))
        grid = GridSpec(nodes=rng.choice([64, 100, 128, 333, 512]),
                        r_max=rng.choice([None, rng.uniform(2.0, 30.0)]))
        try:
            r_max, cells = radial._fd_grid(spec, grid, rng.randrange(1, 8))
        except GridError:
            continue
        built += 1
        for M, (diag, off) in zip(cells, radial._regularized_tridiagonals(spec, cells, r_max)):
            ref_diag, ref_off = _tridiagonal_by_grid(spec, M, r_max)
            assert np.array_equal(diag, ref_diag) and np.array_equal(off, ref_off), (spec, M)


def _residuals(diag: np.ndarray, off: np.ndarray, levels: np.ndarray,
               vectors: np.ndarray) -> np.ndarray:
    """||T z_k - levels_k z_k|| per column k of ``vectors``."""
    tz = diag[:, None] * vectors
    tz[:-1] += off[:, None] * vectors[1:]
    tz[1:] += off[:, None] * vectors[:-1]
    return np.linalg.norm(tz - levels * vectors, axis=0)


def _wrong_guesses(levels: np.ndarray, norm: float) -> dict[str, np.ndarray]:
    count = levels.size - 1
    return {
        "shifted up one level": levels[1:],
        "duplicated": np.r_[levels[0], levels[:count - 1]],
        "not ascending": levels[:count][::-1],
        "far above the spectrum": 10.0 * norm + np.arange(count),
    }


def test_wrong_guesses_fall_back_to_full_precision_bisection(monkeypatch, capfd):
    spec, count = ComponentSpec(m=2, c=Fraction(1)), 4
    r_max, cells = radial._fd_grid(spec, GridSpec(nodes=128), count)
    [(diag, off)] = radial._regularized_tridiagonals(spec, cells[:1], r_max)
    levels = eigh_tridiagonal(diag, off, select="i", select_range=(0, count),
                              eigvals_only=True)
    bisected = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                                eigvals_only=True)
    bounds = radial._gershgorin(diag, off)
    floor = 8.0 * diag.size * np.finfo(float).eps * bounds[1]
    full = _spy_full_bisection(monkeypatch)
    for name, guess in _wrong_guesses(levels, bounds[1]).items():
        before = len(full)
        got, vectors = radial._lowest(diag, off, count, guess, bounds)
        assert len(full) == before + 1, name
        assert np.array_equal(got, bisected), name
        # the fallback's vectors are dstein's at the bisected levels
        assert np.all(_residuals(diag, off, got, vectors) <= floor), name
        assert [sign_changes(vectors[:, k]) for k in range(count)] == list(range(count)), name
    captured = capfd.readouterr()
    assert (captured.out, captured.err) == ("", "")


def test_each_grid_certifies_after_about_one_inverse_iteration(monkeypatch):
    # at the default 512 nodes every coarse-grid solve (from a loose
    # bisection) and every fine-grid solve (from the h^2 prediction) certifies
    # after one dstein round; the mid grid starts from the coarse levels and
    # may take more
    dstein, calls = lapack.dstein, Counter()

    def spy(diag, *args):
        calls[diag.size] += 1
        return dstein(diag, *args)
    monkeypatch.setattr(lapack, "dstein", spy)
    specs = _irrational_specs(41, 40)
    rounds = [0, 0, 0]
    for spec, count, _ in specs:
        calls.clear()
        fd_eigenvalues(spec, GridSpec(), count)
        for grid, cells in enumerate((512, 1024, 2048)):
            rounds[grid] += calls[cells]
    assert rounds[0] == rounds[2] == len(specs)


def test_radial_readme_command_agrees_past_bisection_precision(capsys):
    # a converged Rayleigh quotient is not limited by bisection's ulp * ||T||
    # stop, which left 4.5e-12, 3.6e-12 and 2.2e-12 here
    assert main(["radial", "--m", "2", "--c", "1", "--count", "3"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 3
    assert all(rec["fd_rel_error"] < 1e-12 for rec in records)
