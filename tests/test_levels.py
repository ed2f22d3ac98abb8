"""Degeneracy bookkeeping: harmonic dimensions, level tables, oscillator counts."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from singosc.levels import (count_quanta_tuples, dim_harm, dim_harm_bruteforce,
                            enumerate_levels, oscillator_count_check,
                            oscillator_level_count)
from singosc.qalg import CentralEigs, m_values, set_solution


def test_dim_harm_examples():
    assert dim_harm(2, 0) == 1
    assert dim_harm(3, 1) == 3
    assert dim_harm(4, 2) == 9
    assert dim_harm(2, 5) == 2
    assert dim_harm(1, 0) == 1 and dim_harm(1, 1) == 1 and dim_harm(1, 3) == 0


def test_dim_harm_against_laplace_kernel_oracle():
    for m in range(1, 5):
        for l in range(0, 7):
            assert dim_harm(m, l) == dim_harm_bruteforce(m, l), (m, l)


def test_dim_harm_against_binomial_difference():
    # independent derivation: dim P_l - dim P_{l-2}
    for m in range(2, 7):
        for l in range(0, 9):
            full = math.comb(l + m - 1, m - 1)
            lower = math.comb(l + m - 3, m - 1) if l >= 2 else 0
            assert dim_harm(m, l) == full - lower


def test_oscillator_count_enumeration_oracle():
    for N in (2, 3, 4, 8):
        for l in range(0, 7):
            assert count_quanta_tuples(N, l) == oscillator_level_count(N, l)


@pytest.mark.parametrize("N,l_max", [(2, 5), (4, 6), (5, 4)])
def test_per_level_counts_all_partitions(N, l_max):
    checks = oscillator_count_check(N, l_max)
    assert checks
    for check in checks:
        assert check.passed, check


def test_per_level_counts_n8_partition4():
    checks = [c for c in oscillator_count_check(8, 4) if c.n == 4]
    assert checks and all(c.passed for c in checks)


def test_level_table_harmonic_l2_degeneracy():
    table = enumerate_levels(4, 2, 0, 0, e_cut=4.2)
    by_e = {round(level.energy, 6): level for level in table.levels}
    assert by_e[2.0].degeneracy == 1
    assert by_e[3.0].degeneracy == 4
    assert by_e[4.0].degeneracy == 10
    # radial splits of p = 1 both appear at E = 4
    splits = {(c.N1, c.N2) for c in by_e[4.0].contributors if (c.l_n, c.l_Nn) == (0, 0)}
    assert splits == {(0, 1), (1, 0)}


def test_partition_independence_at_zero_coupling():
    tables = [enumerate_levels(4, n, 0, 0, e_cut=6.2) for n in (1, 2, 3)]
    signatures = []
    for table in tables:
        signatures.append([(round(level.energy, 9), level.degeneracy)
                           for level in table.levels])
    assert signatures[0] == signatures[1] == signatures[2]


def test_generic_coupling_ground_state():
    table = enumerate_levels(4, 2, Fraction(7, 3), Fraction(1, 5), e_cut=7.0)
    ground = table.levels[0]
    assert ground.degeneracy == 1
    contrib = ground.contributors[0]
    assert (contrib.N1, contrib.N2, contrib.l_n, contrib.l_Nn) == (0, 0, 0, 0)
    # radial-split degeneracy: levels with p = 1 carry both (N1, N2) splits
    for level in table.levels:
        ps = {c.N1 + c.N2 for c in level.contributors}
        if ps == {1} and len({(c.l_n, c.l_Nn) for c in level.contributors}) == 1:
            assert len(level.contributors) == 2
            break
    else:
        pytest.fail("no pure p=1 level found below the cutoff")


def test_swap_symmetry_of_blocks():
    t_a = enumerate_levels(5, 2, Fraction(3, 2), Fraction(1, 3), e_cut=8.0)
    t_b = enumerate_levels(5, 3, Fraction(1, 3), Fraction(3, 2), e_cut=8.0)
    sig_a = [(round(level.energy, 9), level.degeneracy) for level in t_a.levels]
    sig_b = [(round(level.energy, 9), level.degeneracy) for level in t_b.levels]
    assert sig_a == sig_b


def test_table_energies_match_algebraic_set1():
    c1, c2 = Fraction(3, 2), Fraction(1, 4)
    table = enumerate_levels(4, 2, c1, c2, e_cut=8.0)
    for level in table.levels:
        contrib = level.contributors[0]
        ce = CentralEigs(N=4, n=2, l_n=contrib.l_n, l_Nn=contrib.l_Nn, c1=c1, c2=c2)
        _, energy = set_solution(1, 1, 1, contrib.N1 + contrib.N2, ce, m_values(ce))
        assert level.energy == pytest.approx(float(energy), rel=1e-12)


def test_one_coordinate_block_flagging():
    table = enumerate_levels(4, 1, Fraction(1), Fraction(0), e_cut=6.0)
    assert all("block1-half-line-regular-sector" in level.flags
               for level in table.levels)
    clean = enumerate_levels(4, 1, Fraction(0), Fraction(0), e_cut=6.0)
    assert all(not level.flags for level in clean.levels)


def test_records_schema():
    table = enumerate_levels(4, 2, 0, 0, e_cut=4.2)
    recs = table.records()
    assert {"energy_over_hw", "p", "l_n", "l_Nn", "degeneracy"} <= set(recs[0])
    with pytest.raises(ValueError):
        enumerate_levels(4, 0, 0, 0)
    with pytest.raises(ValueError):
        enumerate_levels(4, 2, Fraction(-1), 0)


@pytest.mark.parametrize("scale", [{"hbar": -1}, {"hbar": 0}, {"omega": -1}, {"omega": 0}])
def test_non_positive_hbar_or_omega_is_rejected(scale):
    with pytest.raises(ValueError, match="hbar and omega must be positive"):
        enumerate_levels(3, 1, e_cut=6.0, **scale)


def _table(table):
    return [(level.energy, level.energy_exact, level.degeneracy, level.flags,
             [(c.N1, c.N2, c.l_n, c.l_Nn, c.multiplicity) for c in level.contributors])
            for level in table.levels]


def test_level_tables_are_pinned():
    # block 1's alpha at l = 0 is the rational 1e-10, so its levels sit 1e-10
    # above those of irrational alpha at l = 1 and merge with them by float
    # closeness alone: accidental-merge, with no exact energy
    table = enumerate_levels(4, 2, Fraction(1, 2 * 10 ** 20), 0, e_cut=5.5)
    assert _table(table) == [
        (2.0000000001, Fraction(20000000001, 10000000000), 1, (), [(0, 0, 0, 0, 1)]),
        (3.0, None, 4, ("accidental-merge",), [(0, 0, 1, 0, 2), (0, 0, 0, 1, 2)]),
        (4.0, None, 10, ("accidental-merge",),
         [(0, 0, 1, 1, 4), (0, 0, 2, 0, 2), (0, 0, 0, 2, 2), (0, 1, 0, 0, 1),
          (1, 0, 0, 0, 1)]),
        (5.0, None, 20, ("accidental-merge",),
         [(0, 0, 1, 2, 4), (0, 0, 2, 1, 4), (0, 0, 3, 0, 2), (0, 1, 1, 0, 2),
          (1, 0, 1, 0, 2), (0, 0, 0, 3, 2), (0, 1, 0, 1, 2), (1, 0, 0, 1, 2)])]
    # both blocks one-coordinate at positive coupling: both flags, irrational levels
    table = enumerate_levels(2, 1, Fraction(1), Fraction(3, 2), e_cut=9.0)
    flags = ("block1-half-line-regular-sector", "block2-half-line-regular-sector")
    assert _table(table) == [
        (5.302775637731995, None, 1, flags, [(0, 0, 0, 0, 1)]),
        (7.302775637731995, None, 2, flags, [(0, 1, 0, 0, 1), (1, 0, 0, 0, 1)])]
    # harmonic limit: exact energies, every merge exact
    table = enumerate_levels(3, 1, 0, 0, e_cut=4.5)
    assert _table(table) == [
        (1.5, Fraction(3, 2), 1, (), [(0, 0, 0, 0, 1)]),
        (2.5, Fraction(5, 2), 3, (), [(0, 0, 0, 1, 2), (0, 0, 1, 0, 1)]),
        (3.5, Fraction(7, 2), 6, (),
         [(0, 0, 0, 2, 2), (0, 0, 1, 1, 2), (0, 1, 0, 0, 1), (1, 0, 0, 0, 1)]),
        (4.5, Fraction(9, 2), 10, (),
         [(0, 0, 0, 3, 2), (0, 0, 1, 2, 2), (0, 1, 0, 1, 2), (1, 0, 0, 1, 2),
          (0, 1, 1, 0, 1), (1, 0, 1, 0, 1)])]
