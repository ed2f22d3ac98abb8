"""Degeneracy bookkeeping: harmonic dimensions, level tables, oscillator counts."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from level_oracles import count_quanta_tuples, dim_harm_bruteforce
from singosc.cli import main
from singosc.levels import dim_harm, enumerate_levels
from singosc.exact import Biquadratic, exact_sqrt
from singosc.qalg import CentralEigs, set_solution, verify_spectrum

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_dim_harm_examples():
    assert dim_harm(2, 0) == 1
    assert dim_harm(3, 1) == 3
    assert dim_harm(4, 2) == 9
    assert dim_harm(2, 5) == 2
    assert dim_harm(1, 0) == 1 and dim_harm(1, 1) == 1 and dim_harm(1, 3) == 0
    with pytest.raises(ValueError, match="m must be >= 1"):
        dim_harm(0, 0)
    with pytest.raises(ValueError, match="l must be non-negative"):
        dim_harm(3, -1)


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
            assert count_quanta_tuples(N, l) == math.comb(l + N - 1, N - 1)


@pytest.mark.parametrize("N,l_max", [(2, 5), (4, 6), (5, 4)])
def test_per_level_counts_all_partitions(N, l_max):
    result = verify_spectrum(N, 1, e_cut=Fraction(N, 2) + l_max)["oscillator-count[c=0]"]
    assert result.passed and result.residual_terms == 0
    # one count per split and l
    assert result.detail == f"{(N - 1) * (l_max + 1)} (n, l) pairs checked"


def _root(x) -> Biquadratic:
    return Biquadratic.sqrt_pair(Fraction(x), Fraction(0))[0]


def test_per_level_counts_n8_partition4():
    table = enumerate_levels(8, 4, e_cut=4 + 4)
    counted = {level.energy_exact - 4: level.degeneracy for level in table.levels}
    assert counted == {l: math.comb(l + 7, 7) for l in range(5)}


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
        _, energy = set_solution(1, 1, 1, contrib.N1 + contrib.N2, ce)
        assert level.energy_exact == energy


def test_one_coordinate_block_flagging():
    table = enumerate_levels(4, 1, Fraction(1), Fraction(0), e_cut=6.0)
    assert all("block1-half-line-regular-sector" in level.flags
               for level in table.levels)
    assert all(rec["flags"] == "block1-half-line-regular-sector" for rec in table.records())
    clean = enumerate_levels(4, 1, Fraction(0), Fraction(0), e_cut=6.0)
    assert all(not level.flags for level in clean.levels)
    assert all("flags" not in rec for rec in clean.records())


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
    # above those of irrational alpha at l = 1, and those of (1, 1) and (2, 0)
    # sit about 2.5e-21 apart: all are distinct levels
    table = enumerate_levels(4, 2, Fraction(1, 2 * 10 ** 20), 0, e_cut=5.5)
    one, four, nine = (_root(x + Fraction(1, 10 ** 20)) for x in (1, 4, 9))
    assert _table(table) == [
        (2.0000000001, Fraction(20000000001, 10000000000), 1, (), [(0, 0, 0, 0, 1)]),
        (3.0, 2 + one, 2, (), [(0, 0, 1, 0, 2)]),
        (3.0000000001, Fraction(30000000001, 10000000000), 2, (), [(0, 0, 0, 1, 2)]),
        (4.0, 3 + one, 4, (), [(0, 0, 1, 1, 4)]),
        (4.0, 2 + four, 2, (), [(0, 0, 2, 0, 2)]),
        (4.0000000001, Fraction(40000000001, 10000000000), 4, (),
         [(0, 0, 0, 2, 2), (0, 1, 0, 0, 1), (1, 0, 0, 0, 1)]),
        (5.0, 4 + one, 8, (), [(0, 0, 1, 2, 4), (0, 1, 1, 0, 2), (1, 0, 1, 0, 2)]),
        (5.0, 3 + four, 4, (), [(0, 0, 2, 1, 4)]),
        (5.0, 2 + nine, 2, (), [(0, 0, 3, 0, 2)]),
        (5.0000000001, Fraction(50000000001, 10000000000), 6, (),
         [(0, 0, 0, 3, 2), (0, 1, 0, 1, 2), (1, 0, 0, 1, 2)])]
    # both blocks one-coordinate at positive coupling: both flags, irrational
    # levels (alpha1 = 3/2, alpha2 = sqrt(13) / 2)
    table = enumerate_levels(2, 1, Fraction(1), Fraction(3, 2), e_cut=9.0)
    flags = ("block1-half-line-regular-sector", "block2-half-line-regular-sector")
    assert _table(table) == [
        (5.302775637731995, Fraction(7, 2) + _root(13) / 2, 1, flags, [(0, 0, 0, 0, 1)]),
        (7.302775637731995, Fraction(11, 2) + _root(13) / 2, 2, flags,
         [(0, 1, 0, 0, 1), (1, 0, 0, 0, 1)])]
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


def test_the_table_at_the_e_cut_limit_stores_one_entry_per_label_triple():
    table = enumerate_levels(4, 2, 0, 0, e_cut=64)
    assert len(table.levels) == 63 and len(table.records()) == 22352
    for level in table.levels:
        l = (level.energy_exact - 2).rational()
        assert l.denominator == 1 and level.degeneracy == math.comb(int(l) + 3, 3)
        contributors = level.contributors
        assert sum(c.multiplicity for c in contributors) == level.degeneracy
        # the stored triples are distinct, and the per-split view covers exactly them
        assert sorted({(c.N1 + c.N2, c.l_n, c.l_Nn) for c in contributors}) == sorted(
            (p, l_n, l_nn) for p, l_n, l_nn, _ in level.labels)


def _oracle_energies(N, n, c1, c2, e_cut):
    """{(N1, N2, l_n, l_Nn): E} at the working precision and hbar = omega = 1,
    for all labels with p, l_n, l_Nn < e_cut + 3: all with E <= e_cut and more."""
    bound = int(e_cut) + 3

    def alpha(m, l, c):
        square = Fraction(2 * l + m - 2, 2) ** 2 + 2 * c
        return mp.mpf(2 * l + m - 2) / 2 if c == 0 else mp.sqrt(
            mp.mpf(square.numerator) / square.denominator)

    def labels(m, c):
        return ((0, 1) if c == 0 else (0,)) if m == 1 else range(bound)

    out = {}
    for l1 in labels(n, c1):
        for l2 in labels(N - n, c2):
            for p in range(bound):
                energy = 2 * p + 2 + alpha(n, l1, c1) + alpha(N - n, l2, c2)
                for n1 in range(p + 1):
                    out[(n1, p - n1, l1, l2)] = energy
    return out


_PARTITION_CASES = [
    # rational alpha 1e-10 at l = 0 next to irrational alphas at l >= 1
    (4, 2, Fraction(1, 2 * 10 ** 20), Fraction(0), Fraction(11, 2)),
    # n = N - n with c1 = c2: the blocks swap into each other
    (4, 2, Fraction(3, 7), Fraction(3, 7), Fraction(9)),
    (6, 3, Fraction(2), Fraction(2), Fraction(10)),
    # (0, 0) and (2, 2) merge through sqrt 5
    (4, 2, Fraction(1, 2), Fraction(5, 2), Fraction(14)),
    # (1, 5) and (7, 3) merge at 5 sqrt 2, through the radicands 2, 32 and 50
    (4, 2, Fraction(1, 2), Fraction(7, 2), Fraction(14)),
]


def _seeded_partition_cases(seed, count):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        N = rng.randint(2, 6)
        c1 = rng.choice([Fraction(0), Fraction(rng.randint(1, 30), rng.randint(1, 9))])
        c2 = c1 if rng.random() < 0.3 else rng.choice(
            [Fraction(0), Fraction(rng.randint(1, 30), rng.randint(1, 9))])
        cases.append((N, rng.randint(1, N - 1), c1, c2, Fraction(rng.randint(8, 24), 2)))
    return cases


@pytest.mark.parametrize("N, n, c1, c2, e_cut",
                         _PARTITION_CASES + _seeded_partition_cases(23, 8))
def test_levels_partition_contributors_by_exact_energy(N, n, c1, c2, e_cut):
    table = enumerate_levels(N, n, c1, c2, e_cut=e_cut)
    with mp.workdps(50):
        oracle = _oracle_energies(N, n, c1, c2, e_cut)
        tol, cut = mp.mpf("1e-40"), mp.mpf(e_cut.numerator) / e_cut.denominator
        firsts, seen = [], set()
        for level in table.levels:
            energies = [oracle[(c.N1, c.N2, c.l_n, c.l_Nn)] for c in level.contributors]
            assert max(energies) - min(energies) <= tol, level
            firsts.append(energies[0])
            seen.update((c.N1, c.N2, c.l_n, c.l_Nn) for c in level.contributors)
        firsts.sort()
        assert all(b - a > tol for a, b in zip(firsts, firsts[1:]))
        for labels, energy in oracle.items():
            if abs(energy - cut) > tol:
                assert (labels in seen) == (energy < cut), (labels, energy)
            else:  # only an energy that equals the cut lies this close to it
                assert labels in seen, labels


def _level_fields_by_labels(table) -> list[tuple]:
    """Reference: each level's fields rebuilt from its labels alone.  alpha is
    the signed l + (m-2)/2 at zero coupling, else the root of
    (l + (m-2)/2)^2 + 2c/hbar^2, as a float rounded once; the level's float
    energy is the least of its labels' 2 hbar omega (p + 1 + (alpha1 + alpha2)/2),
    and its exact energy hbar omega (2p + 2 + alpha1 + alpha2), with both roots
    taken in the field of the label's two squares."""
    dims = (table.n, table.N - table.n)
    hw = table.hbar * table.omega

    def alpha(block, l):
        """(float alpha, its sign, alpha^2)."""
        c = (table.c1, table.c2)[block] / table.hbar ** 2
        base = Fraction(2 * l + dims[block] - 2, 2)
        if c == 0:
            return float(base), -1 if base < 0 else 1, base ** 2
        root = exact_sqrt(base ** 2 + 2 * c)
        return (float(root) if root is not None else math.sqrt(float(base ** 2 + 2 * c))
                ), 1, base ** 2 + 2 * c

    out = []
    for level in table.levels:
        floats, exacts, degeneracy, labels = [], set(), 0, []
        for p, l_n, l_nn, _ in level.labels:
            (f1, s1, q1), (f2, s2, q2) = alpha(0, l_n), alpha(1, l_nn)
            floats.append(2.0 * float(hw) * (p + 1 + (f1 + f2) / 2.0))
            r1, r2 = Biquadratic.sqrt_pair(q1, q2)
            exacts.add(hw * (2 * p + 2 + s1 * r1 + s2 * r2))
            mult = dim_harm(dims[0], l_n) * dim_harm(dims[1], l_nn)
            degeneracy += (p + 1) * mult
            labels.append((p, l_n, l_nn, mult))
        [exact] = exacts
        flags = tuple(f"block{i}-half-line-regular-sector"
                      for i, (m, c) in enumerate(zip(dims, (table.c1, table.c2)), 1)
                      if m == 1 and c > 0)
        out.append((min(floats), exact, degeneracy, tuple(labels), flags))
    return out


def test_level_fields_match_a_build_from_their_labels():
    rng = random.Random(28)
    tables = 0
    while tables < 30:
        N = rng.randrange(2, 8)
        n = rng.randrange(1, N)
        c1, c2 = (rng.choice([Fraction(0), Fraction(rng.randrange(1, 40), rng.randrange(1, 9))])
                  for _ in range(2))
        hbar = Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
        omega = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        table = enumerate_levels(N, n, c1, c2, e_cut=hbar * omega * rng.randrange(N, N + 12),
                                 hbar=hbar, omega=omega)
        if not table.levels:
            continue
        tables += 1
        assert [(level.energy, level.energy_exact, level.degeneracy, level.labels, level.flags)
                for level in table.levels] == _level_fields_by_labels(table), table
        for level in table.levels:
            assert type(level.energy) is float
            assert type(level.energy_exact) is Biquadratic


def test_levels_are_cut_exactly():
    kept = enumerate_levels(3, 1, 0, 0, e_cut=Fraction(9, 2))
    assert kept.levels[-1].energy_exact == Fraction(9, 2)
    dropped = enumerate_levels(3, 1, 0, 0, e_cut=Fraction(9, 2) - Fraction(1, 10 ** 15))
    assert dropped.levels[-1].energy_exact == Fraction(7, 2)


def test_levels_command_keeps_a_level_at_a_rational_cut(capsys):
    # at hbar = 1/3, 4/3 is 4 hbar omega: p = 1 with l_n + l_Nn = 1
    assert main(["levels", "--N", "2", "--n", "1", "--hbar", "1/3", "--e-cut", "4/3"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert max(rec["energy_over_hw"] for rec in records) == 4.0


def test_levels_command_matches_golden(capsys):
    argv = ["levels", "--N", "4", "--n", "2", "--c1", "1/2", "--c2", "7/2", "--e-cut", "14"]
    assert main(argv) == 0
    golden = GOLDEN / "levels-N4-n2-c1-1_2-c2-7_2.jsonl"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_levels_that_print_the_same_float_energy_name_distinct_levels(capsys):
    # at c1 = 10^-20 / 2 the energies 4 + sqrt(1 + e), 3 + sqrt(4 + e) and
    # 2 + sqrt(9 + e), e = 10^-20, are distinct levels that all print as 5.0
    argv = ["levels", "--N", "4", "--n", "2", "--c1", "1/200000000000000000000",
            "--e-cut", "11/2"]
    assert main(argv) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    at_five = [rec for rec in records if rec["energy_over_hw"] == 5.0]
    degeneracy = {rec["level"]: rec["degeneracy"] for rec in at_five}
    assert sorted(degeneracy.values()) == [2, 4, 8]
    # every record's level is its table position, in print order
    assert [rec["level"] for rec in records] == sorted(rec["level"] for rec in records)
    assert {rec["level"] for rec in records} == set(range(records[-1]["level"] + 1))
