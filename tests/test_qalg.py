"""Structure function, unirrep constraints, and the algebraic spectrum."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction

import mpmath as mp
import pytest

from singosc import qalg, relations
from singosc.exact import sqrt_sum_sign
from singosc.exact import Biquadratic
from singosc.qalg import (CentralEigs, exact_sqrt, m_values, recursion_consistency,
                          set_solution, solve_unirreps, structure_functions_agree,
                          structure_poly_factored, structure_poly_raw, verify_spectrum)


def _rational_m_eigs(rng, N=None, n=None):
    """Random CentralEigs engineered so that m1, m2 come out rational."""
    N = N or rng.randrange(2, 9)
    n = n or rng.randrange(1, N)
    d1, d2 = n, N - n
    l1 = rng.randrange(0, 2 if d1 == 1 else 4)
    l2 = rng.randrange(0, 2 if d2 == 1 else 4)
    hbar = Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
    omega = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
    m1_min = abs(2 * l1 + d1 - 2)
    m2_min = abs(2 * l2 + d2 - 2)
    m1 = m1_min + Fraction(rng.randrange(0, 9), rng.randrange(1, 5))
    m2 = m2_min + Fraction(rng.randrange(0, 9), rng.randrange(1, 5))
    c1 = hbar ** 2 * (m1 ** 2 - m1_min ** 2) / 8
    c2 = hbar ** 2 * (m2 ** 2 - m2_min ** 2) / 8
    ce = CentralEigs(N=N, n=n, l_n=l1, l_Nn=l2, c1=c1, c2=c2, hbar=hbar, omega=omega)
    return ce, m1, m2


def test_m_values_examples():
    ce = CentralEigs(N=4, n=2, l_n=0, l_Nn=0)
    mq = m_values(ce)
    assert mq.m1 == 0 and mq.m2 == 0
    ce = CentralEigs(N=6, n=3, l_n=0, l_Nn=0, c1=Fraction(1))  # c1 = hbar^2
    assert m_values(ce).m1 == 3  # 8 + 1 = 9
    ce = CentralEigs(N=5, n=2, l_n=1, l_Nn=0, c1=Fraction(1, 8))
    assert m_values(ce).m1_squared == Fraction(1) + 4 + 0  # 8c1/h^2 + 4l(l) + 0


def test_m_values_harmonic_limit_closed_form():
    # oracle: at c = 0 the radicand is the perfect square (2l + m - 2)^2
    for n in range(2, 7):
        for l in range(0, 11):
            ce = CentralEigs(N=n + 2, n=n, l_n=l, l_Nn=0)
            mq = m_values(ce)
            assert mq.m1 == 2 * l + n - 2
    ce = CentralEigs(N=2, n=1, l_n=0, l_Nn=0)
    mq = m_values(ce)
    assert mq.m1 == 1 and mq.m2 == 1


def test_raw_equals_factored_on_random_rational_tuples():
    rng = random.Random(101)
    for _ in range(20):
        ce, m1, m2 = _rational_m_eigs(rng)
        mq = m_values(ce)
        assert mq.exact and mq.m1 == m1 and mq.m2 == m2
        u = Fraction(rng.randrange(-9, 9), rng.randrange(1, 8))
        energy = Fraction(rng.randrange(-9, 9), rng.randrange(1, 8))
        raw = structure_poly_raw(u, energy, ce)
        fac = structure_poly_factored(u, energy, ce)
        assert structure_functions_agree(raw, fac)


def test_six_points_do_not_decide_the_structure_function():
    # a degree-6 term that vanishes at x = 0..5 moves Phi only from x = 6 on
    ce = CentralEigs(N=4, n=2, l_n=0, l_Nn=1, c1=Fraction(9, 8), c2=Fraction(1, 2))
    u, energy = Fraction(1, 3), Fraction(5, 2)
    fac = structure_poly_factored(u, energy, ce)

    def bent(x):
        return fac(x) + Fraction(1, 7) * math.prod(x - k for k in range(6))
    assert all(bent(x) == fac(x) for x in range(6))
    assert structure_functions_agree(structure_poly_raw(u, energy, ce), fac)
    assert not structure_functions_agree(bent, fac)
    assert not structure_functions_agree(structure_poly_raw(u, energy, ce), bent)


def test_unshifted_last_factor_reading_fails():
    ce = CentralEigs(N=4, n=2, l_n=0, l_Nn=1, c1=Fraction(9, 8), c2=Fraction(1, 2))
    # offsetting the last root by u drops the + u from the last factor
    u = Fraction(1, 3)
    raw = structure_poly_raw(u, Fraction(5, 2), ce)
    fac = structure_poly_factored(u, Fraction(5, 2), ce, root_offsets=(0,) * 5 + (u,))
    assert not structure_functions_agree(raw, fac)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: Phi vanishes at x = p on this "
                   "branch, so it reports failing_x = p")
def test_the_two_dimensional_harmonic_level_is_admitted():
    # (N, n) = (2, 1) at c = 0: the set-1 (-1, -1) branch is the harmonic level
    # E = 2 hbar omega (p + 1/2), and the unirreps must admit it; once they do,
    # this passes and its marker goes
    ce = CentralEigs(2, 1, 0, 0)
    for p in range(1, 11):
        (sol,) = [s for s in solve_unirreps(p, ce) if (s.set_id, s.eps1, s.eps2) == (1, -1, -1)]
        assert sol.energy == 2 * ce.hbar * ce.omega * (p + Fraction(1, 2))
        assert sol.admissible, (p, sol.failing_x)


def test_factored_root_locations():
    ce = CentralEigs(N=5, n=2, l_n=0, l_Nn=0, c1=Fraction(9, 8), c2=Fraction(15, 8))
    mq = m_values(ce)
    assert (mq.m1, mq.m2) == (3, 4)
    u, energy = Fraction(-2), Fraction(7, 2)
    # x + u = (2 + m1 + m2)/4 must be a root of the factored form
    x_root = Fraction(2 + 3 + 4, 4) - u
    assert structure_poly_factored(u, energy, ce)(x_root) == 0
    # and of the raw form, exactly
    assert structure_poly_raw(u, energy, ce)(x_root) == 0


def test_degenerate_harmonic_p0_values():
    # m1 = m2 = 0: the upper boundary root collides with the bracket roots,
    # so the value at x = 1 is an exact zero, while the interior stays positive
    ce = CentralEigs(N=4, n=2, l_n=0, l_Nn=0)
    u, energy = set_solution(1, 1, 1, 0, ce)
    assert energy == 2  # hbar omega N / 2 with N = 4
    phi = structure_poly_factored(u, energy, ce)
    assert phi(Fraction(1)) == 0
    assert phi(Fraction(1, 2)) > 0


def test_solve_unirreps_boundaries_and_positivity():
    ce = CentralEigs(N=4, n=2, l_n=1, l_Nn=2, c1=Fraction(3, 2), c2=Fraction(1, 4))
    sols = solve_unirreps(3, ce)
    assert len(sols) == 12
    by_key = {(s.set_id, s.eps1, s.eps2): s for s in sols}
    best = by_key[(1, 1, 1)]
    assert best.admissible and best.failing_x is None
    assert structure_poly_factored(best.u, best.energy, ce)(0) == 0
    # set 2 never satisfies the upper boundary: leading -x factor
    for eps in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        sol = by_key[(2, *eps)]
        assert not sol.admissible
        assert sol.failing_x == 4
    # set 3 with both signs positive is admissible as well, same energy
    s3 = by_key[(3, 1, 1)]
    assert s3.admissible
    assert s3.energy == best.energy
    with pytest.raises(ValueError, match="p must be non-negative"):
        solve_unirreps(-1, ce)
    with pytest.raises(ValueError, match="unknown set id 4"):
        set_solution(4, 1, 1, 0, ce)


def _admissibility(norm_values, energy, p):
    """Reference verdict from the exact values of Phi / eta at x = 0..p+1."""
    if not energy > 0:
        return False, None
    if norm_values[0] != 0:
        return False, 0
    if norm_values[p + 1] != 0:
        return False, p + 1
    for x in range(1, p + 1):
        if not norm_values[x] > 0:
            return False, x
    return True, None


def _expanded_unirreps(p, ce):
    """Oracle for solve_unirreps: expand the factored polynomial, evaluate it by
    Horner, divide by eta = 24576 hbar^18 omega^2 and test admissibility."""
    eta = 24576 * ce.hbar ** 18 * ce.omega ** 2
    out = []
    for set_id in (1, 2, 3):
        for eps in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            u, energy = set_solution(set_id, *eps, p, ce)
            phi = structure_poly_factored(u, energy, ce)
            values = [phi(x) for x in range(p + 2)]
            verdict = _admissibility(tuple(v / eta for v in values), energy, p)
            out.append(((set_id, *eps), values, verdict))
    return out


def _irrational_m_eigs(rng):
    while True:
        ce = CentralEigs(N=rng.randrange(3, 9), n=2, l_n=rng.randrange(0, 3),
                         l_Nn=rng.randrange(0, 2), c1=Fraction(rng.randrange(1, 30), 7),
                         c2=Fraction(rng.randrange(1, 30), 3),
                         hbar=Fraction(rng.randrange(1, 4), 2), omega=Fraction(3, 2))
        if not m_values(ce).exact:
            return ce


def test_factor_evaluation_matches_expanded_polynomial():
    rng = random.Random(11)
    cases = [_rational_m_eigs(rng)[0] for _ in range(3)]
    cases += [_irrational_m_eigs(rng) for _ in range(3)]
    cases += [
        CentralEigs(N=5, n=2, l_n=0, l_Nn=0, c1=Fraction(9, 8), c2=Fraction(1, 3)),
        # m1 = 0: the four m-roots collide in pairs
        CentralEigs(N=5, n=2, l_n=0, l_Nn=1, c2=Fraction(2)),
        CentralEigs(N=5, n=2, l_n=0, l_Nn=1, c2=Fraction(5, 8)),
        # harmonic limit c1 = c2 = 0
        CentralEigs(N=4, n=2, l_n=0, l_Nn=0),
        CentralEigs(N=6, n=3, l_n=1, l_Nn=2, hbar=Fraction(2, 3)),
        # irrational m1 = m2: the roots (2 +- (m1 - m2))/4 are rational
        CentralEigs(N=6, n=3, l_n=1, l_Nn=1, c1=Fraction(1, 3), c2=Fraction(1, 3)),
        # a one-coordinate block with parity label 1
        CentralEigs(N=4, n=1, l_n=1, l_Nn=2, c1=Fraction(2, 7), c2=Fraction(5)),
        # large c: the (-,-) branch has E <= 0 at small p, rational and irrational m
        CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(32), c2=Fraction(32)),
        CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(31), c2=Fraction(29, 3)),
        # m1 = m2 = 2: the (-,-) branches have E = 0 exactly at p = 0, and their
        # irrational neighbours E = +0.031 and E = -0.031
        CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(1, 2), c2=Fraction(1, 2)),
        CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(31, 64), c2=Fraction(31, 64)),
        CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(33, 64), c2=Fraction(33, 64)),
    ]
    seen_exact = set()
    for ce in cases:
        for p in (0, 1, 3, 10):
            sols = solve_unirreps(p, ce)
            oracle = _expanded_unirreps(p, ce)
            assert len(sols) == len(oracle) == 12
            for sol, (key, _, verdict) in zip(sols, oracle):
                assert (sol.set_id, sol.eps1, sol.eps2) == key
                assert (sol.admissible, sol.failing_x) == verdict
                seen_exact.add(sol.exact)
    assert seen_exact == {True, False}


def _verdict_by_sorted_walk(roots: list[tuple[int, bool]], p: int) -> tuple[bool, int | None]:
    """Reference verdict of a branch with E > 0, from the roots of Phi as
    (ceiling, is an integer): a zero set, then a walk over the sorted ceilings."""
    zeros = {ceil for ceil, integral in roots if integral}
    if 0 not in zeros:
        return False, 0
    if p + 1 not in zeros:
        return False, p + 1
    ceilings = sorted(ceil for ceil, _ in roots)
    for x in (1, *ceilings):
        if 1 <= x <= p and (x in zeros or not (len(ceilings) - bisect_right(ceilings, x)) % 2):
            return False, x
    return True, None


def _parity_block_eigs(rng):
    """c = 0 with a one-coordinate block, whose label is a parity 0 or 1."""
    N = rng.randrange(2, 7)
    n = rng.choice([1, N - 1])
    return CentralEigs(N=N, n=n, l_n=rng.randrange(0, 2 if n == 1 else 4),
                      l_Nn=rng.randrange(0, 2 if N - n == 1 else 4),
                      hbar=Fraction(rng.randrange(1, 4), 2), omega=Fraction(rng.randrange(1, 4)))


def test_one_pass_verdicts_match_the_sorted_walk():
    rng = random.Random(28)
    # the (2,1) branch set 1, (-1,-1) at l = (0,0) has the verdict that
    # ROADMAP item 1 tracks as wrong; it is decided like any other branch
    harmonic_21 = CentralEigs(N=2, n=1, l_n=0, l_Nn=0)
    cases = ([_rational_m_eigs(rng)[0] for _ in range(8)]
             + [_irrational_m_eigs(rng) for _ in range(8)]
             + [_parity_block_eigs(rng) for _ in range(8)] + [harmonic_21])
    assert {ce.exact for ce in cases} == {True, False}
    for ce in cases:
        for p in range(13):
            q = p + 1
            for sol, (set_id, eps1, eps2, _, roots) in zip(solve_unirreps(p, ce), ce.branches):
                assert (sol.set_id, sol.eps1, sol.eps2) == (set_id, eps1, eps2)
                if set_solution(set_id, eps1, eps2, p, ce)[1].sign() > 0:
                    want = _verdict_by_sorted_walk(
                        [(slope * q + offset, integral) for slope, offset, integral in roots], p)
                else:
                    want = (False, None)
                assert (sol.admissible, sol.failing_x) == want, (ce, p, set_id, eps1, eps2)
    tracked = {p: next(s for s in solve_unirreps(p, harmonic_21)
                       if (s.set_id, s.eps1, s.eps2) == (1, -1, -1)) for p in range(1, 13)}
    assert all((s.admissible, s.failing_x) == (False, p) for p, s in tracked.items())


def test_verdicts_need_neither_closed_form_nor_values(monkeypatch):
    ce = CentralEigs(N=5, n=2, l_n=1, l_Nn=0, c1=Fraction(9, 8), c2=Fraction(1, 3))
    want = [(s.admissible, s.failing_x, s.exact) for s in solve_unirreps(3, ce)]
    assert (True, None, False) in want and (False, 4, False) in want

    def unavailable(*args):
        raise AssertionError("built while deciding the verdict")

    monkeypatch.setattr(qalg, "set_solution", unavailable)
    monkeypatch.setattr(qalg, "factored_roots", unavailable)
    monkeypatch.setattr(Biquadratic, "sqrt_pair", unavailable)
    assert [(s.admissible, s.failing_x, s.exact) for s in solve_unirreps(3, ce)] == want


def test_negative_branch_with_large_m_is_inadmissible():
    ce = CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(32), c2=Fraction(32))
    sols = solve_unirreps(2, ce)
    for s in sols:
        if s.set_id in (1, 3) and (s.eps1, s.eps2) == (-1, -1):
            assert not s.admissible
            assert (s.energy <= 0) or s.failing_x is not None


def test_m_roots_are_built_once_per_central_eigs(monkeypatch):
    pair = Biquadratic.sqrt_pair
    calls = []
    monkeypatch.setattr(Biquadratic, "sqrt_pair", lambda *args: calls.append(args) or pair(*args))
    # quarters reads both roots; the pair is built once, with the same values
    ce = CentralEigs(N=5, n=2, l_n=1, l_Nn=0, c1=Fraction(1, 3), c2=Fraction(2, 7))
    assert ce.quarters[1, -1] == (ce.m1 - ce.m2) / 4
    assert len(calls) == 1
    mq = CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(13, 72), c2=Fraction(1, 4))
    assert (mq.m1_squared, mq.m2_squared) == (Fraction(13, 9), Fraction(2))
    assert (mq.m1, mq.m2) == pair(mq.m1_squared, mq.m2_squared)
    assert mq.m1 ** 2 == mq.m1_squared and mq.m2 ** 2 == mq.m2_squared
    assert len(calls) == 2


def test_recursion_check_skips_labels_without_two_usable_points():
    # m1 = 3, m2 = 4: the ground label (p = 0) at E = 11/2 is the only one
    # below the cut, and one point cannot fix rho0^2
    ce = CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(9, 8), c2=Fraction(2))
    ok, ratios = recursion_consistency(0, ce)
    assert not ok and len(ratios) < 2
    report = verify_spectrum(4, 2, ce.c1, ce.c2, e_cut=Fraction(11, 2))
    result = report["recursion"]
    assert (result.passed, result.residual_terms) == (False, 0)
    assert result.detail == "0 (p, l_n, l_Nn) labels checked, 1 skipped"
    assert report["structure-functions"].passed
    # above the cut of p = 1 the p = 0 labels are still skipped, not failed
    result = verify_spectrum(4, 2, ce.c1, ce.c2, e_cut=Fraction(15, 2))["recursion"]
    assert (result.passed, result.residual_terms) == (True, 0)
    assert result.detail.endswith("skipped") and not result.detail.startswith("0 ")


def test_energy_monotonic_in_p_with_constant_gap():
    ce = CentralEigs(N=5, n=2, l_n=1, l_Nn=0, c1=Fraction(9, 8), c2=Fraction(2))
    energies = [set_solution(1, 1, 1, p, ce)[1] for p in range(5)]
    gaps = [b - a for a, b in zip(energies, energies[1:])]
    assert all(g == 2 * ce.hbar * ce.omega for g in gaps)


def test_harmonic_limit_all_partitions():
    for N, l_max, hw in [(4, 4, 1), (8, 3, 1), (3, 5, Fraction(3, 2))]:
        report = verify_spectrum(N, 1, e_cut=hw * (Fraction(N, 2) + l_max),
                                 hbar=Fraction(1, 2), omega=2 * hw)
        for name in ("harmonic-limit[c=0]", "oscillator-count[c=0]"):
            assert report[name].passed and report[name].residual_terms == 0
            assert not report[name].detail.startswith("0 ")
        assert report["oscillator-count[c=0]"].detail.startswith(f"{(N - 1) * (l_max + 1)} ")


def test_harmonic_limit_expected_examples():
    # (4,2): E = 2 at l = 0, and E = 4 on every label of l = 2p + l_n + l_Nn = 2
    assert set_solution(1, 1, 1, 0, CentralEigs(N=4, n=2, l_n=0, l_Nn=0))[1] == 2
    for p, l_n, l_nn in ((1, 0, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)):
        assert set_solution(1, 1, 1, p, CentralEigs(N=4, n=2, l_n=l_n, l_Nn=l_nn))[1] == 4
    assert set_solution(1, 1, 1, 0, CentralEigs(N=8, n=4, l_n=1, l_Nn=0))[1] == 5
    # a one-coordinate block with parity label 0 takes eps = -1: E = 1 at (2,1)
    assert set_solution(1, -1, -1, 0, CentralEigs(N=2, n=1, l_n=0, l_Nn=0))[1] == 1
    assert set_solution(1, -1, 1, 0, CentralEigs(N=2, n=1, l_n=0, l_Nn=1))[1] == 2


def test_recursion_consistency_exact_and_inexact():
    ce = CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(9, 8), c2=Fraction(2))
    ok, ratios = recursion_consistency(4, ce)
    assert ok
    assert ratios[0] == Fraction(1, 3 * 2 ** 20)
    ce2 = CentralEigs(N=5, n=2, l_n=1, l_Nn=0, c1=Fraction(9, 8), c2=Fraction(1, 3),
                      hbar=Fraction(2), omega=Fraction(3, 2))
    ok2, _ = recursion_consistency(3, ce2)
    assert ok2
    # irrational m1 and m2 (and m1 = m2): every ratio equals the constant exactly
    for ce, p, set_id, eps in [
            (CentralEigs(N=5, n=2, l_n=0, l_Nn=0, c1=Fraction(1, 3), c2=Fraction(2, 7)),
             3, 1, (1, 1)),
            (CentralEigs(N=6, n=3, l_n=1, l_Nn=1, c1=Fraction(1, 3), c2=Fraction(1, 3)),
             2, 3, (1, 1)),
            (CentralEigs(N=4, n=2, l_n=1, l_Nn=0, c1=Fraction(6), c2=Fraction(7, 2),
                         hbar=Fraction(3, 2), omega=Fraction(2, 5)),
             4, 1, (1, -1))]:
        mq = m_values(ce)
        assert exact_sqrt(mq.m1_squared) is None and exact_sqrt(mq.m2_squared) is None
        ok, ratios = recursion_consistency(p, ce, set_id, eps)
        assert ok and len(ratios) >= 2
        assert all(r == Fraction(1, 3 * 2 ** 20) / ce.hbar ** 16 for r in ratios)


def test_recursion_consistency_skips_the_poles_of_its_terms():
    # set 3 with m1 = m2 and eps = (1, -1): u = 1/2, a pole of realization_b_diag
    ce = CentralEigs(N=6, n=3, l_n=1, l_Nn=1, c1=Fraction(1, 3), c2=Fraction(1, 3))
    ok, ratios = recursion_consistency(2, ce, 3, (1, -1))
    assert ok and len(ratios) == 2
    assert all(r == Fraction(1, 3 * 2 ** 20) for r in ratios)
    for p in range(5):
        for set_id in (1, 2, 3):
            for eps in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                recursion_consistency(p, ce, set_id, eps)


# (ce, p, m1 and m2 rational): m1 = 5 and m2 = 7 at the first point; J2 and K2
# are nonzero at both, so every word of the tables contributes
_TABLE_POINTS = [
    (CentralEigs(N=6, n=3, l_n=1, l_Nn=2, c1=Fraction(2), c2=Fraction(3),
                 omega=Fraction(3, 2)), 3, True),
    (CentralEigs(N=5, n=2, l_n=1, l_Nn=1, c1=Fraction(1, 3), c2=Fraction(2, 7),
                 hbar=Fraction(3, 2), omega=Fraction(2, 5)), 3, False),
]


def _spectrum_side_checks(ce, p):
    """(raw == factored, the recursion holds) on the set-1 (+, +) branch."""
    u, energy = set_solution(1, 1, 1, p, ce)
    raw = structure_poly_raw(u, energy, ce)
    return (structure_functions_agree(raw, structure_poly_factored(u, energy, ce)),
            recursion_consistency(p, ce)[0])


@pytest.mark.parametrize("ce, p, rational", _TABLE_POINTS, ids=["m-rational", "m-irrational"])
def test_every_relation_constant_reaches_the_spectrum_side(ce, p, rational, monkeypatch):
    assert m_values(ce).exact is rational
    assert _spectrum_side_checks(ce, p) == (True, True)
    base = relations.QuadraticConstants.for_dims(ce.N, ce.n)
    for field_name in relations.MUTABLE_CONSTANTS:
        bumped = base.bumped(field_name)
        monkeypatch.setattr(relations.QuadraticConstants, "for_dims",
                            classmethod(lambda cls, N, n, bumped=bumped: bumped))
        assert _spectrum_side_checks(ce, p) != (True, True), field_name
    monkeypatch.undo()
    central = relations.casimir_central_words
    for idx in range(len(central(ce.N, ce.n, ce.c1, ce.c2, ce.omega ** 2))):
        def perturbed(*args, idx=idx):
            words = central(*args)
            power, scale, f, g = words[idx]
            words[idx] = (power, scale + 1, f, g)
            return words
        monkeypatch.setattr(relations, "casimir_central_words", perturbed)
        assert not _spectrum_side_checks(ce, p)[0], idx


def test_central_eigs_validation():
    with pytest.raises(ValueError):
        CentralEigs(N=4, n=0, l_n=0, l_Nn=0)
    with pytest.raises(ValueError, match="angular numbers must be non-negative"):
        CentralEigs(N=4, n=2, l_n=-1, l_Nn=0)
    # a one-coordinate block 1 or block 2
    for n, l_n, l_nn in ((1, 2, 0), (3, 0, 2)):
        with pytest.raises(ValueError, match="only carries parity labels 0 and 1"):
            CentralEigs(N=4, n=n, l_n=l_n, l_Nn=l_nn)
    with pytest.raises(ValueError):
        CentralEigs(N=4, n=2, l_n=0, l_Nn=0, c1=Fraction(-1))
    with pytest.raises(ValueError, match="hbar and omega must be positive"):
        CentralEigs(N=4, n=2, l_n=0, l_Nn=0, hbar=0)
    ce = CentralEigs(N=4, n=1, l_n=1, l_Nn=0)
    assert ce.j2 == 0  # parity label on a one-coordinate block keeps J2 = 0


def test_the_spectrum_checks_share_one_central_eigs_per_table_and_label(monkeypatch):
    # the pinned (5,2) input has 189 distinct (table, l_n, l_Nn): 41 at the
    # given couplings and 148 over the c = 0 tables of the four splits
    built = []
    post_init = CentralEigs.__post_init__
    monkeypatch.setattr(CentralEigs, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    report = verify_spectrum(5, 2, Fraction(3, 7), 5, e_cut=12)
    assert report.all_passed
    assert len(built) <= 189


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1))


def test_sqrt_sum_sign_matches_high_precision():
    rng = random.Random(3)
    with mp.workdps(100):
        for _ in range(2000):
            A, B = rng.randrange(0, 500), rng.randrange(0, 500)
            a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
            # c near -(a sqrt A + b sqrt B), so that the sign is a close call
            c = int(mp.nint(-(a * mp.sqrt(A) + b * mp.sqrt(B)))) + rng.randrange(-2, 3)
            value = c + a * mp.sqrt(A) + b * mp.sqrt(B)
            want = 0 if abs(value) < mp.mpf("1e-80") else (1 if value > 0 else -1)
            assert sqrt_sum_sign(c, a, A, b, B) == want, (c, a, A, b, B)


def test_sqrt_sum_sign_exact_zeros_and_degenerate_radicands():
    # A and B perfect squares with c = -(a sqrt A + b sqrt B)
    assert sqrt_sum_sign(-(3 * 7 - 2 * 5), 3, 49, -2, 25) == 0
    assert sqrt_sum_sign(-(3 * 7 - 2 * 5) + 1, 3, 49, -2, 25) == 1
    # A = B with a = -b cancels whatever c is
    for c in (-1, 0, 1):
        assert sqrt_sum_sign(c, 5, 13, -5, 13) == c
    # A = 0 or B = 0 leaves one root
    assert sqrt_sum_sign(-3, 7, 0, 1, 10) == 1
    assert sqrt_sum_sign(-4, 1, 10, 7, 0) == -1
    assert sqrt_sum_sign(0, 4, 0, -2, 0) == 0
    # the sum lands exactly on an integer: 2 sqrt 8 - sqrt 2 - 3 sqrt 2 = 0
    assert sqrt_sum_sign(0, 2, 8, -4, 2) == 0
    assert sqrt_sum_sign(-6, 3, 4, 0, 7) == 0
    # large integers stay exact
    big = 10 ** 40 + 1
    assert sqrt_sum_sign(-big, 1, big * big, 0, 0) == 0
    assert sqrt_sum_sign(-big, 1, big * big + 1, 0, 0) == 1
    with pytest.raises(ValueError):
        sqrt_sum_sign(0, 1, -1, 0, 0)
