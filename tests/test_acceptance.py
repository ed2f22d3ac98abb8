"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else:
  - symbolic algebra checks: exact zeros of the rational arithmetic
  - FD vs closed form: 1e-6 relative after Richardson extrapolation
  - float cross-checks of exact identities: 1e-12 relative
  - runtime: < 300 s per (N, n) split, < 10 s per FD component
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from level_oracles import regular_level
from singosc.opalg import (MUTABLE_CONSTANTS, QuadraticConstants, build_quantum,
                           combine, commutator, verify_q3, verify_qp3)
from singosc.opalg.verify import _ProductCache, quadratic_ac_rhs, quadratic_bc_rhs
from singosc.qalg import (CentralEigs, exact_sqrt, m_values, set_solution, solve_unirreps,
                          structure_functions_agree, structure_poly_factored,
                          structure_poly_raw, verify_spectrum)
from singosc.radial import (ComponentSpec, GridSpec, closed_form, fd_eigenvalues,
                            sign_changes, total_energy, wavefunction_norm)

SPLITS = [(2, 1), (4, 1), (4, 2), (5, 2), (6, 3), (8, 4), (10, 5)]
PER_SPLIT_BUDGET_S = 300.0


def _announce(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {status}: {name}{suffix}")


@pytest.fixture(scope="module")
def q3_reports():
    reports = {}
    for N, n in SPLITS:
        start = time.perf_counter()
        reports[(N, n)] = (verify_q3(N, n), time.perf_counter() - start)
    return reports


def test_criterion_1_exact_q3_all_splits(q3_reports):
    ok = True
    details = []
    for (N, n), (report, elapsed) in q3_reports.items():
        names = [r.name for r in report.results
                 if not r.name.startswith("casimir")]
        split_ok = all(report[name].passed and report[name].residual_terms == 0
                       for name in names)
        split_ok = split_ok and elapsed < PER_SPLIT_BUDGET_S
        details.append(f"({N},{n}) {elapsed:.1f}s")
        ok = ok and split_ok
    _announce(1, "exact Q(3) residuals on all splits", ok, ", ".join(details))
    assert ok


def test_criterion_2_casimir_equivalence(q3_reports):
    ok = all(report["casimir[generators-vs-central]"].passed
             for report, _ in q3_reports.values())
    _announce(2, "Casimir: generator form equals central-element form", ok)
    assert ok


def test_criterion_3_classical_qp3():
    ok = True
    for N, n in [(4, 2), (6, 3), (8, 4), (10, 5)]:
        report = verify_qp3(N, n)
        ok = ok and report.all_passed
    _announce(3, "classical Poisson algebra and Casimir, (4,2) to (10,5)", ok)
    assert ok


def _random_rational_tuple(rng):
    N = rng.randrange(2, 9)
    n = rng.randrange(1, N)
    dims = (n, N - n)
    l1 = rng.randrange(0, 2 if dims[0] == 1 else 4)
    l2 = rng.randrange(0, 2 if dims[1] == 1 else 4)
    hbar = Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
    omega = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
    m1_min = abs(2 * l1 + dims[0] - 2)
    m2_min = abs(2 * l2 + dims[1] - 2)
    m1 = m1_min + Fraction(rng.randrange(0, 9), rng.randrange(1, 5))
    m2 = m2_min + Fraction(rng.randrange(0, 9), rng.randrange(1, 5))
    c1 = hbar ** 2 * (m1 ** 2 - m1_min ** 2) / 8
    c2 = hbar ** 2 * (m2 ** 2 - m2_min ** 2) / 8
    return CentralEigs(N=N, n=n, l_n=l1, l_Nn=l2, c1=c1, c2=c2,
                       hbar=hbar, omega=omega), m1, m2


def _random_irrational_tuple(rng):
    """Couplings redrawn until neither m1^2 nor m2^2 is the square of a rational."""
    while True:
        N = rng.randrange(2, 9)
        n = rng.randrange(1, N)
        ce = CentralEigs(N=N, n=n, l_n=rng.randrange(0, 2 if n == 1 else 4),
                         l_Nn=rng.randrange(0, 2 if N - n == 1 else 4),
                         c1=Fraction(rng.randrange(1, 40), rng.randrange(1, 6)),
                         c2=Fraction(rng.randrange(1, 40), rng.randrange(1, 6)),
                         hbar=Fraction(rng.randrange(1, 4), rng.randrange(1, 3)),
                         omega=Fraction(rng.randrange(1, 5), rng.randrange(1, 4)))
        mq = m_values(ce)
        if exact_sqrt(mq.m1_squared) is None and exact_sqrt(mq.m2_squared) is None:
            return ce


def test_criterion_4_structure_function_equivalence():
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        ce, m1, m2 = _random_rational_tuple(rng)
        mq = m_values(ce)
        ok = ok and mq.exact and mq.m1 == m1 and mq.m2 == m2
        u = Fraction(rng.randrange(-9, 9), rng.randrange(1, 8))
        energy = Fraction(rng.randrange(-9, 9), rng.randrange(1, 8))
        raw = structure_poly_raw(u, energy, ce)
        fac = structure_poly_factored(u, energy, ce)
        ok = ok and structure_functions_agree(raw, fac)
    # irrational m: exact equality at a rational (u, E) and at a closed-form
    # solution, which no root moved by 1e-40 keeps
    for _ in range(20):
        ce = _random_irrational_tuple(rng)
        sol = rng.choice(solve_unirreps(rng.randrange(0, 6), ce))
        for u, energy in ((Fraction(rng.randrange(-9, 9), rng.randrange(1, 8)),
                           Fraction(rng.randrange(-9, 9), rng.randrange(1, 8))),
                          (sol.u, sol.energy)):
            raw = structure_poly_raw(u, energy, ce)
            ok = ok and structure_functions_agree(raw, structure_poly_factored(u, energy, ce))
            offsets = [0] * 6
            offsets[rng.randrange(6)] = Fraction(1, 10 ** 40)
            moved = structure_poly_factored(u, energy, ce, root_offsets=offsets)
            ok = ok and not structure_functions_agree(raw, moved)
    _announce(4, "raw structure polynomial equals factorized form "
                 "(20 rational-m and 20 irrational-m tuples)", ok)
    assert ok


def test_criterion_5_triple_spectrum_agreement():
    rng = random.Random(55)
    ok = True
    max_fd_time = 0.0
    worst_rel = 0.0
    for _ in range(50):
        N = rng.randrange(2, 9)
        n = rng.randrange(1, N)
        dims = (n, N - n)
        l1 = 0 if dims[0] == 1 else rng.randrange(0, 4)
        l2 = 0 if dims[1] == 1 else rng.randrange(0, 4)
        c1 = Fraction(rng.randrange(0, 17), 4)
        c2 = Fraction(rng.randrange(0, 17), 4)
        p = rng.randrange(0, 5)
        n1 = rng.randrange(0, p + 1)
        n2 = p - n1
        ce = CentralEigs(N=N, n=n, l_n=l1, l_Nn=l2, c1=c1, c2=c2)
        mq = m_values(ce)
        spec1 = ComponentSpec(m=dims[0], c=c1, l=l1)
        spec2 = ComponentSpec(m=dims[1], c=c2, l=l2)
        # exact agreement via m = 2 alpha on the squares
        ok = ok and mq.m1_squared == 4 * spec1.alpha_squared
        ok = ok and mq.m2_squared == 4 * spec2.alpha_squared
        _, e_alg = set_solution(1, 1, 1, p, ce)
        tot = total_energy(closed_form(spec1, n1), closed_form(spec2, n2))
        # the level of separation of variables, exactly; the float closed form
        # to rounding
        e_level = regular_level(N, n, c1, c2, p, l1, l2, tot.energy).energy_exact
        ok = ok and e_alg == e_level
        ok = ok and abs(tot.energy - float(e_level)) <= 1e-12 * abs(tot.energy)
        # FD cross-check, one component at a time
        e_fd = 0.0
        for spec, nr in ((spec1, n1), (spec2, n2)):
            start = time.perf_counter()
            result = fd_eigenvalues(spec, GridSpec(nodes=256), count=nr + 1)
            elapsed = time.perf_counter() - start
            max_fd_time = max(max_fd_time, elapsed)
            e_fd += result.energies[nr]
        rel = abs(e_fd - tot.energy) / abs(tot.energy)
        worst_rel = max(worst_rel, rel)
        ok = ok and rel < 1e-6
    ok = ok and max_fd_time < 10.0
    _announce(5, "algebraic = separation = FD spectrum (50 tuples)", ok,
              f"worst FD rel {worst_rel:.2e}, slowest component {max_fd_time:.2f}s")
    assert ok


def test_criterion_6_harmonic_limit():
    ok = True
    for N in (4, 8):
        # the energies and the degeneracies of the level tables, all partitions
        report = verify_spectrum(N, 1, e_cut=Fraction(N, 2) + 6)
        ok = ok and all(report[name].passed and report[name].residual_terms == 0
                        for name in ("harmonic-limit[c=0]", "oscillator-count[c=0]"))
    _announce(6, "harmonic limit energies and counts, N in {4, 8}, l <= 6", ok)
    assert ok


def test_criterion_7_unirrep_positivity():
    rng = random.Random(777)
    ok = True
    tuples = []
    while len(tuples) < 100:
        ce, m1, m2 = _random_rational_tuple(rng)
        if m1 != 0 and m2 != 0:
            tuples.append(ce)
    tuples += [_random_irrational_tuple(rng) for _ in range(40)]
    checked = 0
    for ce in tuples:
        p = rng.randrange(0, 11)
        sols = solve_unirreps(p, ce)
        for sol in sols:
            if (sol.eps1, sol.eps2) != (1, 1) or sol.set_id == 2:
                continue
            checked += 1
            ok = ok and sol.admissible and sol.failing_x is None
            phi = structure_poly_factored(sol.u, sol.energy, ce)
            ok = ok and phi(0) == 0 and phi(p + 1) == 0
            ok = ok and all(phi(x) > 0 for x in range(1, p + 1))
    _announce(7, "positivity of the structure function on eps=(+1,+1) branches", ok,
              f"{len(tuples)} tuples (40 with irrational m), {checked} branch checks")
    assert ok and checked >= 2 * len(tuples)


def test_criterion_8_mutation_sensitivity():
    ok = True
    N, n = 4, 2
    gens = build_quantum(N, n)
    cache = _ProductCache(gens)
    base = QuadraticConstants.for_dims(N, n)
    lhs_ac = commutator(gens.A, cache.get("C"))
    lhs_bc = commutator(gens.B, cache.get("C"))
    assert (lhs_ac - combine(cache.graded(quadratic_ac_rhs(cache, base)))).is_zero()
    assert (lhs_bc - combine(cache.graded(quadratic_bc_rhs(cache, base)))).is_zero()
    for field_name in MUTABLE_CONSTANTS:
        mutated = base.bumped(field_name)
        ac = (lhs_ac - combine(cache.graded(quadratic_ac_rhs(cache, mutated)))).is_zero()
        bc = (lhs_bc - combine(cache.graded(quadratic_bc_rhs(cache, mutated)))).is_zero()
        ok = ok and not (ac and bc)
    # each factorized-root perturbation must break raw/factored equality
    rng = random.Random(9)
    ce, _, _ = _random_rational_tuple(rng)
    u, energy = Fraction(1, 3), Fraction(7, 2)
    raw = structure_poly_raw(u, energy, ce)
    assert structure_functions_agree(raw, structure_poly_factored(u, energy, ce))
    for idx in range(6):
        offsets = [Fraction(0)] * 6
        offsets[idx] = Fraction(1)
        mutated_fn = structure_poly_factored(u, energy, ce, root_offsets=offsets)
        ok = ok and not structure_functions_agree(raw, mutated_fn)
    _announce(8, "every structure-constant and root mutation is detected", ok,
              f"{len(MUTABLE_CONSTANTS)} constants + 6 roots")
    assert ok


def test_criterion_9_oscillation_and_normalization():
    ok = True
    spec = ComponentSpec(m=3, c=Fraction(1, 2), l=1)
    vectors = fd_eigenvalues(spec, GridSpec(nodes=256), count=5).vectors
    for k in range(5):
        ok = ok and sign_changes(vectors[:, k]) == k
    # quadrature of the printed wavefunction converges to one
    for test_spec, nr in ((ComponentSpec(m=2), 1), (ComponentSpec(m=2, c=Fraction(2)), 0),
                          (ComponentSpec(m=4, l=2, c=Fraction(1, 3)), 2)):
        value, err = wavefunction_norm(closed_form(test_spec, nr))
        ok = ok and err < 1e-6 and abs(value - 1.0) < 1e-8
    # the two-dimensional family integrates to exactly one
    value, err = wavefunction_norm(closed_form(ComponentSpec(m=2), 0))
    ok = ok and abs(value - 1.0) < 1e-6
    _announce(9, "FD oscillation theorem and wavefunction normalization", ok)
    assert ok
