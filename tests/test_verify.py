"""Quantum verification suite: exact passes, the read-out of a residual at a
parameter point, and mutation sensitivity of every structure constant."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singosc.opalg import (MUTABLE_CONSTANTS, QuadraticConstants, build_quantum, combine,
                           commutator, verify_q3)
from singosc.opalg import verify as verify_module
from singosc.opalg.verify import _ProductCache, quadratic_ac_rhs, quadratic_bc_rhs


def test_small_split_passes_symbolically():
    report = verify_q3(2, 1)
    assert report.all_passed, [r.name for r in report.failures()]
    assert report["casimir[generators-vs-central]"].passed
    assert report["quadratic[A,C]"].residual_terms == 0


def test_asymmetric_split_passes():
    report = verify_q3(4, 2)
    assert report.all_passed, [r.name for r in report.failures()]


def test_sampled_mode_passes():
    rng = random.Random(3)
    values = {"hbar": Fraction(rng.randrange(1, 20), 7),
              "omega": Fraction(5, 3),
              "c1": Fraction(9, 4), "c2": Fraction(2, 11)}
    report = verify_q3(4, 2, substitutions=values)
    assert report.all_passed, [r.name for r in report.failures()]


@pytest.mark.parametrize("seed", [1, 2])
def test_sampled_mode_checks_rotations_of_a_three_dimensional_block(seed):
    # (5,2): so(3) on the second block is the smallest non-abelian rotation algebra,
    # and each of its pairs is read at the point
    rng = random.Random(seed)
    values = {name: Fraction(rng.randrange(1, 40), rng.randrange(1, 12))
              for name in ("hbar", "omega", "c1", "c2")}
    report = verify_q3(5, 2, casimir=False, substitutions=values)
    assert report.all_passed, [r.name for r in report.failures()]
    assert report["so-rotations[block2]"].detail == "3 generators"


def test_a_sampled_check_reads_the_symbolic_residual_at_the_point():
    # a unit bump of the c1 H coefficient leaves c1 H in the residual of [A, C]
    gens = build_quantum(4, 2)
    consts = QuadraticConstants.for_dims(4, 2).bumped("ac_c1h")
    check = "quadratic[A,C]"
    symbolic = verify_q3(4, 2, constants=consts, gens=gens)[check]
    assert not symbolic.passed and symbolic.residual_terms > 0
    assert verify_q3(4, 2, constants=consts, gens=gens, substitutions={"c1": 0})[check].passed
    rng = random.Random(5)
    point = {name: Fraction(rng.randrange(1, 40), rng.randrange(1, 12))
             for name in ("hbar", "omega", "c1", "c2")}
    cache = _ProductCache(gens)
    residual = verify_module.quadratic_residual(cache, gens.A, quadratic_ac_rhs(cache, consts))
    sampled = verify_q3(4, 2, constants=consts, gens=gens, substitutions=point)[check]
    assert not sampled.passed
    assert sampled.residual_terms == residual.substitute_params(point).term_count() > 0


@pytest.mark.parametrize("field_name", MUTABLE_CONSTANTS)
def test_mutating_any_structure_constant_fails(field_name):
    N, n = 4, 2
    gens = build_quantum(N, n)
    cache = _ProductCache(gens)
    consts = QuadraticConstants.for_dims(N, n).bumped(field_name)
    ac = commutator(gens.A, cache.get("C")) - combine(cache.graded(quadratic_ac_rhs(cache, consts)))
    bc = commutator(gens.B, cache.get("C")) - combine(cache.graded(quadratic_bc_rhs(cache, consts)))
    assert not (ac.is_zero() and bc.is_zero()), field_name


def test_specific_mutation_from_4_to_3():
    # the B-coefficient N(N-4)/4 of the first relation, with N(N-4) -> N(N-3)
    N, n = 4, 2
    gens = build_quantum(N, n)
    cache = _ProductCache(gens)
    good = QuadraticConstants.for_dims(N, n)
    import dataclasses
    bad = dataclasses.replace(good, ac_b=Fraction(N * (N - 3), 4))
    lhs = commutator(gens.A, cache.get("C"))
    assert (lhs - combine(cache.graded(quadratic_ac_rhs(cache, good)))).is_zero()
    residual = lhs - combine(cache.graded(quadratic_ac_rhs(cache, bad)))
    assert not residual.is_zero()
    assert residual.term_count() > 0


def perturbed_word(table, idx):
    """``table`` with the scale of its graded word ``idx`` raised by one."""
    def build(cache):
        words = table(cache)
        power, scale, f, g = words[idx]
        words[idx] = (power, scale + 1, f, g)
        return words
    return build


@pytest.mark.parametrize("side", ["generators", "central"])
def test_perturbing_any_casimir_word_leaves_a_residual(side, monkeypatch):
    # (4,2): both so(2) Casimirs are nonzero, so every word contributes
    gens = build_quantum(4, 2)
    name = "casimir_generator_terms" if side == "generators" else "casimir_central_terms"
    table = getattr(verify_module, name)
    check = "casimir[generators-vs-central]"
    assert verify_q3(4, 2, gens=gens)[check].passed
    for idx in range(len(table(_ProductCache(gens)))):
        monkeypatch.setattr(verify_module, name, perturbed_word(table, idx))
        result = verify_q3(4, 2, gens=gens)[check]
        assert not result.passed and result.residual_terms > 0, idx


def test_report_is_name_ordered_and_serializable():
    report = verify_q3(2, 1, casimir=False)
    names = [r.name for r in report.results]
    assert names == sorted(names)
    recs = report.records()
    assert all("wall_time_s" not in r for r in recs)
    timed = report.records(include_timing=True)
    assert all("wall_time_s" in r for r in timed)
    assert report.total_time() >= 0


def _count_derivatives(monkeypatch):
    from singosc.opalg import BlockPoly
    calls = []
    original = BlockPoly.diff_x

    def counted(self, i):
        calls.append((self, i))  # holding self keeps every id distinct
        return original(self, i)

    monkeypatch.setattr(BlockPoly, "diff_x", counted)
    return calls


def test_a_verify_call_takes_each_derivative_once(monkeypatch):
    calls = _count_derivatives(monkeypatch)
    assert verify_q3(4, 2).all_passed
    assert calls
    assert len({(id(value), i) for value, i in calls}) == len(calls)


def test_derivatives_do_not_outlive_a_verify_call(monkeypatch):
    gens = build_quantum(4, 2)
    calls = _count_derivatives(monkeypatch)
    counts = []
    for _ in range(2):
        calls.clear()
        assert verify_q3(4, 2, gens=gens).all_passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
