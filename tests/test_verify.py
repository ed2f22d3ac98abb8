"""Quantum verification suite: exact passes, the read-out of a residual at a
parameter point, and mutation sensitivity of every structure constant."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from singosc.opalg import (MUTABLE_CONSTANTS, QuadraticConstants, build_classical,
                           build_quantum, combine, commutator, verify_q3, verify_qp3)
from singosc.opalg import verify as verify_module
from singosc.opalg.verify import _ProductCache, quadratic_ac_rhs, quadratic_bc_rhs
from singosc.report import run_checks


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
    assert report["so-rotations[block1]"].detail == "1 generator"


@pytest.mark.parametrize("factor", [2, -1])
@pytest.mark.parametrize("verify, build, check", [
    (verify_q3, build_quantum, "so-rotations[block2]"),
    (verify_qp3, build_classical, "poisson-so[block2]"),
])
def test_a_rescaled_rotation_generator_fails_only_its_block(verify, build, check, factor):
    # (5,2): the second block is so(3), where each pair of generators brackets
    # to the third, so one rescaled generator breaks the relations it enters
    gens = build(5, 2)
    key = min(gens.K)
    bent = gens._replace(K={**gens.K, key: gens.K[key].scaled(factor)})
    report = verify(5, 2, gens=bent)
    assert [r.name for r in report.failures()] == [check]
    assert report[check].residual_terms > 0


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


MUTATION_GOLDEN = Path(__file__).resolve().parent / "golden" / "mutation-residuals-N4-n2.json"


@pytest.mark.parametrize("family, build, verify, keyword", [
    ("verify_q3", build_quantum, verify_q3, "constants"),
    ("verify_qp3", build_classical, verify_qp3, "quantum_constants"),
])
def test_every_bumped_constant_leaves_its_golden_residuals(family, build, verify, keyword):
    # each structure constant raised by one at (4,2): the failing checks and
    # their residual_terms; the reduced form is unique, so a rewrite of the
    # word sums that changes any residual shows here
    golden = json.loads(MUTATION_GOLDEN.read_text(encoding="utf-8"))[family]
    assert set(golden) == set(MUTABLE_CONSTANTS)
    gens = build(4, 2)
    consts = QuadraticConstants.for_dims(4, 2)
    for field_name, expected in golden.items():
        report = verify(4, 2, gens=gens, **{keyword: consts.bumped(field_name)})
        got = {r.name: r.residual_terms for r in report.failures()}
        assert got == expected, field_name


def test_every_bumped_constant_is_a_quadratic_constants():
    consts = QuadraticConstants.for_dims(4, 2)
    for name in MUTABLE_CONSTANTS:
        bumped = consts.bumped(name)
        assert type(bumped) is QuadraticConstants, name
        assert getattr(bumped, name) == getattr(consts, name) + 1
        assert bumped._replace(**{name: getattr(consts, name)}) == consts


def test_specific_mutation_from_4_to_3():
    # the B-coefficient N(N-4)/4 of the first relation, with N(N-4) -> N(N-3)
    N, n = 4, 2
    gens = build_quantum(N, n)
    cache = _ProductCache(gens)
    good = QuadraticConstants.for_dims(N, n)
    bad = good._replace(ac_b=Fraction(N * (N - 3), 4))
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
    assert [r["check"] for r in recs] == names
    assert all(r.wall_time >= 0 for r in report.results)
    assert report.total_time() == sum(r.wall_time for r in report.results)
    with pytest.raises(KeyError, match="no-such-check"):
        report["no-such-check"]


def test_run_checks_times_each_call_and_orders_the_report_by_name():
    calls = []

    def check(passed, terms, detail="", sleep=0.0):
        def run():
            calls.append(detail)
            time.sleep(sleep)
            return passed, terms, detail
        return run

    report = run_checks({"family": "f"}, [("b", check(True, 0, sleep=0.02)),
                                          ("a", check(False, 3, "x")), ("c", check(True, 0, "y"))])
    assert calls == ["", "x", "y"]  # run in the order given
    assert [r[:3] + r[4:] for r in report.results] == [
        ("a", False, 3, "x"), ("b", True, 0, ""), ("c", True, 0, "y")]
    assert report["b"].wall_time >= 0.02 and report["a"].wall_time >= 0
    assert report.records() == [
        {"family": "f", "check": "a", "passed": False, "residual_terms": 3, "detail": "x"},
        {"family": "f", "check": "b", "passed": True, "residual_terms": 0},
        {"family": "f", "check": "c", "passed": True, "residual_terms": 0, "detail": "y"}]
    assert [r.name for r in report.failures()] == ["a"] and not report.all_passed


def _count_derivatives(monkeypatch):
    # the derivative table takes each x derivative with diffop's binding of
    # poly._raw_diff_x, on a raw (num, den, j, k) tuple
    from singosc.opalg import diffop
    calls = []
    original = diffop._raw_diff_x

    def counted(layout, raw, i):
        calls.append((raw, i))  # holding raw keeps every id distinct
        return original(layout, raw, i)

    monkeypatch.setattr(diffop, "_raw_diff_x", counted)
    return calls


def test_a_verify_call_takes_each_derivative_once(monkeypatch):
    calls = _count_derivatives(monkeypatch)
    assert verify_q3(4, 2).all_passed
    assert calls
    assert len({(id(value), i) for value, i in calls}) == len(calls)


@pytest.mark.parametrize("verify, build", [(verify_q3, build_quantum),
                                           (verify_qp3, build_classical)])
def test_a_verify_call_builds_each_p_derivative_table_once(verify, build, monkeypatch):
    # a scaled word multiplies its scale into the products, so every table is
    # built for a word's own left factor and kept in the call's derivative
    # table, one per factor and Leibniz part, whatever scales the factor
    from singosc.opalg import diffop
    from singosc.opalg.poly import Derivatives
    built, tables = [], []
    original = diffop._p_derivatives

    def counted(f, part):
        built.append((f, part, original(f, part)))  # holding f keeps every id distinct
        return built[-1][2]

    class Recorded(Derivatives):
        def __init__(self):
            super().__init__()
            tables.append(self)

    gens = build(4, 2)
    monkeypatch.setattr(diffop, "_p_derivatives", counted)
    monkeypatch.setattr(verify_module, "Derivatives", Recorded)
    assert verify(4, 2, gens=gens).all_passed
    (table,) = tables
    assert built
    assert len({(id(f), part) for f, part, _ in built}) == len(built)
    assert all(table.of(f).get(part) is derived for f, part, derived in built)


def test_derivatives_do_not_outlive_a_verify_call(monkeypatch):
    gens = build_quantum(4, 2)
    calls = _count_derivatives(monkeypatch)
    counts = []
    for _ in range(2):
        calls.clear()
        assert verify_q3(4, 2, gens=gens).all_passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _ordered_so_scan(cache, key):
    """The so(m) check of one block over every ordered pair (L_ab, L_cd), the
    diagonal included: the first nonzero residual of bracket(L_ab, L_cd) =
    s (d_ac L_bd + d_bd L_ac - d_ad L_bc - d_bc L_ad), or the empty sum."""
    gens = getattr(cache.g, verify_module._BLOCKS[key])

    def L(x, y):
        """(sign, generator) with L_yx = -L_xy, or None for L_xx = 0."""
        return None if x == y else (1, gens[x, y]) if x < y else (-1, gens[y, x])
    residual = cache.combine([(0, cache.get("1"), None)])
    for (a, b), P in gens.items():
        for (c, d), Q in gens.items():
            words = cache.bracket_words(P, Q)
            for sign, delta, x, y in ((1, a == c, b, d), (1, b == d, a, c),
                                      (-1, a == d, b, c), (-1, b == c, a, d)):
                term = L(x, y)
                if delta and term:
                    s = cache.rotation if sign * term[0] < 0 else -cache.rotation
                    words.append((s, term[1], None))
            residual = cache.combine(words)
            if not residual.is_zero():
                return residual
    return residual


FAMILIES = [pytest.param(build_quantum, verify_q3, "so-rotations", id="quantum"),
            pytest.param(build_classical, verify_qp3, "poisson-so", id="classical")]


@pytest.mark.parametrize("bend", ["none", "one L_ab times 2", "K times 1/3"])
@pytest.mark.parametrize("N, n", [(4, 1), (5, 2)])
@pytest.mark.parametrize("build, verify, name", FAMILIES)
def test_so_records_match_an_ordered_pair_scan(build, verify, name, N, n, bend):
    gens = build(N, n)
    if bend == "one L_ab times 2":
        key = min(gens.K)
        gens = gens._replace(K={**gens.K, key: gens.K[key].scaled(2)})
    elif bend == "K times 1/3":
        gens = gens._replace(K={k: L.scaled(Fraction(1, 3)) for k, L in gens.K.items()})
    report = verify(N, n, gens=gens)
    cache = _ProductCache(gens)
    for block in verify_module._BLOCKS:
        residual = _ordered_so_scan(cache, block)
        result = report[f"{name}[{block}]"]
        assert (result.passed, result.residual_terms) == (residual.is_zero(),
                                                          residual.term_count())
    # the bent block fails
    assert report[f"{name}[block2]"].passed == (bend == "none")


@pytest.mark.parametrize("build, verify, name", FAMILIES)
def test_so_checks_bracket_each_unordered_pair_once(monkeypatch, build, verify, name):
    # (6,2): so(2) has one generator and no pair, so(4) six and 15 pairs
    gens = build(6, 2)
    cache = _ProductCache(gens)
    pair_sums = []
    for combiner in ("combine", "combine_phase"):
        def spy(words, derivatives=None, _combine=getattr(verify_module, combiner)):
            # a pair sum holds the bracket words; the empty sum holds none
            if any(word[2] is not None for word in words):
                pair_sums[-1] += 1
            return _combine(words, derivatives)
        monkeypatch.setattr(verify_module, combiner, spy)
    for block in verify_module._BLOCKS:
        g = len(getattr(gens, verify_module._BLOCKS[block]))
        pair_sums.append(0)
        assert verify_module._so_residual(cache, None, block, None).is_zero()
        assert pair_sums[-1] == g * (g - 1) // 2
    assert pair_sums == [0, 15]
