"""Command-line behavior: dispatch, exit codes, determinism, config precedence."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import singosc
from singosc import levels, qalg, radial, relations
from singosc.cli import (_OPTIONS, CONFIG_KEYS, SPECTRUM_RECORDS_LIMIT, SUBCOMMANDS, ConfigError,
                         _cmd_spectrum, _flags, main)
from singosc.levels import enumerate_levels

GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_algebra_passes(capsys):
    code, out, _ = _run(capsys, ["verify-algebra", "--N", "2", "--n", "1"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(rec["passed"] for rec in records)
    assert any(rec["check"] == "casimir[generators-vs-central]" for rec in records)


def test_invalid_partition_exits_2(capsys):
    code, _, err = _run(capsys, ["verify-algebra", "--N", "4", "--n", "0"])
    assert code == 2
    assert "invalid partition" in err


@pytest.mark.parametrize("flag", ["--p-max", "--l-max"])
def test_spectrum_with_negative_range_exits_2(capsys, flag):
    code, out, err = _run(capsys, ["spectrum", "--N", "4", "--n", "2", flag, "-1"])
    assert code == 2
    assert out == ""
    assert f"{flag} must be at least 0" in err


@pytest.mark.parametrize("N, n, p_max, l_max, count", [
    (4, 2, 20, 400, 40_521_852), (4, 2, 20, 28, 211_932), (4, 1, 20, 400, 202_104)])
def test_spectrum_over_the_record_limit_is_refused_before_any_record(
        monkeypatch, capsys, N, n, p_max, l_max, count):
    # 12 records per (p, l_n, l_Nn); a one-coordinate block counts l up to 1
    assert count > SPECTRUM_RECORDS_LIMIT
    monkeypatch.setattr(qalg, "CentralEigs", None)  # building any record would fail
    opts = {"N": N, "n": n, "p_max": p_max, "l_max": l_max, "c1": 0, "c2": 0, "hbar": 1,
            "omega": 1}
    with pytest.raises(ConfigError, match=f"--p-max {p_max} and --l-max {l_max} give {count} "
                                          f"records, above the limit of {SPECTRUM_RECORDS_LIMIT}"):
        _cmd_spectrum(opts)
    code, out, err = _run(capsys, ["spectrum", "--N", str(N), "--n", str(n),
                                   "--p-max", str(p_max), "--l-max", str(l_max)])
    assert (code, out) == (2, "")
    assert "--p-max" in err and "--l-max" in err


@pytest.mark.parametrize("cut", ["0", "-3", "1"])
def test_levels_below_the_ground_level_exits_2(capsys, cut):
    # the ground level of (4,2) at c1 = c2 = 0 is 2 hbar omega
    code, out, err = _run(capsys, ["levels", "--N", "4", "--n", "2", "--e-cut", cut])
    assert code == 2
    assert out == ""
    assert f"no level lies at or below --e-cut {cut}" in err
    code, out, _ = _run(capsys, ["levels", "--N", "4", "--n", "2", "--e-cut", "2"])
    assert code == 0 and len(out.splitlines()) == 1


@pytest.mark.parametrize("flag, value", [("--hbar", "-1"), ("--hbar", "0"),
                                         ("--omega", "-1"), ("--omega", "0")])
def test_levels_with_non_positive_hbar_or_omega_exits_2(capsys, flag, value):
    code, out, err = _run(capsys, ["levels", "--N", "3", "--n", "1", flag, value])
    assert code == 2
    assert out == ""
    assert "hbar and omega must be positive" in err


def test_bad_rational_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for value in ("0.25x", "1/0"):
        # argparse names the flag
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--N", "4", "--n", "2", "--c1", value])
        assert exc.value.code == 2
        assert f"argument --c1: not an exact rational: {value!r}" in capsys.readouterr().err
        # and the config reader the key
        cfg.write_text(f"c1 = {value}\n")
        code, out, err = _run(capsys, ["--config", str(cfg), "spectrum", "--N", "4", "--n", "2"])
        assert (code, out) == (2, "")
        assert f"config c1 = {value!r}: expected an exact rational" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--hbar", "0", "hbar and omega must be positive"),
    ("--c1", "-1", "couplings must be non-negative"),
])
def test_levels_errors_do_not_blame_the_e_cut(capsys, flag, value, message):
    code, out, err = _run(capsys, ["levels", "--N", "4", "--n", "2", flag, value])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_too_few_grid_nodes_exit_2_naming_the_flag(tmp_path, capsys):
    code, out, err = _run(capsys, ["radial", "--m", "2", "--grid-nodes", "48"])
    assert (code, out) == (2, "")
    assert err == "error: --grid-nodes 48: need at least 64 nodes\n"
    # the other grid errors keep their own wording
    code, out, err = _run(capsys, ["radial", "--m", "2", "--r-max", "0.5"])
    assert (code, out) == (2, "")
    assert err == "error: r_max=0.5 is below the classical turning point\n"


def test_an_fd_grid_past_the_memory_limit_exits_2_before_solving(capsys):
    # 10^8 nodes would need about 10^11 bytes; the refusal builds no array
    code, out, err = _run(capsys, ["radial", "--m", "2", "--grid-nodes", "100000000"])
    assert (code, out) == (2, "")
    assert err == ("error: 100000000 nodes at count 3 need about 102400000000 bytes, "
                   f"above the FD limit of {radial.FD_MEMORY_LIMIT} bytes\n")


def test_byte_identical_output_for_same_config(capsys):
    argv = ["spectrum", "--N", "4", "--n", "2", "--c1", "1", "--c2", "1",
            "--p-max", "2", "--l-max", "1"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2 and out1


def test_csv_format_and_output_file(tmp_path, capsys):
    target = tmp_path / "levels.csv"
    code, out, _ = _run(capsys, ["levels", "--N", "4", "--n", "2", "--e-cut", "9/2",
                                 "--format", "csv", "--output", str(target)])
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    header = lines[0].split(",")
    assert {"energy_over_hw", "p", "l_n", "l_Nn", "degeneracy"} <= set(header)
    assert len(lines) > 3


@pytest.mark.parametrize("target", ["a-directory", "missing/dir/x.jsonl"])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, target):
    (tmp_path / "a-directory").mkdir()
    path = str(tmp_path / target)
    code, out, err = _run(capsys, ["levels", "--N", "4", "--n", "2", "--output", path])
    assert (code, out) == (2, "")
    assert f"error: cannot write --output {path}: " in err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for this run\np_max = 1\nl_max = 0\nc1 = 2\n")
    code, out, _ = _run(capsys, ["--config", str(cfg), "spectrum",
                                 "--N", "4", "--n", "2", "--c1", "3"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    # flag wins over config for c1; config wins over default for p_max
    assert all(rec["c1"] == "3" for rec in records)
    assert {rec["p"] for rec in records} == {0, 1}
    assert all(rec["l_n"] == 0 for rec in records)


def test_radial_subcommand(capsys):
    code, out, _ = _run(capsys, ["radial", "--m", "2", "--c", "1", "--count", "2"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert all(rec["fd_rel_error"] < 1e-6 for rec in records)
    assert all(rec["fd_converged"] is True for rec in records)


def test_wavefunction_subcommand(capsys):
    code, out, _ = _run(capsys, ["wavefunction", "--m", "3", "--l", "1",
                                 "--nr", "1", "--samples", "50"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 50
    assert all("psi" in rec and "r" in rec for rec in records)


def test_wavefunction_output_is_pinned(capsys):
    # the README command: every sample of one array evaluation, byte for byte
    # the values of one float call per sample
    code, out, _ = _run(capsys, ["wavefunction", "--m", "3", "--l", "1", "--nr", "2",
                                 "--samples", "100"])
    assert code == 0
    golden = GOLDEN / "wavefunction-m3-l1-nr2-samples100.jsonl"
    assert out == golden.read_text(encoding="utf-8")


def _strict_json(line: str) -> dict:
    """One JSON record; NaN and Infinity, which JSON does not have, raise."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(line, parse_constant=refuse)


def test_wavefunction_of_a_highly_excited_mode_is_finite_json(capsys):
    code, out, _ = _run(capsys, ["wavefunction", "--m", "3", "--l", "1",
                                 "--nr", "200", "--samples", "20"])
    assert code == 0
    records = [_strict_json(line) for line in out.splitlines()]
    assert len(records) == 20
    assert all(math.isfinite(rec["psi"]) for rec in records)


def test_verify_poisson_subcommand(capsys):
    code, out, _ = _run(capsys, ["verify-poisson", "--N", "3", "--n", "1"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(rec["passed"] for rec in records)
    assert any(rec["check"].startswith("classical-limit") for rec in records)


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--samples", "0", "--samples must be at least 1", id="0"),
    pytest.param("--samples", "-5", "--samples must be at least 1", id="-5"),
    pytest.param("--samples", "100001", "--samples 100001 is above the limit of 100000",
                 id="past-limit"),
    # a zero radius is not the default radius
    pytest.param("--r-max", "0", "--r-max must be a positive finite number", id="r-max-0"),
    pytest.param("--r-max", "-1", "--r-max must be a positive finite number", id="r-max--1"),
])
def test_wavefunction_without_samples_exits_2(capsys, flag, value, message):
    code, out, err = _run(capsys, ["wavefunction", "--m", "3", "--l", "1", "--nr", "2",
                                   flag, value])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("nr", [-1, radial.NR_LIMIT + 1, 10 ** 8])
def test_wavefunction_past_the_nr_limit_exits_2_before_any_sample(capsys, monkeypatch, nr):
    # refused in radial.closed_form, so no sample is evaluated
    def refuse(*args):
        raise AssertionError("wavefunction evaluated")
    monkeypatch.setattr(radial, "wavefunction", refuse)
    code, out, err = _run(capsys, ["wavefunction", "--m", "3", "--nr", str(nr)])
    assert (code, out) == (2, "")
    assert (f"--nr {nr}: the radial quantum number must be an integer from 0 to "
            f"{radial.NR_LIMIT}") in err
    assert radial.closed_form(radial.ComponentSpec(m=3), radial.NR_LIMIT).Nr == radial.NR_LIMIT


@pytest.mark.parametrize("command", ["wavefunction", "radial"])
@pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
def test_non_finite_r_max_exits_2(tmp_path, capsys, command, value):
    # 1e400 overflows to inf when parsed; nan fails every comparison
    code, out, err = _run(capsys, [command, "--m", "2", "--r-max", value])
    assert (code, out) == (2, "")
    assert "--r-max must be a positive finite number" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"r_max = {value}\n")
    code, out, err = _run(capsys, ["--config", str(cfg), command, "--m", "2"])
    assert (code, out) == (2, "")
    assert "--r-max must be a positive finite number" in err


def test_levels_with_an_e_cut_past_the_float_range_exits_2(capsys):
    code, out, err = _run(capsys, ["levels", "--N", "4", "--n", "2", "--e-cut", "1e400"])
    assert (code, out) == (2, "")
    assert "e_cut 1.00E+400 is above 64 hbar omega" in err


def _without_observed_orders(monkeypatch):
    """Make every FD order unobservable (NaN), as when two grids agree."""
    richardson = radial._richardson

    def no_orders(raw):
        energies, orders = richardson(raw)
        return energies, [math.nan] * len(orders)
    monkeypatch.setattr(radial, "_richardson", no_orders)


def test_radial_without_fd_convergence_exits_1(capsys, monkeypatch):
    # no order is observed, and with r_max = 4.5 the levels Nr = 1, 2 also miss
    # 1e-6 (by about 6.7x and 250x); Nr = 0 does not
    _without_observed_orders(monkeypatch)
    code, out, err = _run(capsys, ["radial", "--m", "2", "--count", "3", "--r-max", "4.5"])
    assert code == 1
    assert all(json.loads(line)["fd_converged"] is False for line in out.splitlines())
    assert err.startswith("FAILED: Nr=0 (fd_converged false), Nr=1 (")
    assert err.count("> 1e-6)") == 2
    for nr in (1, 2):
        assert f"Nr={nr} (fd_converged false, fd_rel_error " in err


def test_radial_failure_names_only_the_reason_that_holds(capsys, monkeypatch):
    # no order is observed, but the levels still agree
    _without_observed_orders(monkeypatch)
    code, out, err = _run(capsys, ["radial", "--m", "2", "--c", "1", "--count", "2"])
    assert code == 1
    # strict JSON: the order that could not be observed is null, not NaN
    records = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert all(rec["fd_rel_error"] < 1e-6 for rec in records)
    assert all(rec["fd_observed_order"] is None for rec in records)
    assert err.strip() == "FAILED: Nr=0 (fd_converged false), Nr=1 (fd_converged false)"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_samples_default_depends_on_the_subcommand(tmp_path, capsys):
    code, out, _ = _run(capsys, ["wavefunction", "--m", "3", "--l", "1"])
    assert code == 0
    assert len(out.splitlines()) == 200
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 7\n")
    _, out, _ = _run(capsys, ["--config", str(cfg), "wavefunction", "--m", "3"])
    assert len(out.splitlines()) == 7
    _, out, _ = _run(capsys, ["--config", str(cfg), "wavefunction", "--m", "3",
                              "--samples", "5"])
    assert len(out.splitlines()) == 5


def test_spectrum_output_is_pinned(capsys):
    # m2 is rational at l_Nn = 1 and irrational otherwise; m1 is always irrational
    code, out, _ = _run(capsys, ["spectrum", "--N", "5", "--n", "2", "--c1", "3/7",
                                 "--c2", "5", "--p-max", "6", "--l-max", "3"])
    assert code == 0
    golden = GOLDEN / "spectrum-N5-n2-c1-3_7-c2-5.jsonl"
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["verify-algebra", "verify-poisson"])
@pytest.mark.parametrize("N, n", [(4, 2), (5, 2)])
def test_verify_output_is_pinned(capsys, command, N, n):
    # (5,2) carries so(3), the smallest block with non-commuting rotations
    code, out, _ = _run(capsys, [command, "--N", str(N), "--n", str(n)])
    assert code == 0
    golden = GOLDEN / f"{command}-N{N}-n{n}.jsonl"
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["verify-algebra", "verify-poisson"])
@pytest.mark.parametrize("N, n", [(4, 2), (5, 2)])
def test_timings_go_to_stderr_and_leave_stdout_pinned(capsys, command, N, n):
    code, out, err = _run(capsys, [command, "--N", str(N), "--n", str(n), "--timings"])
    assert code == 0
    golden = (GOLDEN / f"{command}-N{N}-n{n}.jsonl").read_text(encoding="utf-8")
    assert out == golden
    # one line per check, in record order, then the summary line
    lines = err.splitlines()
    assert lines[-1].startswith(f"{command} ({N},{n}): ")
    assert [line.split()[0] for line in lines[:-1]] == [
        json.loads(rec)["check"] for rec in golden.splitlines()]
    for line in lines[:-1]:
        _, seconds, unit, terms, *rest = line.split()
        assert float(seconds) >= 0 and unit == "s"
        assert (terms, rest) == ("0", ["residual", "terms"])


# golden file -> verify-spectrum arguments: irrational m at (5,2), a
# one-coordinate parity block at c = 0 at (3,1), and the levels golden's input
# at (4,2), whose levels merge through sqrt 2, sqrt 32 and sqrt 50
_SPECTRUM_GOLDENS = {
    "verify-spectrum-N5-n2-c1-3_7-c2-5.jsonl":
        ["--N", "5", "--n", "2", "--c1", "3/7", "--c2", "5", "--e-cut", "12"],
    "verify-spectrum-N3-n1-c1-0-c2-2.jsonl":
        ["--N", "3", "--n", "1", "--c1", "0", "--c2", "2", "--e-cut", "10"],
    "verify-spectrum-N4-n2-c1-1_2-c2-7_2.jsonl":
        ["--N", "4", "--n", "2", "--c1", "1/2", "--c2", "7/2", "--e-cut", "14"],
}
_SPECTRUM_CHECKS = ["energies", "harmonic-limit[c=0]", "oscillator-count[c=0]", "recursion",
                    "structure-functions"]


@pytest.mark.parametrize("golden", _SPECTRUM_GOLDENS)
def test_verify_spectrum_output_is_pinned(capsys, golden):
    argv = ["verify-spectrum", *_SPECTRUM_GOLDENS[golden]]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["check"] for rec in records] == _SPECTRUM_CHECKS
    for rec in records:
        assert rec["passed"] and rec["residual_terms"] == 0
        assert (rec["family"], rec["N"], rec["n"]) == ("spectrum", int(argv[2]), int(argv[4]))
        assert (rec["c1"], rec["c2"]) == (argv[6], argv[8])
        assert int(rec["detail"].split()[0]) > 0
    # --timings writes one line per check and a summary to stderr only
    code, timed, err = _run(capsys, [*argv, "--timings"])
    assert code == 0 and timed == out
    lines = err.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == _SPECTRUM_CHECKS
    assert lines[-1].startswith(f"verify-spectrum ({argv[2]},{argv[4]}): 5 checks in ")


def _spectrum_records(capsys, argv: list[str]) -> tuple[int, dict]:
    code, out, _ = _run(capsys, ["verify-spectrum", *argv])
    return code, {rec["check"]: rec for rec in map(json.loads, out.splitlines())}


def test_a_shifted_algebraic_energy_fails_energies(capsys, monkeypatch):
    solve = qalg.set_solution

    def shifted(set_id, eps1, eps2, p, ce):
        u, energy = solve(set_id, eps1, eps2, p, ce)
        return u, energy + ce.hbar * ce.omega / 1000

    monkeypatch.setattr(qalg, "set_solution", shifted)
    code, records = _spectrum_records(
        capsys, ["--N", "5", "--n", "2", "--c1", "3/7", "--c2", "5", "--e-cut", "12"])
    assert code == 1
    failed = {name: rec["residual_terms"] for name, rec in records.items() if not rec["passed"]}
    # every label of the given couplings, and every c = 0 label of each split
    assert failed == {"energies": 73, "harmonic-limit[c=0]": 360}


def test_a_wrong_harmonic_dimension_fails_the_oscillator_count(capsys, monkeypatch):
    # one degree-2 harmonic too many in each block of three or more
    # dimensions moves only the c = 0 degeneracies the count compares
    dim_harm = levels.dim_harm
    monkeypatch.setattr(levels, "dim_harm", lambda m, l: dim_harm(m, l) + (m >= 3 and l == 2))
    code, records = _spectrum_records(
        capsys, ["--N", "5", "--n", "2", "--c1", "3/7", "--c2", "5", "--e-cut", "12"])
    assert code == 1
    failed = {name: rec["residual_terms"] for name, rec in records.items() if not rec["passed"]}
    assert failed == {"oscillator-count[c=0]": 32}


def test_energies_hold_on_the_two_dimensional_harmonic_labels(capsys):
    # at (2,1) and c = 0 the algebraic energy of every label is its level's,
    # l = (0,0) with p >= 1 included, whose branch solve_unirreps refuses:
    # what fails there is the verdict, not the energy
    code, records = _spectrum_records(
        capsys, ["--N", "2", "--n", "1", "--c1", "0", "--c2", "0", "--e-cut", "12"])
    assert code == 0
    energies = records["energies"]
    assert energies["passed"] and energies["residual_terms"] == 0
    assert energies["detail"] == "23 (p, l_n, l_Nn) labels checked"
    labels = {label[:3] for level in enumerate_levels(2, 1, e_cut=12).levels
              for label in level.labels}
    assert len(labels) == 23 and {(p, 0, 0) for p in range(1, 6)} <= labels


def _failed_spectrum_checks(capsys) -> dict:
    """The failing checks of verify-spectrum at (5,2), c1 = 3/7, c2 = 5 up to
    E = 9: 21 labels, 5 of them with two usable points of the recursion."""
    code, out, err = _run(capsys, ["verify-spectrum", "--N", "5", "--n", "2", "--c1", "3/7",
                                   "--c2", "5", "--e-cut", "9"])
    failed = {rec["check"]: rec["residual_terms"]
              for rec in map(json.loads, out.splitlines()) if not rec["passed"]}
    assert code == (1 if failed else 0)
    if failed:
        assert err.splitlines()[-1] == f"FAILED: {', '.join(sorted(failed))}"
    return failed


def test_a_bumped_relation_constant_fails_verify_spectrum(capsys, monkeypatch):
    assert _failed_spectrum_checks(capsys) == {}
    base = relations.QuadraticConstants.for_dims(5, 2)
    for field_name in relations.MUTABLE_CONSTANTS:
        bumped = base.bumped(field_name)
        monkeypatch.setattr(relations.QuadraticConstants, "for_dims",
                            classmethod(lambda cls, N, n, bumped=bumped: bumped))
        failed = _failed_spectrum_checks(capsys)
        # gamma' of [B, C] enters the recursion, not Phi
        want = ["recursion"] if field_name == "bc_b2" else ["recursion", "structure-functions"]
        assert sorted(failed) == want, field_name
        assert all(failed.values()), field_name


def test_a_moved_phi_root_fails_verify_spectrum(capsys, monkeypatch):
    roots = qalg.factored_roots
    for index in range(6):
        def moved(energy, ce, index=index):
            out = roots(energy, ce)
            out[index] = out[index] + 1
            return out
        monkeypatch.setattr(qalg, "factored_roots", moved)
        failed = _failed_spectrum_checks(capsys)
        # every label's Phi moves: 21 of 21 fail
        assert failed["structure-functions"] == 21, index


def test_a_spectrum_check_that_checks_nothing_fails(capsys):
    # at the ground level of (4,2) only p = 0 is below the cut, and the
    # recursion needs two usable points: it skips that label, checks none and fails
    code, out, err = _run(capsys, ["verify-spectrum", "--N", "4", "--n", "2", "--e-cut", "2"])
    assert code == 1
    records = {rec["check"]: rec for rec in map(json.loads, out.splitlines())}
    assert records["recursion"]["passed"] is False
    assert records["recursion"]["residual_terms"] == 0
    assert records["recursion"]["detail"] == "0 (p, l_n, l_Nn) labels checked, 1 skipped"
    assert all(rec["passed"] for name, rec in records.items() if name != "recursion")
    assert err.splitlines()[-1] == "FAILED: recursion"


@pytest.mark.parametrize("cut", ["0", "-3", "1"])
def test_verify_spectrum_below_the_ground_level_exits_2(capsys, cut):
    code, out, err = _run(capsys, ["verify-spectrum", "--N", "4", "--n", "2", "--e-cut", cut])
    assert code == 2
    assert out == ""
    assert f"no level lies at or below e_cut {cut}" in err


def test_levels_past_the_e_cut_limit_exits_2_at_once(capsys):
    # without the limit, --e-cut 1000 would build a table of about 8*10^7
    # label entries
    start = time.perf_counter()
    code, out, err = _run(capsys, ["levels", "--N", "4", "--n", "2", "--e-cut", "1000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "e_cut 1000 is above 64 hbar omega" in err
    # the limit is in units of hbar omega, and a cut at it is accepted
    code, out, _ = _run(capsys, ["levels", "--N", "2", "--n", "1", "--e-cut", "64"])
    assert code == 0 and out
    code, out, err = _run(capsys, ["levels", "--N", "2", "--n", "1", "--e-cut", "65"])
    assert code == 2 and out == "" and "above 64 hbar omega" in err
    code, out, _ = _run(capsys, ["levels", "--N", "2", "--n", "1", "--e-cut", "65",
                                 "--omega", "2"])
    assert code == 0 and out


def _source_env() -> dict:
    src = str(Path(singosc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "singosc", "--help"], env=_source_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: singosc")


_IMPORT_WEIGHT = """
import contextlib, io, json, sys
def heavy():
    return sorted(m for m in ("numpy", "scipy", "mpmath", "singosc.opalg")
                  if m in sys.modules)
seen = {}
import singosc.cli
seen["import"] = heavy()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["levels", "--N", "4", "--n", "2", "--e-cut", "9/2"],
                 ["verify-spectrum", "--N", "3", "--n", "1", "--c2", "2", "--e-cut", "10"],
                 ["wavefunction", "--m", "3", "--samples", "5"],
                 ["radial", "--m", "2", "--c", "1", "--count", "1"],
                 ["spectrum", "--N", "4", "--n", "2"],
                 ["verify-algebra", "--N", "2", "--n", "1"],
                 ["verify-poisson", "--N", "2", "--n", "1"]):
        seen[argv[0]] = [singosc.cli.main(argv)] + heavy()
print(json.dumps(seen))
"""


_CSV_WEIGHT = """
import contextlib, io, json, sys
import singosc.cli
seen = []
with contextlib.redirect_stdout(io.StringIO()):
    for fmt in ("json-lines", "csv"):
        code = singosc.cli.main(["levels", "--N", "4", "--n", "2", "--e-cut", "9/2",
                                 "--format", fmt])
        seen.append([code, "csv" in sys.modules])
print(json.dumps(seen))
"""


_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
import singosc.cli
sys.exit(singosc.cli.main(sys.argv[1:]))
"""


def test_spectrum_runs_with_mpmath_blocked():
    argv = ["spectrum", "--N", "5", "--n", "2", "--c1", "3/7", "--c2", "5",
            "--p-max", "6", "--l-max", "3"]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_MPMATH, *argv], env=_source_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "spectrum-N5-n2-c1-3_7-c2-5.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["verify-poisson", "--N", "2", "--n", "1", "--hbar", "2"],
    ["verify-poisson", "--N", "2", "--n", "1", "--seed", "7"],
    ["verify-algebra", "--N", "2", "--n", "1", "--omega", "2"],
    ["spectrum", "--N", "4", "--n", "2", "--seed", "7"],
    ["verify-algebra", "--N", "2", "--n", "1", "--param-mode", "sampled"],
    ["verify-algebra", "--N", "2", "--n", "1", "--samples", "3"],
    ["verify-algebra", "--N", "2", "--n", "1", "--seed", "1"],
    ["verify-algebra", "--N", "2", "--n", "1", "--skip-casimir"],
    # radial always solves three grids
    ["radial", "--m", "2", "--grid-levels", "3"],
])
def test_option_the_command_never_reads_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_keys_a_command_never_reads_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hbar = 2\nomega = 3\n")
    code, out, _ = _run(capsys, ["--config", str(cfg), "verify-poisson", "--N", "2", "--n", "1"])
    assert code == 0
    assert all(json.loads(line)["passed"] for line in out.splitlines())


def test_config_key_of_another_subcommand_is_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_max = 0\nl_max = 0\ncount = 1\ngrid_nodes = 256\n")
    code, out, _ = _run(capsys, ["--config", str(cfg), "spectrum", "--N", "4", "--n", "2"])
    assert code == 0 and len(out.splitlines()) == 12
    code, out, _ = _run(capsys, ["--config", str(cfg), "radial", "--m", "2", "--c", "1"])
    assert code == 0 and len(out.splitlines()) == 1


def test_commands_load_only_the_libraries_they_use():
    # a fresh interpreter: this one has imported numpy, scipy and mpmath already
    proc = subprocess.run([sys.executable, "-c", _IMPORT_WEIGHT], env=_source_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # each command's exit code, then the heavy libraries and the exact engine
    # loaded after it (cumulative: the commands run in this order in one
    # interpreter)
    assert json.loads(proc.stdout) == {
        "import": [], "levels": [0], "verify-spectrum": [0], "wavefunction": [0, "numpy"],
        "radial": [0, "numpy", "scipy"], "spectrum": [0, "numpy", "scipy"],
        "verify-algebra": [0, "numpy", "scipy", "singosc.opalg"],
        "verify-poisson": [0, "numpy", "scipy", "singosc.opalg"]}


_VERIFY_RECORDS = """
import contextlib, io, json, sys
import singosc.cli, singosc.opalg
imported = "dataclasses" in sys.modules
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [singosc.cli.main([command, "--N", "4", "--n", "2"])
             for command in ("verify-algebra", "verify-poisson")]
records = sorted(f"{name}.{attr}" for name, module in list(sys.modules.items())
                 if name.startswith("singosc") for attr, obj in vars(module).items()
                 if isinstance(obj, type) and "__dataclass_fields__" in vars(obj))
print(json.dumps([codes, imported, records]))
"""


def test_the_verify_path_defines_no_dataclasses():
    # a fresh interpreter: the records of the verify path are NamedTuples and
    # a plain class, so importing singosc loads no dataclasses, and no module
    # the verify commands load defines one (what the standard library or numpy
    # import for themselves varies with the Python version, so is not checked)
    proc = subprocess.run([sys.executable, "-c", _VERIFY_RECORDS], env=_source_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], False, []]


def test_only_csv_output_loads_the_csv_module():
    # a fresh interpreter, and a command that loads neither numpy nor scipy,
    # which may import csv themselves
    proc = subprocess.run([sys.executable, "-c", _CSV_WEIGHT], env=_source_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, False], [0, True]]


@pytest.mark.parametrize("line, argv", [
    ("skip_casimir = maybe", ["verify-algebra", "--N", "2", "--n", "1"]),
    ("param_mode = symbolc", ["verify-algebra", "--N", "2", "--n", "1"]),
    ("format = jsonl", ["spectrum", "--N", "4", "--n", "2"]),
    ("scheme = smooth", ["radial", "--m", "2"]),
    ("p_max = three", ["spectrum", "--N", "4", "--n", "2"]),
    ("r_max = far", ["radial", "--m", "2"]),
    ("nodes_typo = 3", ["radial", "--m", "2", "--count", "1"]),
    ("param_mode = sampled", ["verify-algebra", "--N", "2", "--n", "1"]),
    ("seed = 1", ["verify-algebra", "--N", "2", "--n", "1"]),
    ("skip_casimir = true", ["verify-algebra", "--N", "2", "--n", "1"]),
    # radial always solves three grids
    ("grid_levels = 3", ["radial", "--m", "2", "--count", "1"]),
    ("N = four", ["spectrum", "--n", "2"]),
])
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, line, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = _run(capsys, ["--config", str(cfg), *argv])
    assert code == 2
    assert out == ""
    assert line.partition(" ")[0] in err


def test_a_config_line_without_an_equals_sign_exits_2_naming_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nN 4\n")
    code, out, err = _run(capsys, ["--config", str(cfg), "spectrum", "--n", "2"])
    assert (code, out) == (2, "")
    assert f"{cfg}:3: expected key = value" in err


def test_an_unreadable_config_exits_2_naming_its_path(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code, out, err = _run(capsys, ["--config", str(missing), "spectrum", "--N", "4", "--n", "2"])
    assert (code, out) == (2, "")
    assert f"cannot read config {missing}" in err


def test_required_options_may_come_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 5\nn = 2\nc1 = 3/7\nc2 = 5\np_max = 6\nl_max = 3\n")
    code, out, _ = _run(capsys, ["--config", str(cfg), "spectrum"])
    assert code == 0
    assert out == (GOLDEN / "spectrum-N5-n2-c1-3_7-c2-5.jsonl").read_text(encoding="utf-8")
    # the flag beats the file
    code, out, _ = _run(capsys, ["--config", str(cfg), "spectrum", "--N", "4"])
    assert code == 0
    assert out == _run(capsys, ["spectrum", "--N", "4", "--n", "2", "--c1", "3/7",
                                "--c2", "5", "--p-max", "6", "--l-max", "3"])[1]
    assert {json.loads(line)["N"] for line in out.splitlines()} == {4}
    cfg.write_text("m = 2\n")
    code, out, _ = _run(capsys, ["--config", str(cfg), "radial", "--count", "1"])
    assert (code, out) == _run(capsys, ["radial", "--m", "2", "--count", "1"])[:2]


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--N", "4"], "--n"),
    (["verify-algebra", "--n", "1"], "--N"),
    (["wavefunction", "--l", "1"], "--m"),
])
def test_a_missing_required_option_exits_2_naming_its_flag(capsys, argv, flag):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"error: {flag} is required" in err


# Per subcommand, small inputs that its flags may replace one at a time.
_BASE_ARGS = {
    "verify-algebra": {"--N": "2", "--n": "1"},
    "verify-poisson": {"--N": "2", "--n": "1"},
    "verify-spectrum": {"--N": "3", "--n": "1", "--e-cut": "6"},
    "spectrum": {"--N": "4", "--n": "2", "--p-max": "1", "--l-max": "1"},
    "radial": {"--m": "3", "--count": "1", "--grid-nodes": "64"},
    "levels": {"--N": "4", "--n": "2", "--e-cut": "5"},
    "wavefunction": {"--m": "3", "--samples": "4"},
}
# A value for each option that takes one, none of them its default.
_VALUES = {
    "--N": "3", "--n": "1", "--m": "2", "--c1": "1/2", "--c2": "3/4", "--c": "1/3",
    "--l": "1", "--p-max": "0", "--l-max": "0", "--count": "2", "--grid-nodes": "128",
    "--nr": "1", "--samples": "3", "--r-max": "6.5", "--e-cut": "11/2", "--hbar": "2",
    "--omega": "1/2", "--format": "csv", "--output": "out.txt",
}
_VALUE_CASES = [(command, flag) for command in SUBCOMMANDS for flag in _flags(command)
                if _OPTIONS[flag].get("action") is None]


def test_every_option_that_takes_a_value_is_a_config_key():
    assert CONFIG_KEYS == {flag[2:].replace("-", "_") for flag in _VALUES}
    assert {flag for _, flag in _VALUE_CASES} == set(_VALUES)


@pytest.mark.parametrize("command, flag", _VALUE_CASES, ids=[" ".join(c) for c in _VALUE_CASES])
def test_a_config_value_and_its_flag_print_the_same(tmp_path, monkeypatch, capsys,
                                                    command, flag):
    monkeypatch.chdir(tmp_path)
    base = {k: v for k, v in _BASE_ARGS[command].items() if k != flag}
    argv = [command, *(word for item in base.items() for word in item)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:].replace('-', '_')} = {_VALUES[flag]}\n")
    printed = []
    for args in (["--config", str(cfg), *argv], [*argv, flag, _VALUES[flag]]):
        code, out, _ = _run(capsys, args)
        written = Path("out.txt").read_text(encoding="utf-8") if flag == "--output" else ""
        printed.append((code, out, written))
    assert printed[0] == printed[1]
    assert printed[0][0] in (0, 1) and printed[0][1] + printed[0][2]
    if "default" in _OPTIONS[flag]:
        # the value is read: without it the command prints something else
        assert _run(capsys, argv)[:2] != printed[0][:2]
