"""Command-line behavior: dispatch, exit codes, determinism, config precedence."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import singosc
from singosc.cli import main

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


def test_bad_rational_exits_2(capsys):
    code, _, err = _run(capsys, ["spectrum", "--N", "4", "--n", "2", "--c1", "0.25x"])
    assert code == 2
    assert "not an exact rational" in err


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


def test_verify_poisson_subcommand(capsys):
    code, out, _ = _run(capsys, ["verify-poisson", "--N", "3", "--n", "1"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(rec["passed"] for rec in records)
    assert any(rec["check"].startswith("classical-limit") for rec in records)


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--samples", "0", "--samples must be at least 1", id="0"),
    pytest.param("--samples", "-5", "--samples must be at least 1", id="-5"),
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
    assert "--e-cut 1e400" in err


def test_radial_without_fd_convergence_exits_1(capsys):
    # two grid levels observe no order, and on 64 nodes with r_max = 7 the
    # levels Nr = 1, 2 also miss 1e-6 (by about 1.7x and 4x); Nr = 0 does not
    code, out, err = _run(capsys, ["radial", "--m", "2", "--count", "3", "--grid-levels", "2",
                                   "--grid-nodes", "64", "--r-max", "7"])
    assert code == 1
    assert all(json.loads(line)["fd_converged"] is False for line in out.splitlines())
    assert err.startswith("FAILED: Nr=0 (fd_converged false), Nr=1 (")
    assert err.count("> 1e-6)") == 2
    for nr in (1, 2):
        assert f"Nr={nr} (fd_converged false, fd_rel_error " in err


def test_radial_failure_names_only_the_reason_that_holds(capsys):
    # two grid levels give no observed order, but the levels still agree
    code, out, err = _run(capsys, ["radial", "--m", "2", "--c", "1", "--count", "2",
                                   "--grid-levels", "2"])
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


def test_levels_past_the_e_cut_limit_exits_2_at_once(capsys):
    # at the parent's unbounded enumeration, --e-cut 1000 would need about
    # 10^10 table entries
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
                 ["wavefunction", "--m", "3", "--samples", "5"],
                 ["radial", "--m", "2", "--c", "1", "--count", "1"],
                 ["spectrum", "--N", "4", "--n", "2"],
                 ["verify-algebra", "--N", "2", "--n", "1"],
                 ["verify-poisson", "--N", "2", "--n", "1"]):
        seen[argv[0]] = [singosc.cli.main(argv)] + heavy()
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
        "import": [], "levels": [0], "wavefunction": [0, "numpy"],
        "radial": [0, "numpy", "scipy"], "spectrum": [0, "numpy", "scipy"],
        "verify-algebra": [0, "numpy", "scipy", "singosc.opalg"],
        "verify-poisson": [0, "numpy", "scipy", "singosc.opalg"]}


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
])
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, line, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = _run(capsys, ["--config", str(cfg), *argv])
    assert code == 2
    assert out == ""
    assert line.partition(" ")[0] in err
