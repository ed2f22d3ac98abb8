"""Command-line front end: subcommand dispatch and deterministic serialization.

All numeric inputs are exact rational strings ("3/4", "2"); every record is
emitted as one json line (or one CSV row) in a fixed order, so identical
configurations produce byte-identical output.  Timings and progress go
to stderr only, as do the per-check times of ``verify-* --timings``.  The
three verify commands share one handler, which prints the records of a
``report.VerificationReport``: ``verify-algebra`` and ``verify-poisson`` run
the check table of ``opalg.verify``, ``verify-spectrum`` that of ``qalg``.
Bad input, such as a non-finite ``--r-max``, an ``--e-cut`` past
``levels.E_CUT_LIMIT`` or below the ground level, an FD grid past
``radial.FD_MEMORY_LIMIT``, more than ``SAMPLES_LIMIT`` wavefunction samples
or ``SPECTRUM_RECORDS_LIMIT`` spectrum records, an ``--nr`` past
``radial.NR_LIMIT``, or an ``--output`` that cannot be written, exits 2 with a
message.

Each option is one ``_OPTIONS`` row and each subcommand one ``_COMMANDS`` row.
A flag beats a ``--config`` file, whose values take their flag's type and
choices, and the file beats the default; N, n and m have none and are required.
A value its type refuses exits 2 naming its flag (argparse) or its config key.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import partial

class ConfigError(Exception):
    pass


def _rational(text: str) -> Fraction:
    """An exact rational such as "3/4" or "2"; argparse names the flag of a bad one."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


_REQUIRED = "required, as the flag or as a config file key"

# Each option's argparse settings and its default, read by argparse and the
# config reader alike; an option without a default is required.  A subcommand
# takes the options its ``_COMMANDS`` row names, then --format and --output.
_OPTIONS = {
    "--N": {"type": int, "help": _REQUIRED}, "--n": {"type": int, "help": _REQUIRED},
    "--m": {"type": int, "help": _REQUIRED}, "--c1": {"type": _rational, "default": Fraction(0)},
    "--c2": {"type": _rational, "default": Fraction(0)},
    "--c": {"type": _rational, "default": Fraction(0)}, "--l": {"type": int, "default": 0},
    "--p-max": {"type": int, "default": 2}, "--l-max": {"type": int, "default": 2},
    "--count": {"type": int, "default": 3}, "--grid-nodes": {"type": int, "default": 512},
    "--nr": {"type": int, "default": 0}, "--samples": {"type": int, "default": 200},
    "--r-max": {"type": float, "default": None},
    "--e-cut": {"type": _rational, "default": Fraction(8)},
    "--hbar": {"type": _rational, "default": Fraction(1), "help": "exact rational (default 1)"},
    "--omega": {"type": _rational, "default": Fraction(1), "help": "exact rational (default 1)"},
    "--timings": {"action": "store_true", "default": False,
                  "help": "one line per check on stderr: name, wall seconds, residual terms"},
    "--format": {"choices": ("json-lines", "csv"), "default": "json-lines"},
    "--output": {"default": None, "help": "output path (default stdout)"},
}


def _key(flag: str) -> str:
    return flag[2:].replace("-", "_")


# Every option a config file may name: each that takes a value.  A key of
# another subcommand is ignored, so one file can serve several commands.
CONFIG_KEYS = frozenset(_key(flag) for flag, row in _OPTIONS.items() if "action" not in row)
_EXPECTED = {int: "an integer", float: "a number", _rational: "an exact rational"}


def _flags(command: str) -> tuple[str, ...]:
    return (*_COMMANDS[command][1].split(), "--format", "--output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singosc",
        description="Exact symmetry-algebra checks and spectra for double "
                    "singular oscillators.")
    parser.add_argument("--config", help="flat key = value file; flags win over it")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        # a flag that is not given is absent, for the config file or the default to fill
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for flag in _flags(name):
            p.add_argument(flag, **{k: v for k, v in _OPTIONS[flag].items() if k != "default"})
    return parser


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return values


def _resolve(args: argparse.Namespace, config: dict) -> dict:
    """Flag > config file > default, per option of the subcommand."""
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config {', '.join(unknown)}: no such option")
    given, out = vars(args), {}
    for flag in _flags(args.command):
        key, row = _key(flag), _OPTIONS[flag]
        if key in given:
            out[key] = given[key]
        elif key in config:
            out[key] = _from_config(key, config[key], row)
        elif "default" in row:
            out[key] = row["default"]
        else:
            raise ConfigError(f"{flag} is required, as the flag or as {key} in a config file")
    return out


def _from_config(key: str, raw: str, row: dict):
    kind = row.get("type", str)
    try:
        value = kind(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise ConfigError(f"config {key} = {raw!r}: expected {_EXPECTED[kind]}") from None
    choices = row.get("choices")
    if choices and value not in choices:
        raise ConfigError(f"config {key} = {raw!r}: expected one of {', '.join(choices)}")
    return value


def _emit(records: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "json-lines":
        body = "".join(json.dumps(rec, sort_keys=True, default=str) + "\n"
                       for rec in records)
    else:
        import csv
        import io
        buf = io.StringIO()
        fields = sorted({key for rec in records for key in rec})
        writer = csv.DictWriter(buf, fieldnames=fields, restval="",
                                lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: rec.get(k, "") for k in fields})
        body = buf.getvalue()
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise ConfigError(f"cannot write --output {output}: {exc}") from None
    else:
        sys.stdout.write(body)


def _cmd_verify(command: str, opts: dict) -> tuple[list[dict], list[str]]:
    if command == "verify-spectrum":
        from . import qalg
        report = qalg.verify_spectrum(opts["N"], opts["n"], *(
            opts[key] for key in ("c1", "c2", "e_cut", "hbar", "omega")))
    else:
        from . import opalg
        verify = opalg.verify_q3 if command == "verify-algebra" else opalg.verify_qp3
        report = verify(opts["N"], opts["n"])
    if opts["timings"]:
        for result in report.results:
            _log(f"{result.name}  {result.wall_time:.6f} s  "
                 f"{result.residual_terms} residual terms")
    _log(f"{command} ({opts['N']},{opts['n']}): "
         f"{len(report.results)} checks in {report.total_time():.2f}s")
    return report.records(), [r.name for r in report.failures()]


# spectrum holds every record before it writes the first, about 1.1 KB and
# 20 us each: (4,2) with --p-max 20 --l-max 27 prints 197,568 records in 4.1 s
# at a 224 MB peak (2-CPU x86-64 VM), and the count grows as l_max^2.  The
# README, CI and test commands print at most 1,344 records, and the timing run
# in ROADMAP.md 18,228.
SPECTRUM_RECORDS_LIMIT = 200_000


def _cmd_spectrum(opts: dict) -> tuple[list[dict], list[str]]:
    from . import qalg
    N, n = opts["N"], opts["n"]
    for key in ("p_max", "l_max"):
        if opts[key] < 0:
            raise ConfigError(f"--{key.replace('_', '-')} must be at least 0, got {opts[key]}")
    l1_max = min(opts["l_max"], 1) if n == 1 else opts["l_max"]
    l2_max = min(opts["l_max"], 1) if N - n == 1 else opts["l_max"]
    # solve_unirreps gives 12 (set, sign) branches per p
    count = 12 * (opts["p_max"] + 1) * (l1_max + 1) * (l2_max + 1)
    if count > SPECTRUM_RECORDS_LIMIT:
        raise ConfigError(f"--p-max {opts['p_max']} and --l-max {opts['l_max']} give {count} "
                          f"records, above the limit of {SPECTRUM_RECORDS_LIMIT}")
    records = []
    for l_n in range(l1_max + 1):
        for l_nn in range(l2_max + 1):
            ce = qalg.CentralEigs(N=N, n=n, l_n=l_n, l_Nn=l_nn, c1=opts["c1"], c2=opts["c2"],
                                  hbar=opts["hbar"], omega=opts["omega"])
            for p in range(opts["p_max"] + 1):
                for sol in qalg.solve_unirreps(p, ce):
                    records.append(sol.record())
    return records, []


def _cmd_radial(opts: dict) -> tuple[list[dict], list[str]]:
    from . import radial
    spec = _component(opts)
    r_max = _r_max(opts)
    try:
        grid = radial.GridSpec(nodes=opts["grid_nodes"], r_max=r_max)
    except radial.GridError as exc:
        raise ConfigError(f"--grid-nodes {opts['grid_nodes']}: {exc}") from None
    fd = radial.fd_eigenvalues(spec, grid, count=opts["count"])
    records = []
    failures = []
    for idx, energy in enumerate(fd.energies):
        mode = radial.closed_form(spec, idx)
        rel = abs(energy - mode.energy) / abs(mode.energy)
        reasons = [] if fd.converged else ["fd_converged false"]
        if not rel < 1e-6:
            reasons.append(f"fd_rel_error {rel:.3g} > 1e-6")
        if reasons:
            failures.append(f"Nr={mode.Nr} ({', '.join(reasons)})")
        order = fd.observed_orders[idx]
        rec = mode.record()
        rec.update({"fd_energy": energy, "fd_rel_error": rel,
                    "fd_converged": fd.converged,
                    # None (JSON null) for an order that could not be observed
                    "fd_observed_order": None if math.isnan(order) else order,
                    "fd_h": list(fd.h_values),
                    "fd_raw": [raw[idx] for raw in fd.raw_levels],
                    "scheme": "regularized", "r_max": fd.r_max})
        records.append(rec)
    return records, failures


def _cmd_levels(opts: dict) -> tuple[list[dict], list[str]]:
    from . import levels
    table = levels.enumerate_levels(opts["N"], opts["n"], opts["c1"], opts["c2"],
                                    e_cut=opts["e_cut"], hbar=opts["hbar"], omega=opts["omega"])
    if not table.levels:
        raise ConfigError(f"no level lies at or below --e-cut {opts['e_cut']}")
    return table.records(), []


# wavefunction holds every sample and its record before it writes the first,
# about 430 bytes each (tracemalloc), so this bound keeps a run near 43 MB,
# under radial.FD_MEMORY_LIMIT; the README samples 100 and 200.
SAMPLES_LIMIT = 100_000


def _cmd_wavefunction(opts: dict) -> tuple[list[dict], list[str]]:
    from . import radial
    spec = _component(opts)
    try:
        mode = radial.closed_form(spec, opts["nr"])
    except ValueError as exc:
        raise ConfigError(f"--nr {opts['nr']}: {exc}") from None
    r_max = _r_max(opts) or radial.default_r_max(mode)
    samples = opts["samples"]
    if samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {samples}")
    if samples > SAMPLES_LIMIT:
        raise ConfigError(f"--samples {samples} is above the limit of {SAMPLES_LIMIT}")
    rs = [r_max * i / samples for i in range(1, samples + 1)]
    psis = radial.wavefunction(mode, rs).tolist()
    return [{"r": r, "psi": psi, "m": spec.m, "l": spec.l, "Nr": mode.Nr}
            for r, psi in zip(rs, psis)], []


def _component(opts: dict):
    """The ``radial.ComponentSpec`` of radial and wavefunction."""
    from .radial import ComponentSpec
    return ComponentSpec(m=opts["m"], c=opts["c"], l=opts["l"],
                         hbar=opts["hbar"], omega=opts["omega"])


def _r_max(opts: dict) -> float | None:
    """--r-max of radial and wavefunction; None asks for the default."""
    r_max = opts["r_max"]
    if r_max is not None and not 0 < r_max < math.inf:
        raise ConfigError(f"--r-max must be a positive finite number, got {r_max}")
    return r_max


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# Each subcommand's help, its flags before --format and --output, and its handler.
_COMMANDS = {
    "verify-algebra": ("exact quantum Q(3) identity checks", "--N --n --timings",
                       partial(_cmd_verify, "verify-algebra")),
    "verify-poisson": ("exact classical Poisson checks", "--N --n --timings",
                       partial(_cmd_verify, "verify-poisson")),
    "verify-spectrum": ("exact checks of the spectrum up to an energy cutoff",
                        "--N --n --c1 --c2 --e-cut --hbar --omega --timings",
                        partial(_cmd_verify, "verify-spectrum")),
    "spectrum": ("algebraic spectrum from the unirreps",
                 "--N --n --c1 --c2 --p-max --l-max --hbar --omega", _cmd_spectrum),
    "radial": ("closed-form levels and the FD cross-check",
               "--m --c --l --count --grid-nodes --r-max --hbar --omega", _cmd_radial),
    "levels": ("degeneracy table up to an energy cutoff",
               "--N --n --c1 --c2 --e-cut --hbar --omega", _cmd_levels),
    "wavefunction": ("radial wavefunction samples",
                     "--m --c --l --nr --r-max --samples --hbar --omega", _cmd_wavefunction),
}
SUBCOMMANDS = tuple(_COMMANDS)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _read_config(args.config) if args.config else {}
        opts = _resolve(args, config)
        if "N" in opts and "n" in opts and not 1 <= opts["n"] <= opts["N"] - 1:
            raise ConfigError(f"invalid partition (N, n) = ({opts['N']}, {opts['n']})")
        records, failures = _COMMANDS[args.command][2](opts)
        _emit(records, opts["format"], opts["output"])
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
