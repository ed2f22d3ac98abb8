"""Command-line front end: subcommand dispatch and deterministic serialization.

All numeric inputs are exact rational strings ("3/4", "2"); every record is
emitted as one json line (or one CSV row) in a fixed order, so identical
configurations produce byte-identical output.  Timings and progress go
to stderr only, as do the per-check times of ``verify-algebra --timings`` and
``verify-poisson --timings``.  Those two share one handler, since both run
the one check table of ``opalg.verify``; bad input, such as a non-finite
``--r-max`` or an ``--e-cut`` past ``levels.E_CUT_LIMIT``, exits 2 with a
message.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from functools import partial

SUBCOMMANDS = ("verify-algebra", "verify-poisson", "spectrum", "radial",
               "levels", "wavefunction")


class ConfigError(Exception):
    pass


# The allowed values of --format, for the flag and for a config file alike.
_FORMATS = ("json-lines", "csv")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not an exact rational: {text!r} ({exc})") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singosc",
        description="Exact symmetry-algebra checks and spectra for double "
                    "singular oscillators.")
    parser.add_argument("--config", help="flat key = value file; flags win over it")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options its handler reads
    def common(p, units: bool = True):
        if units:
            p.add_argument("--hbar", default=None, help="exact rational (default 1)")
            p.add_argument("--omega", default=None, help="exact rational (default 1)")
        p.add_argument("--format", default=None, choices=_FORMATS)
        p.add_argument("--output", default=None, help="output path (default stdout)")

    for name, text in (("verify-algebra", "exact quantum Q(3) identity checks"),
                       ("verify-poisson", "exact classical Poisson checks")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--timings", action="store_true",
                       help="one line per check on stderr: name, wall seconds, residual terms")
        common(p, units=False)

    p = sub.add_parser("spectrum", help="algebraic spectrum from the unirreps")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c1", default=None)
    p.add_argument("--c2", default=None)
    p.add_argument("--p-max", default=None, type=int)
    p.add_argument("--l-max", default=None, type=int)
    common(p)

    p = sub.add_parser("radial", help="closed-form levels and the FD cross-check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", default=None)
    p.add_argument("--l", default=None, type=int)
    p.add_argument("--count", default=None, type=int)
    p.add_argument("--grid-nodes", default=None, type=int)
    p.add_argument("--grid-levels", default=None, type=int)
    p.add_argument("--r-max", default=None, type=float)
    common(p)

    p = sub.add_parser("levels", help="degeneracy table up to an energy cutoff")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c1", default=None)
    p.add_argument("--c2", default=None)
    p.add_argument("--e-cut", default=None)
    common(p)

    p = sub.add_parser("wavefunction", help="radial wavefunction samples")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", default=None)
    p.add_argument("--l", default=None, type=int)
    p.add_argument("--nr", default=None, type=int)
    p.add_argument("--r-max", default=None, type=float)
    p.add_argument("--samples", default=None, type=int)
    common(p)
    return parser


_DEFAULTS = {
    "hbar": "1", "omega": "1", "format": "json-lines", "output": None,
    "samples": 200, "c1": "0", "c2": "0", "c": "0", "l": 0, "p_max": 2,
    "l_max": 2, "count": 3, "grid_nodes": 512, "grid_levels": 3, "r_max": None,
    "e_cut": "8", "nr": 0,
}

# Every option a config file may name: those with a default above and the
# required ones.  A key of another subcommand is ignored, so one file can
# serve several commands.
_CONFIG_KEYS = {*_DEFAULTS, "N", "n", "m"}


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
    """Flag > config-file > default, per option."""
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config {', '.join(unknown)}: no such option")
    out = {}
    for key, value in vars(args).items():
        if key in ("config", "command"):
            continue
        if value is None:
            if key in config:
                raw = config[key]
                default = _DEFAULTS.get(key)
                if isinstance(default, int):
                    value = _config_number(key, raw, int)
                elif isinstance(default, float) or key == "r_max":
                    value = _config_number(key, raw, float)
                else:
                    value = raw
                if key == "format" and value not in _FORMATS:
                    raise ConfigError(f"config {key} = {raw!r}: expected one of "
                                      f"{', '.join(_FORMATS)}")
            else:
                value = _DEFAULTS.get(key)
        out[key] = value
    return out


def _config_number(key: str, raw: str, kind: type) -> int | float:
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config {key} = {raw!r}: expected "
                          f"{'an integer' if kind is int else 'a number'}") from None


def _emit(records: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "json-lines":
        body = "".join(json.dumps(rec, sort_keys=True, default=str) + "\n"
                       for rec in records)
    else:
        buf = io.StringIO()
        fields = sorted({key for rec in records for key in rec})
        writer = csv.DictWriter(buf, fieldnames=fields, restval="",
                                lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: rec.get(k, "") for k in fields})
        body = buf.getvalue()
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _cmd_verify(command: str, opts: dict) -> tuple[list[dict], list[str]]:
    from . import opalg
    verify = opalg.verify_q3 if command == "verify-algebra" else opalg.verify_qp3
    report = verify(opts["N"], opts["n"])
    if opts["timings"]:
        for result in report.results:
            rec = result.record(include_timing=True)
            _log(f"{rec['check']}  {rec['wall_time_s']:.6f} s  "
                 f"{rec['residual_terms']} residual terms")
    _log(f"{command} ({opts['N']},{opts['n']}): "
         f"{len(report.results)} checks in {report.total_time():.2f}s")
    return report.records(), [r.name for r in report.failures()]


def _cmd_spectrum(opts: dict) -> tuple[list[dict], list[str]]:
    from . import qalg
    N, n = opts["N"], opts["n"]
    for key in ("p_max", "l_max"):
        if opts[key] < 0:
            raise ConfigError(f"--{key.replace('_', '-')} must be at least 0, got {opts[key]}")
    c1, c2 = _fraction(opts["c1"]), _fraction(opts["c2"])
    hbar, omega = _fraction(opts["hbar"]), _fraction(opts["omega"])
    records = []
    l1_max = min(opts["l_max"], 1) if n == 1 else opts["l_max"]
    l2_max = min(opts["l_max"], 1) if N - n == 1 else opts["l_max"]
    for l_n in range(l1_max + 1):
        for l_nn in range(l2_max + 1):
            ce = qalg.CentralEigs(N=N, n=n, l_n=l_n, l_Nn=l_nn, c1=c1, c2=c2,
                                  hbar=hbar, omega=omega)
            for p in range(opts["p_max"] + 1):
                for sol in qalg.solve_unirreps(p, ce):
                    records.append(sol.record())
    return records, []


def _cmd_radial(opts: dict) -> tuple[list[dict], list[str]]:
    from . import radial
    spec = radial.ComponentSpec(m=opts["m"], c=_fraction(opts["c"]), l=opts["l"],
                                hbar=_fraction(opts["hbar"]),
                                omega=_fraction(opts["omega"]))
    grid = radial.GridSpec(nodes=opts["grid_nodes"], r_max=_r_max(opts),
                           levels=opts["grid_levels"])
    count = opts["count"]
    fd = radial.fd_eigenvalues(spec, grid, count=count)
    records = []
    failures = []
    for idx, fd_rec in enumerate(fd.record()):
        mode = radial.closed_form(spec, idx)
        rel = abs(fd.energies[idx] - mode.energy) / abs(mode.energy)
        reasons = [] if fd.converged else ["fd_converged false"]
        if not rel < 1e-6:
            reasons.append(f"fd_rel_error {rel:.3g} > 1e-6")
        if reasons:
            failures.append(f"Nr={mode.Nr} ({', '.join(reasons)})")
        rec = mode.record()
        rec.update({"fd_energy": fd.energies[idx], "fd_rel_error": rel,
                    "fd_converged": fd.converged,
                    "fd_observed_order": fd_rec["observed_order"],
                    "fd_h": fd_rec["h"], "fd_raw": fd_rec["raw"],
                    "scheme": fd_rec["scheme"], "r_max": fd.r_max})
        records.append(rec)
    return records, failures


def _cmd_levels(opts: dict) -> tuple[list[dict], list[str]]:
    from . import levels
    try:
        e_cut = float(_fraction(opts["e_cut"]))
    except OverflowError:
        raise ConfigError(f"--e-cut {opts['e_cut']} is too large for a float") from None
    table = levels.enumerate_levels(
        opts["N"], opts["n"], _fraction(opts["c1"]), _fraction(opts["c2"]),
        e_cut=e_cut, hbar=_fraction(opts["hbar"]), omega=_fraction(opts["omega"]))
    if not table.levels:
        raise ConfigError(f"no level lies at or below --e-cut {opts['e_cut']}")
    return table.records(), []


def _cmd_wavefunction(opts: dict) -> tuple[list[dict], list[str]]:
    from . import radial
    spec = radial.ComponentSpec(m=opts["m"], c=_fraction(opts["c"]), l=opts["l"],
                                hbar=_fraction(opts["hbar"]),
                                omega=_fraction(opts["omega"]))
    mode = radial.closed_form(spec, opts["nr"])
    r_max = _r_max(opts)
    if r_max is None:
        r_max = 8.0 / math.sqrt(float(spec.omega_reduced))
    samples = opts["samples"]
    if samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {samples}")
    records = []
    for i in range(1, samples + 1):
        r = r_max * i / samples
        records.append({"r": r, "psi": radial.wavefunction(mode, r),
                        "m": spec.m, "l": spec.l, "Nr": mode.Nr})
    return records, []


def _r_max(opts: dict) -> float | None:
    """--r-max of radial and wavefunction; None asks for the default."""
    r_max = opts["r_max"]
    if r_max is not None and not 0 < r_max < math.inf:
        raise ConfigError(f"--r-max must be a positive finite number, got {r_max}")
    return r_max


def _log(message: str) -> None:
    print(message, file=sys.stderr)


_HANDLERS = {
    "verify-algebra": partial(_cmd_verify, "verify-algebra"),
    "verify-poisson": partial(_cmd_verify, "verify-poisson"),
    "spectrum": _cmd_spectrum,
    "radial": _cmd_radial,
    "levels": _cmd_levels,
    "wavefunction": _cmd_wavefunction,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if args.config else {}
        opts = _resolve(args, config)
        if "N" in opts and "n" in opts and not 1 <= opts["n"] <= opts["N"] - 1:
            raise ConfigError(f"invalid partition (N, n) = ({opts['N']}, {opts['n']})")
        records, failures = _HANDLERS[args.command](opts)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(records, opts["format"], opts["output"])
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
