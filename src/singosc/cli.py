"""Command-line front end: subcommand dispatch and deterministic serialization.

All numeric inputs are exact rational strings ("3/4", "2"); every record is
emitted as one json line (or one CSV row) in a fixed order, so identical
configurations produce byte-identical output.  Timings and progress go
to stderr only, as do the per-check times of ``verify-* --timings``.  The
three verify commands share one handler, which prints the records of a
``report.VerificationReport``: ``verify-algebra`` and ``verify-poisson`` run
the check table of ``opalg.verify``, ``verify-spectrum`` that of ``qalg``.
Bad input, such as a non-finite ``--r-max``, an ``--e-cut`` past
``levels.E_CUT_LIMIT`` or below the ground level, or an ``--output`` that
cannot be written, exits 2 with a message.
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


# The allowed values of --format, for the flag and for a config file alike.
_FORMATS = ("json-lines", "csv")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not an exact rational: {text!r} ({exc})") from None


# Each option's argparse settings.  A subcommand takes only the options its
# handler reads: those it names below, then --format and --output.
_OPTIONS = {
    "--N": {"type": int, "required": True}, "--n": {"type": int, "required": True},
    "--m": {"type": int, "required": True}, "--c1": {}, "--c2": {}, "--c": {},
    "--l": {"type": int}, "--p-max": {"type": int}, "--l-max": {"type": int},
    "--count": {"type": int}, "--grid-nodes": {"type": int}, "--nr": {"type": int},
    "--samples": {"type": int}, "--r-max": {"type": float}, "--e-cut": {},
    "--hbar": {"help": "exact rational (default 1)"},
    "--omega": {"help": "exact rational (default 1)"},
    "--timings": {"action": "store_true", "default": False,
                  "help": "one line per check on stderr: name, wall seconds, residual terms"},
    "--format": {"choices": _FORMATS},
    "--output": {"help": "output path (default stdout)"},
}

_COMMANDS = {
    "verify-algebra": ("exact quantum Q(3) identity checks", "--N --n --timings"),
    "verify-poisson": ("exact classical Poisson checks", "--N --n --timings"),
    "verify-spectrum": ("exact checks of the spectrum up to an energy cutoff",
                        "--N --n --c1 --c2 --e-cut --hbar --omega --timings"),
    "spectrum": ("algebraic spectrum from the unirreps",
                 "--N --n --c1 --c2 --p-max --l-max --hbar --omega"),
    "radial": ("closed-form levels and the FD cross-check",
               "--m --c --l --count --grid-nodes --r-max --hbar --omega"),
    "levels": ("degeneracy table up to an energy cutoff",
               "--N --n --c1 --c2 --e-cut --hbar --omega"),
    "wavefunction": ("radial wavefunction samples",
                     "--m --c --l --nr --r-max --samples --hbar --omega"),
}
SUBCOMMANDS = tuple(_COMMANDS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singosc",
        description="Exact symmetry-algebra checks and spectra for double "
                    "singular oscillators.")
    parser.add_argument("--config", help="flat key = value file; flags win over it")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in (*flags.split(), "--format", "--output"):
            p.add_argument(flag, **{"default": None, **_OPTIONS[flag]})
    return parser


_DEFAULTS = {
    "hbar": "1", "omega": "1", "format": "json-lines", "output": None,
    "samples": 200, "c1": "0", "c2": "0", "c": "0", "l": 0, "p_max": 2,
    "l_max": 2, "count": 3, "grid_nodes": 512, "r_max": None,
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
            _fraction(opts[key]) for key in ("c1", "c2", "e_cut", "hbar", "omega")))
    else:
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
    grid = radial.GridSpec(nodes=opts["grid_nodes"], r_max=_r_max(opts))
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
    try:
        table = levels.enumerate_levels(
            opts["N"], opts["n"], _fraction(opts["c1"]), _fraction(opts["c2"]),
            e_cut=_fraction(opts["e_cut"]), hbar=_fraction(opts["hbar"]),
            omega=_fraction(opts["omega"]))
    except ValueError as exc:
        raise ConfigError(f"levels up to --e-cut {opts['e_cut']}: {exc}") from None
    if not table.levels:
        raise ConfigError(f"no level lies at or below --e-cut {opts['e_cut']}")
    return table.records(), []


def _cmd_wavefunction(opts: dict) -> tuple[list[dict], list[str]]:
    from . import radial
    spec = radial.ComponentSpec(m=opts["m"], c=_fraction(opts["c"]), l=opts["l"],
                                hbar=_fraction(opts["hbar"]),
                                omega=_fraction(opts["omega"]))
    mode = radial.closed_form(spec, opts["nr"])
    r_max = _r_max(opts) or radial.default_r_max(mode)
    samples = opts["samples"]
    if samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {samples}")
    rs = [r_max * i / samples for i in range(1, samples + 1)]
    psis = radial.wavefunction(mode, rs).tolist()
    return [{"r": r, "psi": psi, "m": spec.m, "l": spec.l, "Nr": mode.Nr}
            for r, psi in zip(rs, psis)], []


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
    "verify-spectrum": partial(_cmd_verify, "verify-spectrum"),
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
