"""Run one singosc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload q3-symbolic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ``src/``
of that checkout and nowhere else.  The run is single-threaded and closed-loop:
it repeats the checked workload body until ``--seconds`` would be exceeded
(always at least once) and reports medians over those repetitions.

Each part of a body (one verify call, or ten spectrum tuples) runs between two
timings of a fixed pure-Python reference loop (``workloads.reference``), and
its time is rescaled by REFERENCE_S over the mean of those two timings.  The
reported times are therefore seconds at the speed at which the reference loop
takes REFERENCE_S.  On a shared 2-CPU x86-64 VM whose speed swings by up to 2x
for a fraction of a second to tens of seconds at a time, the quartile spread of
ten runs of the same code was up to 35% raw and below 8% rescaled.  The raw
medians are printed too.

``--trace 0`` reports the end-to-end metrics: wall and CPU time of the body,
set-up time (``import singosc.cli`` plus building the generators, measured in
this process and in SETUP_CHILDREN fresh interpreters), peak RSS and the share
of checks that passed.  ``--trace 1`` runs one untraced body to warm the
process, one body with the span hooks of ``layers.py`` installed, and one more
untraced body; it reports the per-layer metrics and the tracing overhead
(traced / untraced rescaled wall time).  The spans are written to
``perfbench/out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric with its
unit and sample count.
"""

from __future__ import annotations

import argparse
import os
import sys

# Single-threaded numerics, fixed before numpy/scipy are first imported here
# or in a set-up child process (which inherits the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc
import json
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 6
# Seconds one call of workloads.reference() takes on an uncontended core of the
# machine the baseline was recorded on (x86-64, Python 3.11).
REFERENCE_S = 0.042

# Each set-up child times the same set-up in a fresh interpreter.
_SETUP_CHILD = """\
import json, resource, sys
sys.path[:0] = [{src!r}, {here!r}]
import run, workloads
_, raw, scaled = run.timed_setup(workloads.WORKLOADS[{name!r}])
print(json.dumps([raw, scaled, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "singosc" / "__init__.py").is_file():
        print(f"error: no singosc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    gens, _, setup_own = timed_setup(workload)
    import singosc
    if Path(singosc.__file__).resolve().parent != (SRC / "singosc").resolve():
        print(f"error: singosc was imported from {singosc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    inputs = workload.inputs(args.seed)

    if args.trace:
        tally, metrics, samples = traced_run(workload, gens, inputs, args)
    else:
        tally, metrics, samples = timed_run(workload, gens, inputs, args.seconds)
        children = [setup_child(workload.name) for _ in range(SETUP_CHILDREN)]
        setup = [setup_own] + [scaled for _, scaled, _ in children]
        samples["setup_s"] = setup
        metrics["setup_s"] = (statistics.median(setup), "s")
        samples["setup_s.raw"] = [raw for raw, _, _ in children]
        samples["rss_after_setup_mb"] = [rss for _, _, rss in children]

    print_table(args, metrics, samples, tally)
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def time_reference() -> tuple[float, float]:
    """Wall and CPU seconds of one call of the reference loop."""
    import workloads
    wall, cpu = perf_counter(), process_time()
    workloads.reference()
    return perf_counter() - wall, process_time() - cpu


def timed_setup(workload):
    """Set the workload up between two reference timings, after one that warms
    the reference; return the generators, the raw and the rescaled seconds."""
    time_reference()
    before = time_reference()[0]
    start = perf_counter()
    gens = workload.setup()
    raw = perf_counter() - start
    after = time_reference()[0]
    return gens, raw, raw * 2 * REFERENCE_S / (before + after)


def timed_body(workload, gens, inputs, tally, tracer=None) -> dict[str, float]:
    """Run the body part by part, each between two reference timings.  Returns
    the raw and the rescaled wall and CPU seconds of the parts, summed."""
    gc.collect()
    out = dict.fromkeys(("wall_s", "cpu_s", "wall_s.raw", "cpu_s.raw"), 0.0)
    ref_wall, ref_cpu = time_reference()
    for part in workload.parts(inputs):
        wall, cpu = perf_counter(), process_time()
        workload.run(gens, part, tally, tracer)
        wall, cpu = perf_counter() - wall, process_time() - cpu
        next_wall, next_cpu = time_reference()
        out["wall_s.raw"] += wall
        out["cpu_s.raw"] += cpu
        out["wall_s"] += wall * 2 * REFERENCE_S / (ref_wall + next_wall)
        out["cpu_s"] += cpu * 2 * REFERENCE_S / (ref_cpu + next_cpu)
        ref_wall, ref_cpu = next_wall, next_cpu
    return out


def timed_run(workload, gens, inputs, seconds: float):
    """Repeat the untraced body until the next repetition would pass ``seconds``."""
    import workloads
    tally = workloads.Tally()
    samples = {key: [] for key in ("wall_s", "cpu_s", "wall_s.raw", "cpu_s.raw")}
    begin = perf_counter()
    while True:
        rep_start = perf_counter()
        for key, value in timed_body(workload, gens, inputs, tally).items():
            samples[key].append(value)
        rep = perf_counter() - rep_start
        if perf_counter() - begin + rep > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return tally, metrics, samples


def traced_run(workload, gens, inputs, args):
    """Set-up and one body with every hook installed, between two untraced bodies;
    the overhead compares the traced body with the second, equally warm one."""
    import layers
    import workloads
    from tracer import Tracer

    plain = workloads.Tally()
    timed_body(workload, gens, inputs, plain)  # warms the process like the traced body

    tracer = Tracer()
    layers.install_hooks(tracer)
    tally = workloads.Tally()
    with tracer:
        with tracer.span("bench.setup", "setup"):
            gens = workload.setup()
        traced = timed_body(workload, gens, inputs, tally, tracer)["wall_s"]
    untraced = timed_body(workload, gens, inputs, plain)["wall_s"]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    run_id = f"{workload.name}-seed{args.seed}"
    tracer.write(out_dir / f"trace-{run_id}.jsonl", run_id)

    values = layers.layer_metrics(tracer, tally.reports, traced / untraced)
    units = {m.name: m.unit for m in layers.PER_LAYER}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.known += plain.known
    tally.unexpected += plain.unexpected
    return tally, metrics, {"trace.overhead": [traced / untraced]}


def setup_child(name: str) -> tuple[float, float, float]:
    """Raw set-up seconds, rescaled set-up seconds and peak RSS in MB after
    set-up, from a fresh interpreter."""
    code = _SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=name)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    raw, scaled, rss = json.loads(done.stdout.strip().splitlines()[-1])
    return raw, scaled, rss


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def print_table(args, metrics: dict, samples: dict, tally) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"{'metric':28} {'unit':6} {'median':>14} {'high pct':>18} {'samples':>8}")
    rows = [(name, unit, samples.get(name, [value])) for name, (value, unit) in metrics.items()]
    rows += [(name, "MB" if name.endswith("_mb") else "s", values)
             for name, values in samples.items() if name not in metrics]
    for name, unit, values in rows:
        high = high_percentile(values)
        high_text = f"p{high[0]} {high[1]:.6g}" if high else "-"
        print(f"{name:28} {unit:6} {statistics.median(values):14.6g} {high_text:>18} "
              f"{len(values):8d}")
    units = tally.unit_times
    high = high_percentile(units)
    high_text = f"p{high[0]} {high[1]:.6g}" if high else "-"
    print(f"{'per check or tuple (wall)':28} {'s':6} {statistics.median(units):14.6g} "
          f"{high_text:>18} {len(units):8d}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"checks attempted {tally.attempted}  failed {tally.failed}  "
          f"fail_ratio {ratio:.6g}  known-defect failures {len(tally.known)}")
    for label in tally.unexpected[:20]:
        print(f"UNEXPECTED FAILURE: {label}")


if __name__ == "__main__":
    sys.exit(main())
