"""Run every workload over seeds 1..runs twice and summarize how steady each metric is.

    python3 perfbench/collect.py --runs 10 --out perfbench/record.json

Runs ``run.py`` once per (set, workload, seed), one process at a time, with
the ``run_seconds`` of BENCHMARK.json: first every workload over seeds
1..runs, then all of it again with the same seeds.  For each end-to-end metric
and each set it prints the median and the spread (the distance between the
quartiles as a share of the median), then the shift of the second set's
median from the first's and the median same-seed difference, both as shares
of the first median; a metric is "ok" when all of these stay below a third of
its bound.  It then makes one traced run per workload and measures the peak
RSS right after set-up.  ``--out`` writes everything, with the machine, the
workload inputs and the layer map, as a JSON record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SETS = 2


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))

    sets = [{name: [run_once(name, seed, spec["run_seconds"], 0) for seed in seeds]
             for name in names} for _ in range(SETS)]

    baseline, traced, rss_after_setup = {}, {}, {}
    for name in names:
        runs = [s[name] for s in sets]
        rows = {}
        for metric, bound in bounds.items():
            values = [[r["metrics"][metric]["value"] for r in set_runs] for set_runs in runs]
            summaries = [summarize(v) for v in values]
            first = summaries[0]["median"]
            shift = (summaries[-1]["median"] - first) / first
            same_seed = statistics.median(abs(b - a) for a, b in zip(values[0], values[-1]))
            rows[metric] = {"sets": summaries, "shift": shift,
                            "same_seed_diff": same_seed / first, "bound": bound,
                            "steady": max(max(s["spread"] for s in summaries), abs(shift),
                                          same_seed / first) < bound / 3}
        flat = [r for set_runs in runs for r in set_runs]
        baseline[name] = {"seeds": seeds, "attempted": [r["attempted"] for r in flat],
                          "failed": [r["failed"] for r in flat],
                          "correct": all(r["correct"] for r in flat), "metrics": rows}
        print(f"{name}: correct {baseline[name]['correct']}  "
              f"failed/attempted {flat[0]['failed']}/{flat[0]['attempted']}")
        for metric, row in rows.items():
            sets_text = "  ".join(f"median {s['median']:<10.6g} spread {s['spread']:.4f}"
                                  for s in row["sets"])
            print(f"  {metric:12} {sets_text}  shift {row['shift']:+.4f}  "
                  f"same-seed {row['same_seed_diff']:.4f}  (bound/3 {row['bound'] / 3:.4f}) "
                  f"{'ok' if row['steady'] else 'WIDE'}", flush=True)

        result = run_once(name, seeds[0], spec["run_seconds"], 1)
        traced[name] = {key: entry["value"] for key, entry in result["metrics"].items()}
        rss_after_setup[name] = statistics.median(
            run.setup_child(name)[2] for _ in range(3))
        print(f"  traced (seed {seeds[0]}): overhead {traced[name]['trace.overhead']:.4f}  "
              f"peak RSS after set-up {rss_after_setup[name]:.4g} MB", flush=True)

    if args.out:
        record = {
            "machine": {"python": platform.python_version(), "cpu_count": os.cpu_count(),
                        "platform": platform.platform()},
            "run_seconds": spec["run_seconds"],
            "timing": {
                "reference_s": run.REFERENCE_S,
                "rule": "wall_s, cpu_s and setup_s are raw seconds times reference_s over "
                        "the mean time of workloads.reference() measured right before and "
                        "after each part of the body (each set-up); the raw medians are "
                        "printed by run.py next to them",
            },
            "workloads": {name: {"why": w.why, "inputs": w.describe()}
                          for name, w in workloads.WORKLOADS.items()},
            "known_defects": [{
                "workload": "q3-sampled",
                "checks": "so-rotations[block1|2] on each block of dimension >= 3",
                "count": "1 of 28 checks per body: (4,1) block2",
                "cause": "sampled mode: the so(m) right-hand side keeps a symbolic hbar "
                         "after the generators were substituted",
            }],
            "per_layer": {m.name: {"unit": m.unit, "moves": m.moves,
                                   "workloads": list(m.workloads)}
                          for m in layers.PER_LAYER},
            "exact_counts": list(layers.EXACT_COUNTS),
            "baseline": baseline,
            "rss_after_setup_mb": rss_after_setup,
            "traced": traced,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
