"""Measure the benchmark's baseline and write it to ``baseline.json``.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--sets 2] [--seeds 101-110] [--seconds 20]
                                  [--workloads W ...] [--out perfbench/baseline.json]

Each set runs ``run.py --trace 0`` once per seed on every workload, one run at
a time; then one ``--trace 1`` run per workload (first seed) gives the
per-layer figures.  For every end-to-end metric the file holds the median and
quartiles over the seeds of a set and the spread, the interquartile range over
the median, which is what the bounds in ``BENCHMARK.json`` are set against.
Runs that fail or print no result stop the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_TIMEOUT_S = 180
SPLIT_LAYERS = (
    "grape.gradient.s", "dynamics.build_liouvillian.s", "dynamics.expm16.s",
    "grape.optimize.self_s", "grape.backward.s", "grape.context.s", "dynamics.expm32.s",
    "dynamics.propagate.self_s", "dynamics.step_hamiltonians.s", "fisher.cfim.s",
    "dynamics.measure.s", "fisher.tr_inv.s",
)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its ``result.json`` record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed its checks:\n{proc.stderr}")
    record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return json.loads(record.read_text())


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def split(traced_run: dict) -> dict:
    """Per-layer seconds of a traced run as shares of its traced ``wall_s``."""
    layers = traced_run["per_layer"]
    traced = layers["trace.wall_s"]
    return {
        "untraced_wall_s": traced_run["untraced_end_to_end"]["wall_s"],
        "traced_wall_s": traced,
        "note": "grape.gradient.s includes grape.backward.s; dynamics.propagate.self_s "
                "excludes its build_liouvillian, step_hamiltonians and expm children",
        "layers": {name: {"s": layers[name], "share_of_traced_wall": layers[name] / traced}
                   for name in SPLIT_LAYERS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seeds", type=_seeds, default=_seeds("101-110"))
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--workloads", nargs="+", default=list(workloads.NAMES))
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = p.parse_args(argv)

    sets = {}
    traced = {}
    baseline = {
        "about": f"Baseline measured with perfbench/baseline.py --seconds {args.seconds:g}. "
                 f"'sets' holds {args.sets} sets of {len(args.seeds)} untraced runs per "
                 f"workload (seeds {args.seeds[0]}-{args.seeds[-1]} each); spread is the "
                 "interquartile range over the median. 'traced' holds one --trace 1 run "
                 f"per workload (seed {args.seeds[0]}). Per-layer values are per operation.",
        "environment": None,
        "seeds": args.seeds,
        "held_out_seed": 9001,
        "sets": sets,
        "traced": traced,
    }

    def save():  # after every workload, so a stopped measurement keeps its sets
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")

    names = ("first", "second", "third", "fourth")
    for k in range(args.sets):
        set_name = names[k] if k < len(names) else f"set{k + 1}"
        sets[set_name] = {}
        for workload in args.workloads:
            records = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
            baseline["environment"] = records[-1]["env"]
            metrics = {name: summarize([r["end_to_end"][name] for r in records])
                       for name in records[0]["end_to_end"]}
            sets[set_name][workload] = metrics
            save()
            print(f"{set_name} {workload}: " + ", ".join(
                f"{name} {m['median']:.4g} ({m['spread']:.3f})" for name, m in metrics.items()),
                flush=True)

    for workload in args.workloads:
        record = run_once(workload, args.seeds[0], args.seconds, 1)
        traced[workload] = {"untraced_end_to_end": record["end_to_end"],
                            "per_layer": record["per_layer"]}
        save()
    if "optimize-noisy" in traced:
        baseline["optimize_noisy_split"] = split(traced["optimize-noisy"])
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
