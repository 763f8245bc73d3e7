"""fisherctl benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: optimize-noisy, optimize-noiseless, sweep, evaluate (see
``workloads.py`` and ``README.md``).  The program is taken from ``src/`` of
the checkout; without it the benchmark exits with code 2.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it first repeats the untraced operations for half
the time, then installs the span wrappers and reports the per-layer metrics,
each per operation.  Either way every operation's outputs are checked.

Standard output holds an environment record, a table of every metric by
name and unit, and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and per-run
details are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
MIN_SWEEP_OPS = 2  # byte-identity across runs needs two

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tr_inv", "1"),
)

# name, unit, better -- every value is per workload operation, except
# models.get_model.s, which is the set-up's.
PER_LAYER = (
    ("operators.validate_hermitian.calls", "count", "lower"),
    ("operators.commutator_superop.calls", "count", "lower"),
    ("models.get_model.s", "s", "lower"),
    ("dynamics.propagate.calls", "count", "lower"),
    ("dynamics.propagate.self_s", "s", "lower"),
    ("dynamics.propagate_exact.s", "s", "lower"),
    ("dynamics.build_liouvillian.calls", "count", "lower"),
    ("dynamics.build_liouvillian.s", "s", "lower"),
    ("dynamics.step_hamiltonians.s", "s", "lower"),
    ("dynamics.expm16.calls", "count", "lower"),
    ("dynamics.expm16.s", "s", "lower"),
    ("dynamics.expm32.calls", "count", "lower"),
    ("dynamics.expm32.s", "s", "lower"),
    ("dynamics.measure.s", "s", "lower"),
    ("fisher.cfim.s", "s", "lower"),
    ("fisher.qfim.s", "s", "lower"),
    ("fisher.tr_inv.s", "s", "lower"),
    ("oracles.s", "s", "lower"),
    ("grape.context.calls", "count", "lower"),
    ("grape.context.s", "s", "lower"),
    ("grape.gradient.calls", "count", "lower"),
    ("grape.gradient.s", "s", "lower"),
    ("grape.backward.s", "s", "lower"),
    ("grape.optimize.self_s", "s", "lower"),
    ("grape.iterations", "count", "higher"),
    ("grape.evals", "count", "lower"),
    ("grape.accept_ratio", "ratio", "higher"),
    ("grape.iter_ms", "ms", "lower"),
    ("cli.sweep.points", "count", "higher"),
    ("cli.sweep.point_s", "s", "lower"),
    ("cli.sweep.cores_used", "cores", "higher"),
    ("cli.write.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, build the models and warm up, then exit")
    return p.parse_args(argv)


# -- environment -------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "FISHERCTL_THREADS": os.environ.get("FISHERCTL_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the program's sources; names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- measuring ---------------------------------------------------------------------


def measure_setup(args) -> list:
    """Wall time of fresh processes that import, build the models and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # A blocking wait times the exit exactly; a wait with a timeout polls.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
    return samples


def run_for(workload, seconds: float, min_ops: int, run_op) -> list:
    """Run operations until ``seconds`` have passed and ``min_ops`` are done."""
    outcomes = []
    end = time.perf_counter() + seconds
    while len(outcomes) < min_ops or time.perf_counter() < end:
        outcomes.append(run_op(len(outcomes)))
    return outcomes


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    """Time per operation over the whole run: total time over operations.

    The host this benchmark was sized on switches between a fast and a slow
    state that each last from seconds to minutes.  A run's median operation
    jumps from one state to the other as the slow share crosses a half; the
    mean moves with that share smoothly, so runs of the same code agree
    better.
    """
    return statistics.fmean(values) if values else 0.0


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(op_groups, setup_group, traced, untraced) -> dict:
    """Per-operation layer figures from the spans and counts of each operation.

    ``op_groups`` holds one ``(spans, counts)`` pair per traced operation;
    ``setup_group`` the pair of the traced set-up.
    """
    from spans import summarize

    n = max(1, len(op_groups))
    totals: dict = {}
    counts: dict = {}
    for spans, op_counts in op_groups:
        for name, entry in summarize(spans).items():
            acc = totals.setdefault(name, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                acc[key] += value
        for name, value in op_counts.items():
            counts[name] = counts.get(name, 0.0) + value

    def span(name, key):
        return totals.get(name, {}).get(key, 0.0) / n

    def count(name):
        return counts.get(name, 0.0) / n

    setup = summarize(setup_group[0])
    iterations = count("grape.iterations")
    evals = span("dynamics.propagate", "calls") - span("dynamics.propagate", "exact_calls")
    points = span("cli.sweep.point", "calls")
    sweep_wall = count("cli.sweep.wall_s")
    traced_wall = _mean([o.wall_s for o in traced])
    return {
        "operators.validate_hermitian.calls": count("operators.validate_hermitian"),
        "operators.commutator_superop.calls": count("operators.commutator_superop"),
        "models.get_model.s": setup.get("models.get_model", {}).get("s", 0.0),
        "dynamics.propagate.calls": span("dynamics.propagate", "calls"),
        "dynamics.propagate.self_s": span("dynamics.propagate", "self_s"),
        "dynamics.propagate_exact.s": span("dynamics.propagate", "exact_s"),
        "dynamics.build_liouvillian.calls": span("dynamics.build_liouvillian", "calls"),
        "dynamics.build_liouvillian.s": span("dynamics.build_liouvillian", "s"),
        "dynamics.step_hamiltonians.s": span("dynamics.step_hamiltonians", "s"),
        "dynamics.expm16.calls": span("dynamics.expm16", "calls"),
        "dynamics.expm16.s": span("dynamics.expm16", "s"),
        "dynamics.expm32.calls": span("dynamics.expm32", "calls"),
        "dynamics.expm32.s": span("dynamics.expm32", "s"),
        "dynamics.measure.s": span("dynamics.measure", "s"),
        "fisher.cfim.s": span("fisher.cfim", "s"),
        "fisher.qfim.s": span("fisher.qfim", "s"),
        "fisher.tr_inv.s": span("fisher.tr_inv", "s"),
        "oracles.s": span("oracles", "s"),
        "grape.context.calls": span("grape.context", "calls"),
        "grape.context.s": span("grape.context", "s"),
        "grape.gradient.calls": span("grape.gradient", "calls"),
        "grape.gradient.s": span("grape.gradient", "s"),
        "grape.backward.s": span("grape.backward", "s"),
        "grape.optimize.self_s": span("grape.optimize", "self_s"),
        "grape.iterations": iterations,
        "grape.evals": evals,
        "grape.accept_ratio": iterations / evals if evals else 0.0,
        "grape.iter_ms": 1000.0 * span("grape.optimize", "s") / iterations if iterations else 0.0,
        "cli.sweep.points": points,
        "cli.sweep.point_s": span("cli.sweep.point", "s") / points if points else 0.0,
        "cli.sweep.cores_used": count("cli.sweep.cpu_s") / sweep_wall if sweep_wall else 0.0,
        "cli.write.s": span("cli.write", "s"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - _mean([o.wall_s for o in untraced]),
    }


def _group_by_run(tracer) -> dict:
    groups: dict = {}
    for s in tracer.spans:
        groups.setdefault(s[6], ([], {}))[0].append(s)
    for (name, run), value in tracer.counts.items():
        groups.setdefault(run, ([], {}))[1][name] = value
    return groups


# -- main --------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fisherctl" / "__init__.py").is_file():
        print(f"error: no fisherctl sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, ROOT, workdir)
    if args.setup_probe:
        workload.setup()
        return 0

    env = environment()
    setup_samples = measure_setup(args)
    workload.setup()
    is_sweep = args.workload == "sweep"
    min_ops = MIN_SWEEP_OPS if is_sweep else workloads.NUM_INPUTS

    if not args.trace:
        outcomes = run_for(workload, args.seconds, min_ops, workload.run)
        traced = []
        per_layer = None
    else:
        from spans import Tracer, load

        # Both halves run the same first inputs, so their means compare.
        min_ops = max(MIN_SWEEP_OPS, min_ops // 2)
        untraced = run_for(workload, args.seconds / 2, min_ops, workload.run)
        tracer = Tracer()
        tracer.install()
        tracer.run_id = "setup"
        try:
            workload.setup()
            if is_sweep:
                cli = [str(ROOT / "perfbench" / "traced_cli.py")]

                def traced_op(i):
                    return workload.run(i, prefix=cli + [str(workdir / f"spans-{i}.json.gz")])
            else:
                def traced_op(i):
                    tracer.run_id = i
                    return workload.run(i)
            traced = run_for(workload, args.seconds / 2, min_ops, traced_op)
        finally:
            tracer.uninstall()
        tracer.dump(workdir / "spans.json.gz")
        groups = _group_by_run(tracer)
        setup_group = groups.get("setup", ([], {}))
        if is_sweep:
            op_groups = [load(workdir / f"spans-{i}.json.gz") for i in range(len(traced))]
        else:
            op_groups = [groups.get(i, ([], {})) for i in range(len(traced))]
        per_layer = layer_metrics(op_groups, setup_group, traced, untraced)
        outcomes = untraced + traced

    # Traced sweep runs write their CSV too; all of them must match.
    cross_failures = workload.finish(outcomes)
    failed_ops = [o for o in outcomes if o.failures]
    attempted = len(outcomes) + 1  # the cross-run check counts as one attempt
    failed = len(failed_ops) + (1 if cross_failures else 0)
    for message in [m for o in failed_ops for m in o.failures] + cross_failures:
        print(f"check failed: {message}", file=sys.stderr)

    timed = outcomes if not args.trace else untraced
    e2e = {
        "setup_s": _median(setup_samples),
        "wall_s": _mean([o.wall_s for o in timed]),
        "cpu_s": _mean([o.cpu_s for o in timed]),
        "peak_rss_mb": max(o.peak_rss_mb for o in timed),
        "tr_inv": workload.quality(timed),
    }
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {len(timed)} timed operations")
    for name, unit in END_TO_END:
        extra = ""
        if name == "setup_s":
            extra = f"  (median of {len(setup_samples)})"
        elif name in ("wall_s", "cpu_s"):
            values = [getattr(o, name) for o in timed]
            extra = (f"  (mean of {len(values)}; median {_median(values):.4f} "
                     f"min {min(values):.4f} max {max(values):.4f})")
        print(f"  {name:<16} {e2e[name]:>14.6g} {unit}{extra}")
    print(f"  {'fail_frac':<16} {failed / attempted:>14.6g} 1  ({failed} of {attempted})")
    if per_layer is not None:
        for name, unit, _better in PER_LAYER:
            print(f"  {name:<36} {per_layer[name]:>14.6g} {unit}")

    if per_layer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
    record = {
        "env": env,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_samples_s": setup_samples,
        "operations": [
            {"wall_s": o.wall_s, "cpu_s": o.cpu_s, "peak_rss_mb": o.peak_rss_mb,
             "input": o.index, "tr_inv": o.tr_inv, "failures": o.failures}
            for o in outcomes
        ],
        "end_to_end": e2e,
        "per_layer": per_layer,
        "fail_frac": failed / attempted,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
