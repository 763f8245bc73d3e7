"""The benchmark's own tests.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric names --------------------------------------------------------------------


def test_metric_names_are_well_formed():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))


def test_benchmark_json_matches_run_py():
    bench = _bench()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert all(m["better"] == "lower" for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


# -- span arithmetic -------------------------------------------------------------------


def _span(i, name, start, end, parent=None, thread=1, tag=None):
    return (i, name, start, end, parent, thread, 0, tag)


def test_self_time_subtracts_children():
    tree = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 5.0, 6.0, parent=1),
        _span(4, "leaf", 2.0, 3.0, parent=2),
    ]
    out = spans.summarize(tree)
    assert out["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert out["a"]["self_s"] == pytest.approx(2.0)
    assert out["leaf"]["self_s"] == pytest.approx(1.0)
    assert out["root"]["s"] == pytest.approx(10.0)
    assert out["root"]["calls"] == 1


def test_overlapping_children_from_other_threads_count_once():
    # Two worker threads each run a child inside the parent's interval;
    # their overlap is covered once, and a child sticking out is clipped.
    tree = [
        _span(1, "sweep", 0.0, 10.0),
        _span(2, "point", 1.0, 6.0, parent=1, thread=2),
        _span(3, "point", 4.0, 12.0, parent=1, thread=3),
    ]
    out = spans.summarize(tree)
    assert out["sweep"]["self_s"] == pytest.approx(1.0)  # 0-1 only
    assert out["point"]["s"] == pytest.approx(5.0 + 8.0)


def test_recursion_is_not_counted_twice():
    tree = [
        _span(1, "measure", 0.0, 4.0, tag="exact"),
        _span(2, "measure", 1.0, 2.0, parent=1),
    ]
    out = spans.summarize(tree)["measure"]
    assert out["s"] == pytest.approx(4.0)
    assert out["self_s"] == pytest.approx(3.0 + 1.0)
    assert out["calls"] == 2
    assert out["exact_calls"] == 1 and out["exact_s"] == pytest.approx(4.0)


def test_tracer_wraps_and_restores_the_layers():
    import fisherctl
    import fisherctl.dynamics
    import fisherctl.grape
    import scipy.linalg

    originals = (fisherctl.propagate, fisherctl.grape.propagate, scipy.linalg.expm,
                 fisherctl.grape.GradientContext.__init__)
    tracer = spans.Tracer()
    tracer.install()
    tracer.run_id = 7
    try:
        model = fisherctl.get_model("zz")
        grid = fisherctl.ControlGrid.zeros(len(model.control_hams), 10, 0.1)
        fisherctl.propagate(model, model.true_values, grid)
    finally:
        tracer.uninstall()
    assert (fisherctl.propagate, fisherctl.grape.propagate, scipy.linalg.expm,
            fisherctl.grape.GradientContext.__init__) == originals
    out = spans.summarize(tracer.spans)
    assert out["dynamics.propagate"]["exact_calls"] == 1
    assert out["dynamics.expm32"]["calls"] == 3  # uniform grid: one step, three params
    assert all(s[6] == 7 for s in tracer.spans)
    assert tracer.counts[("operators.validate_hermitian", 7)] > 0


# -- smoke runs --------------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_operation_of_each_workload_passes_its_checks(name, tmp_path):
    w = workloads.make(name, 3, ROOT, tmp_path)
    w.setup()
    outcome = w.run(0)
    assert outcome.failures == []
    assert outcome.wall_s > 0 and outcome.cpu_s > 0 and outcome.peak_rss_mb > 0
    assert math.isfinite(w.quality([outcome]))


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "optimize-noiseless",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_run_fails_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- baseline arithmetic ---------------------------------------------------------------


def test_baseline_spread_is_interquartile_range_over_median():
    import baseline

    out = baseline.summarize([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert out["median"] == pytest.approx(5.5)
    assert (out["q1"], out["q3"]) == pytest.approx((2.75, 8.25))
    assert out["spread"] == pytest.approx(5.5 / 5.5)
    assert out["n"] == 10
