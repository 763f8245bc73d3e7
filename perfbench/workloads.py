"""The four benchmark workloads.

Each workload builds its inputs from the workload seed alone; fisherctl sees
only the generated inputs (an ``init_seed``, a CLI ``--seed`` or a random
pulse grid).  The in-process workloads cycle through ``NUM_INPUTS`` inputs
and a run does each at least once, so the quality figure ``tr_inv`` is taken
over the same set whatever the run's length; ``sweep`` repeats one command.

One operation is one ``optimize`` call, one ``sweep`` command or one
evaluation batch.  ``run`` returns an :class:`Outcome` whose ``failures``
list the output checks it broke.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import process_cpu

NUM_INPUTS = 8

# optimize-noisy: the headline case (magfield-xyz, dephasing 0.2, T=2,
# 200 steps x 6 fields = 1200 controls).  The cap binds: no run converges.
NOISY_T = 2.0
NOISY_ITERS = 8
# optimize-noiseless: the C4 problem at T=1, optimum 3/(4 T^2).
NOISELESS_T = 1.0
NOISELESS_ITERS = 40
# sweep: the CLI over four xxz points.
SWEEP_GRID = "0.5:2.0:4"
SWEEP_ITERS = 8
# evaluate: random pulses over the catalog, noisy and noiseless.
EVAL_TIMES = (0.5, 1.0, 2.0)
EVAL_AMPLITUDE = 0.1

C7_FLOOR = -1e-7
PROB_SUM_ATOL = 1e-9


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    index: int
    tr_inv: float = math.nan  # the quality figure of this operation
    failures: list = field(default_factory=list)


def _seeds(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _InProcess:
    """Times ``_op(index)`` inside this process."""

    def run(self, index: int) -> Outcome:
        i = index % NUM_INPUTS
        cpu0 = process_cpu()
        t0 = time.perf_counter()
        value, failures = self._op(i)
        wall = time.perf_counter() - t0
        cpu = process_cpu() - cpu0
        return Outcome(wall, cpu, _self_rss_mb(), i, value, failures)

    def finish(self, outcomes) -> list:
        """Cross-operation checks: a repeated input reproduces its result."""
        first = {}
        failures = []
        for o in outcomes:
            if o.index in first and not _same(first[o.index], o.tr_inv):
                failures.append(f"input {o.index}: tr_inv {o.tr_inv!r} differs from "
                                f"the earlier run of the same input {first[o.index]!r}")
            first.setdefault(o.index, o.tr_inv)
        return failures


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class Optimize(_InProcess):
    """``optimize`` on magfield-xyz with BFGS from a seeded random start."""

    def __init__(self, seed: int, noise: bool):
        self.noise = noise
        self.t = NOISY_T if noise else NOISELESS_T
        self.iters = NOISY_ITERS if noise else NOISELESS_ITERS
        self.init_seeds = _seeds(seed, NUM_INPUTS)

    def setup(self):
        import fisherctl as fc

        self.fc = fc
        self.model = fc.get_model("magfield-xyz", noise=self.noise)
        zeros = fc.ControlGrid.zeros(len(self.model.control_hams),
                                     round(100 * self.t), self.t)
        traj = fc.propagate(self.model, self.model.true_values, zeros)
        self.uncontrolled = fc.tr_inv(fc.cfim(*fc.measure_derivs(
            traj, self.model.default_povm)))
        self._optimize(self.init_seeds[0], max_iters=1)  # warm-up

    def _optimize(self, init_seed: int, max_iters: int):
        cfg = self.fc.GrapeConfig(update_rule="bfgs", max_iters=max_iters,
                                  init_scheme="random", init_seed=init_seed,
                                  convergence_tol=1e-12)
        return self.fc.optimize(self.model, self.model.true_values, None, None,
                                self.t, cfg)

    def _op(self, i: int):
        try:
            res = self._optimize(self.init_seeds[i], self.iters)
        except Exception as exc:  # a raising optimize is a counted failure
            return math.nan, [f"optimize raised {type(exc).__name__}: {exc}"]
        failures = []
        value = res.final_tr_inv
        history = np.asarray(res.objective_history)
        if np.any(np.diff(history) < 0):
            failures.append("objective history decreases")
        if not math.isfinite(value) or not math.isfinite(res.final_objective):
            failures.append(f"non-finite result: tr_inv {value}")
        elif not self.noise:
            optimum = 3.0 / (4.0 * self.t**2)
            if value < optimum * (1 - 1e-9):
                failures.append(f"tr_inv {value} beats the optimum {optimum}")
            if value > self.uncontrolled:
                failures.append(f"tr_inv {value} worse than uncontrolled "
                                f"{self.uncontrolled}")
        return value, failures

    def quality(self, outcomes) -> float:
        return _median_per_input(outcomes)


class Evaluate(_InProcess):
    """Forward evaluation of seeded random pulses over the whole catalog."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        import fisherctl as fc

        self.fc = fc
        self.models = [fc.get_model(name, noise=noise)
                       for name in fc.MODEL_NAMES for noise in (False, True)]
        self.batches = [self._batch(i) for i in range(NUM_INPUTS)]
        model, grid = self.batches[0][0]
        self._evaluate(model, grid)  # warm-up

    def _batch(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        batch = []
        for model in self.models:
            p = len(model.control_hams)
            for t in EVAL_TIMES:
                m = round(100 * t)
                amps = rng.uniform(-EVAL_AMPLITUDE, EVAL_AMPLITUDE, size=(p, m))
                batch.append((model, self.fc.ControlGrid(p, m, t, amps)))
        return batch

    def _evaluate(self, model, grid):
        fc = self.fc
        traj = fc.propagate(model, model.true_values, grid, deriv_method="exact")
        p, dp = fc.measure_derivs(traj, model.default_povm)
        f_cl = fc.cfim(p, dp)
        f_q = fc.qfim(traj.final_state, list(traj.final_derivs))
        return p, f_cl, f_q, fc.tr_inv(f_cl)

    def _op(self, i: int):
        failures = []
        values = []
        for model, grid in self.batches[i]:
            try:
                p, f_cl, f_q, value = self._evaluate(model, grid)
            except Exception as exc:  # a raising evaluation is a counted failure
                failures.append(f"evaluation raised {type(exc).__name__}: {exc}")
                continue
            gap = float(np.linalg.eigvalsh(f_q.matrix - f_cl.matrix).min())
            if gap < C7_FLOOR:
                failures.append(f"QFIM - CFIM min eigenvalue {gap:.3e} < {C7_FLOOR}")
            if abs(float(np.sum(p)) - 1.0) > PROB_SUM_ATOL:
                failures.append(f"probabilities sum to {np.sum(p)!r}")
            values.append(value)
        return (statistics.median(values) if values else math.nan), failures

    def quality(self, outcomes) -> float:
        return _median_per_input(outcomes)


class Sweep:
    """The ``sweep`` CLI on xxz, one fresh process per operation."""

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.program_seed = _seeds(seed, 1)[0] % 100000
        self.root = root
        self.workdir = workdir
        self.threads = str(len(os.sched_getaffinity(0)))
        self.outputs = []  # the CSV of every operation, in order

    def argv(self, out: Path) -> list:
        return ["sweep", "--model", "xxz", "--t-grid", SWEEP_GRID,
                "--max-iters", str(SWEEP_ITERS), "--seed", str(self.program_seed),
                "--reproducible", "--out", str(out)]

    def env(self, threads: str) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["FISHERCTL_THREADS"] = threads
        return env

    def setup(self):
        import fisherctl as fc
        import fisherctl.cli  # noqa: F401  (the command's own import cost)

        model = fc.get_model("xxz")
        t = float(SWEEP_GRID.split(":")[0])
        zeros = fc.ControlGrid.zeros(len(model.control_hams), round(100 * t), t)
        traj = fc.propagate(model, model.true_values, zeros)
        fc.tr_inv(fc.cfim(*fc.measure_derivs(traj, model.default_povm)))  # warm-up

    def launch(self, out: Path, threads: str, prefix=()) -> tuple:
        """Run one sweep command; return (exit code, wall, cpu, peak rss MB)."""
        cmd = [sys.executable, *prefix] if prefix else [sys.executable, "-m", "fisherctl"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + self.argv(out), cwd=self.root,
                                env=self.env(threads), stdout=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def run(self, index: int, prefix=()) -> Outcome:
        out = self.workdir / f"sweep-{len(self.outputs)}.csv"
        self.outputs.append(out)
        code, wall, cpu, rss = self.launch(out, self.threads, prefix)
        failures, value = self._check_file(out, code)
        return Outcome(wall, cpu, rss, 0, value, failures)

    def _check_file(self, out: Path, code: int) -> tuple:
        if code != 0:
            return [f"sweep exited with {code}"], math.nan
        rows = out.read_text().splitlines()
        header = rows[0].split(",")
        col = header.index("tr_inv_controlled")
        iters = header.index("iters")
        failures = []
        values = []
        for row in rows[1:]:
            cells = row.split(",")
            value = float(cells[col])
            if not math.isfinite(value) or int(cells[iters]) == 0:
                failures.append(f"failed sweep row: {row}")
            values.append(value)
        return failures, statistics.fmean(values)

    def finish(self, outcomes) -> list:
        """Every CSV of the run equals one single-worker run of the same seed."""
        ref_out = self.workdir / "sweep-reference.csv"
        code, *_ = self.launch(ref_out, "1")
        if code != 0:
            return [f"single-worker reference sweep exited with {code}"]
        reference = ref_out.read_bytes()
        return [f"{path.name} differs from the single-worker run"
                for path in self.outputs
                if not path.exists() or path.read_bytes() != reference]

    def quality(self, outcomes) -> float:
        return outcomes[0].tr_inv


def _median_per_input(outcomes) -> float:
    per_input = {}
    for o in outcomes:
        per_input.setdefault(o.index, o.tr_inv)
    return statistics.median(per_input.values())


NAMES = ("optimize-noisy", "optimize-noiseless", "sweep", "evaluate")


def make(name: str, seed: int, root: Path, workdir: Path):
    if name == "optimize-noisy":
        return Optimize(seed, noise=True)
    if name == "optimize-noiseless":
        return Optimize(seed, noise=False)
    if name == "sweep":
        return Sweep(seed, root, workdir)
    if name == "evaluate":
        return Evaluate(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
