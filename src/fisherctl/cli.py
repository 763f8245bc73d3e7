"""Experiment runner: sweep precision limits over measurement times, run
single pulse optimizations, tabulate closed-form reference values and run the
self-check battery.

Subcommands
-----------
``sweep``     per grid time: uncontrolled precision limit, GRAPE-controlled
              limit, closed-form value when one exists; CSV or JSON output.
``optimize``  one GRAPE run; stores the pulse grid with enough metadata to
              re-evaluate it bit-for-bit (``--replay`` does exactly that).
``oracle``    closed-form tables for a catalog model over a time grid.
``validate``  fast invariant battery (propagation, information matrices,
              closed-form consistency); nonzero exit on failure.

Exit codes: 0 success, 2 configuration error, 3 output I/O error, 4 numerical
failure at every grid point (isolated failures are flagged in the output and
the run continues).  Sweep points are evaluated one after another, in grid
order.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .dynamics import ControlGrid, measure, measure_derivs, propagate
from .errors import FisherctlError, InvariantViolation, PropagationError, SingularContribution
from .fisher import cfim, qfim, tr_inv
from .grape import OBJECTIVES, GrapeConfig, GrapeResult, _objective_value, num_steps, optimize
from .models import MODEL_NAMES, get_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


@dataclass(frozen=True)
class RunConfig:
    """Everything one sweep / optimize invocation needs; the time grid comes
    checked from :func:`_parse_t_grid`."""

    model: str
    noise: bool = True
    rates: tuple | None = None
    t_grid: tuple = ()
    objective: str | None = None  # None = model default
    grape: GrapeConfig = field(default_factory=GrapeConfig)
    out: str = "-"
    format: str = "csv"
    reproducible: bool = False
    warm_start: bool = False

    def __post_init__(self):
        if self.grape.steps_per_unit < 10:
            raise FisherctlError("steps_per_unit must be at least 10")
        if self.objective is not None and self.objective not in OBJECTIVES:
            raise FisherctlError(f"unknown objective {self.objective!r}")
        if self.format not in ("csv", "json"):
            raise FisherctlError(f"unknown format {self.format!r}")
        if not isinstance(self.out, str):
            raise FisherctlError(f"out must be a path, got {self.out!r}")


@dataclass(frozen=True)
class SweepRecord:
    """One row of sweep output (one abscissa of the precision-vs-time curve)."""

    t: float
    tr_inv_uncontrolled: float
    tr_inv_controlled: float
    tr_inv_oracle: float | None
    objective: float
    iters: int
    converged: bool
    failed: bool = False


def _fmt(value) -> str:
    """12-significant-digit float serialization; inf/nan as literals."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "-inf" if v < 0 else "inf"
    if math.isnan(v):
        return "nan"
    return format(v, ".12g")


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    if isinstance(value, (np.floating, np.integer)):
        return _json_safe(value.item())
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


class _OutputError(Exception):
    pass


@contextlib.contextmanager
def _output(path: str):
    """The stream to write to: stdout for "-", else the file, closed after."""
    if path == "-":
        yield sys.stdout
        return
    try:
        stream = open(path, "w", newline="")
    except OSError as exc:
        raise _OutputError(str(exc)) from exc
    with stream:
        yield stream


def _write_csv(path: str, columns, rows, reproducible: bool) -> None:
    """A timestamp line (unless reproducible), the header, then the rows."""
    with _output(path) as stream:
        if not reproducible:
            stream.write(_timestamp_line() + "\n")
        writer = csv.writer(stream)
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)


def _write_json(path: str, payload: dict) -> None:
    with _output(path) as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")


def _timestamp_line() -> str:
    import datetime

    return f"# generated {datetime.datetime.now().isoformat(timespec='seconds')}"


def _model_rates(config: RunConfig):
    return get_model(config.model, noise=config.noise, rates=config.rates)


def _uncontrolled_tr_inv(model, t: float, steps_per_unit: int) -> float:
    grid = ControlGrid.zeros(len(model.control_hams), num_steps(t, steps_per_unit), t)
    traj = propagate(model, model.true_values, grid, deriv_method="exact")
    p, dp = measure_derivs(traj, model.default_povm)
    return tr_inv(cfim(p, dp))


def _sweep_point(config: RunConfig, model, t: float, index: int,
                 warm_controls) -> tuple:
    grape_cfg = dataclasses.replace(config.grape, init_seed=config.grape.init_seed + index)
    if warm_controls is not None:
        m = num_steps(t, grape_cfg.steps_per_unit)
        grape_cfg = dataclasses.replace(
            grape_cfg, init_scheme="user",
            user_controls=_rescale_pulse(warm_controls, m),
        )
    numerical = (PropagationError, SingularContribution, InvariantViolation)
    try:
        unc = _uncontrolled_tr_inv(model, t, grape_cfg.steps_per_unit)
    except numerical:
        unc = math.nan
    try:
        result = optimize(model, model.true_values, None, None, t, grape_cfg,
                          objective=config.objective)
    except numerical:
        result = None
    oracle = None
    if model.name in ORACLE_COLUMNS:
        row = _oracle_row(model.name, model.true_values, model.rates, t)
        oracle = None if row["note"] else row.get("tr_inv")
    failed = result is None
    record = SweepRecord(
        t=t,
        tr_inv_uncontrolled=unc,
        tr_inv_controlled=math.nan if failed else result.final_tr_inv,
        tr_inv_oracle=oracle,
        objective=math.nan if failed else result.final_objective,
        iters=0 if failed else result.iterations_used,
        converged=not failed and result.converged,
        failed=failed,
    )
    return record, None if failed else result.final_controls.amplitudes


def _rescale_pulse(amplitudes: np.ndarray, new_steps: int) -> np.ndarray:
    """Linear time-rescaling of a pulse grid onto a new step count."""
    p, m = amplitudes.shape
    if m == new_steps:
        return amplitudes.copy()
    old = (np.arange(m) + 0.5) / m
    new = (np.arange(new_steps) + 0.5) / new_steps
    return np.stack([np.interp(new, old, amplitudes[k]) for k in range(p)])


SWEEP_COLUMNS = ("t", "tr_inv_uncontrolled", "tr_inv_controlled",
                 "tr_inv_oracle", "objective", "iters", "converged")


def _write_sweep(config: RunConfig, records: list) -> None:
    rows = [dataclasses.asdict(r) for r in records]
    if config.format == "csv":
        _write_csv(config.out, SWEEP_COLUMNS, rows, config.reproducible)
        return
    config_echo = {
        "model": config.model,
        "noise": config.noise,
        "rates": list(config.rates) if config.rates else None,
        "t_grid": list(config.t_grid),
        "steps_per_unit": config.grape.steps_per_unit,
        "objective": config.objective,
        "seed": config.grape.init_seed,
    }
    if not config.reproducible:
        config_echo["generated"] = _timestamp_line()[2:]
    _write_json(config.out, {
        "config": config_echo,
        "records": [{c: _json_safe(row[c]) for c in SWEEP_COLUMNS} for row in rows],
    })


def cmd_sweep(config: RunConfig) -> int:
    model = _model_rates(config)
    records, warm = [], None
    for i, t in enumerate(config.t_grid):
        record, pulse = _sweep_point(config, model, t, i, warm)
        records.append(record)
        if config.warm_start:
            warm = pulse
    _write_sweep(config, records)
    if all(r.failed for r in records):
        return EXIT_NUMERICAL
    return EXIT_OK


# -- optimize ---------------------------------------------------------------


def cmd_optimize(config: RunConfig) -> int:
    model = _model_rates(config)
    t = config.t_grid[0]
    result = optimize(model, model.true_values, None, None, t, config.grape,
                      objective=config.objective)
    payload = {
        "model": config.model,
        "noise": config.noise,
        "rates": list(config.rates) if config.rates else None,
        "x_true": _json_safe(model.true_values),
        "t": t,
        "steps": result.final_controls.num_steps,
        "steps_per_unit": config.grape.steps_per_unit,
        "seed": config.grape.init_seed,
        "objective_name": result.objective,
        "update_rule": config.grape.update_rule,
        "amplitude_bound": config.grape.amplitude_bound,
        "amplitudes": _json_safe(result.final_controls.amplitudes),
        "final_objective": _json_safe(result.final_objective),
        "final_tr_inv": _json_safe(result.final_tr_inv),
        "iterations": result.iterations_used,
        "converged": result.converged,
    }
    _write_json(config.out if config.out != "-" else "pulse.json", payload)
    _print_summary(result)
    return EXIT_OK


def _print_summary(result: GrapeResult) -> None:
    print(f"objective ({result.objective}): {_fmt(result.final_objective)}")
    print(f"tr_inv: {_fmt(result.final_tr_inv)}")
    print(f"iterations: {result.iterations_used}  converged: {result.converged}")
    print(f"evaluations: {result.evaluations}")
    print(f"termination: {result.termination}")


PULSE_KEYS = ("model", "noise", "rates", "x_true", "t", "amplitudes",
              "objective_name", "final_objective")


def _pulse_amplitudes(payload) -> np.ndarray:
    """Check a pulse-file payload's keys; return its amplitude grid."""
    if not isinstance(payload, dict):
        raise FisherctlError("pulse file must hold a JSON object")
    missing = [key for key in PULSE_KEYS if key not in payload]
    if missing:
        raise FisherctlError(f"pulse file lacks key(s): {', '.join(missing)}")
    try:
        amplitudes = np.asarray(payload["amplitudes"])
    except ValueError as exc:  # ragged nested lists
        raise FisherctlError(f"pulse file amplitudes are not a grid: {exc}")
    if amplitudes.dtype.kind not in "iuf":
        raise FisherctlError("pulse file amplitudes must be numbers")
    if amplitudes.ndim != 2:
        raise FisherctlError(
            f"pulse file amplitudes must be a 2-D grid, got {amplitudes.ndim}-D"
        )
    return amplitudes.astype(float)


def cmd_replay(pulsefile: str) -> int:
    try:
        with open(pulsefile) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read pulse file: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        payload = json.loads(text)
        amplitudes = _pulse_amplitudes(payload)
        model = get_model(payload["model"], noise=payload["noise"],
                          rates=payload["rates"])
        # files written before the bound was recorded have none
        bound = payload.get("amplitude_bound")
        grid = ControlGrid(amplitudes.shape[0], amplitudes.shape[1], float(payload["t"]),
                           amplitudes, None if bound is None
                           else _number("pulse file amplitude_bound", bound))
        x_true = np.asarray(payload["x_true"], dtype=float)
        stored_val = float(payload["final_objective"])  # also parses "inf"
    except FisherctlError:
        raise
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError included
        raise FisherctlError(f"malformed pulse file: {exc}")
    traj = propagate(model, x_true, grid, deriv_method="exact")
    p, dp = measure_derivs(traj, model.default_povm)
    f = cfim(p, dp)
    value = _objective_value(payload["objective_name"], f)
    print(f"stored objective:      {_fmt(stored_val)}")
    print(f"re-evaluated objective: {_fmt(value)}")
    print(f"tr_inv: {_fmt(tr_inv(f))}")
    if abs(value - stored_val) > 1e-9 * max(1.0, abs(stored_val)):
        print("MISMATCH: stored and re-evaluated objectives differ", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# -- oracle -----------------------------------------------------------------


ORACLE_COLUMNS = {
    "magfield": ("t", "p_phip", "p_phim", "p_psip", "p_psim", "f_bb", "f_tt", "f_pp",
                 "f_bt", "tr_inv", "lam_minus", "lam_plus", "note"),
    "zz": ("t", "p_pp", "p_pm", "p_mp", "p_mm", "qfim_diag", "note"),
    "xxz": ("t", "p_pp", "p_pm", "p_mp", "p_mm", "f_diag", "f_offdiag", "tr_inv", "note"),
}


def _oracle_row(name: str, x, rates: tuple, t: float) -> dict:
    """Closed-form values of an uncontrolled catalog model at time t, keyed by
    ``ORACLE_COLUMNS[name]``.

    ``rates`` are the model's dephasing rates, zeros included.  ``note`` is
    empty exactly when every value in the row is exact; otherwise it says why
    not: the field model's factorized forms under dephasing, unequal exchange
    rates (no information matrix), or a singular point (no information matrix).
    """
    row, notes = {"t": t}, []
    try:
        if name == "magfield":
            if rates[0]:
                notes.append("factorized")
            pr = oracles.oracle_magfield_bell_probs(*x, rates[0], t)
            row.update(zip(("p_phip", "p_phim", "p_psip", "p_psim"), pr))
            row["lam_minus"], row["lam_plus"] = oracles.oracle_magfield_eigenvalues(rates[0], t)
            f = oracles.oracle_magfield_cfim(*x, rates[0], t)
            row["f_bb"], row["f_tt"], row["f_pp"] = np.diag(f.matrix)
            row["f_bt"] = f.matrix[0, 1]
            row["tr_inv"] = tr_inv(f)
        elif name == "zz":
            pr = oracles.oracle_zz_probs(*x, *rates, t)
            row.update(zip(("p_pp", "p_pm", "p_mp", "p_mm"), pr))
            row["qfim_diag"] = oracles.oracle_zz_qfim_pure(0.0, 0.0, 0.0, t).matrix[0, 0]
        else:
            pr = oracles.oracle_xxz_probs(*x, *rates, t)
            row.update(zip(("p_pp", "p_pm", "p_mp", "p_mm"), pr))
            if rates[0] != rates[1]:
                notes.append("cfim needs equal rates")
            else:
                f = oracles.oracle_xxz_cfim(*x, rates[0], t)
                row["f_diag"], row["f_offdiag"] = f.matrix[0, 0], f.matrix[0, 1]
                row["tr_inv"] = oracles.oracle_xxz_trinv(*x, rates[0], t)
    except InvariantViolation:
        notes.append("singular")
    row["note"] = "; ".join(notes)
    return row


def cmd_oracle(model, x, t_grid: tuple, out: str, reproducible: bool = False) -> int:
    columns = ORACLE_COLUMNS[model.name]
    rows = [_oracle_row(model.name, x, model.rates, t) for t in t_grid]
    _write_csv(out, columns, rows, reproducible)
    return EXIT_OK


# -- validate ---------------------------------------------------------------


def cmd_validate() -> int:
    """Fast invariant battery; prints one line per check."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # report, never crash the battery
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def probabilities_match():
        for name in ("zz", "xxz"):
            model = get_model(name)
            for t in (0.5, 1.7):
                grid = ControlGrid.zeros(6, num_steps(t, 100), t)
                traj = propagate(model, model.true_values, grid, deriv_method=None)
                p = measure(traj.final_state, model.default_povm)
                row = _oracle_row(name, model.true_values, model.rates, t)
                po = [row[c] for c in ORACLE_COLUMNS[name][1:5]]
                assert np.max(np.abs(p - po)) < 1e-9, f"{name} at t={t}"

    def information_ordering():
        for name in MODEL_NAMES:
            model = get_model(name)
            t = 0.9
            grid = ControlGrid.zeros(6, num_steps(t, 100), t)
            traj = propagate(model, model.true_values, grid, deriv_method="exact")
            p, dp = measure_derivs(traj, model.default_povm)
            fc = cfim(p, dp)
            fq = qfim(traj.final_state, list(traj.final_derivs))
            gap = np.linalg.eigvalsh(fq.matrix - fc.matrix)
            assert gap.min() >= -1e-7, f"{name}: quantum bound violated ({gap.min():.2e})"

    def xxz_closed_form():
        model = get_model("xxz")
        t = 1.3
        grid = ControlGrid.zeros(6, num_steps(t, 100), t)
        traj = propagate(model, model.true_values, grid, deriv_method="exact")
        p, dp = measure_derivs(traj, model.default_povm)
        f = cfim(p, dp)
        fo = oracles.oracle_xxz_cfim(*model.true_values, model.rates[0], t)
        rel = np.max(np.abs(f.matrix - fo.matrix)) / np.max(np.abs(fo.matrix))
        assert rel < 1e-6, f"relative deviation {rel:.2e}"

    def trace_preserved():
        model = get_model("magfield")
        t = 2.0
        grid = ControlGrid.zeros(6, num_steps(t, 50), t)
        traj = propagate(model, model.true_values, grid, deriv_method=None)
        for state in traj.states:
            assert abs(np.trace(state).real - 1.0) < 1e-9

    def derivatives_match_differences():
        # exact state derivatives against central differences in every
        # parameter: a noisy driven trajectory (Pade derivative actions; the
        # long grid's steps take the degree-13 approximant with a squaring,
        # the short one's a low degree) and a noiseless one (Daleckii-Krein),
        # the latter also uncontrolled, where the spectrum is degenerate
        amps = np.random.default_rng(7).uniform(-0.3, 0.3, (6, 20))
        h = 1e-5
        for noise, ctrl in ((True, amps), (False, amps), (False, 0.0 * amps)):
            model = get_model("magfield-xyz", noise=noise)
            x = model.true_values
            for t in (1.0, 30.0):
                grid = ControlGrid(6, 20, t, ctrl)
                exact = propagate(model, x, grid, deriv_method="exact").final_derivs
                for a, step in enumerate(h * np.eye(len(x))):
                    fd = (propagate(model, x + step, grid, deriv_method=None).final_state
                          - propagate(model, x - step, grid, deriv_method=None).final_state)
                    fd /= 2 * h
                    rel = np.max(np.abs(exact[a] - fd)) / np.max(np.abs(fd))
                    assert rel < 1e-6, (f"noise={noise}, T={t}, parameter {a}: "
                                        f"relative deviation {rel:.2e}")

    check("closed-form probabilities (coupling models)", probabilities_match)
    check("quantum vs classical information ordering", information_ordering)
    check("closed-form information matrix (exchange model)", xxz_closed_form)
    check("trace preservation along trajectories", trace_preserved)
    check("exact state derivatives vs finite differences", derivatives_match_differences)

    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" -- {detail}"
        print(line)
        if not ok:
            failed += 1
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


# -- argument plumbing --------------------------------------------------------


def _number(key: str, value, integer: bool = False):
    """A flag or config value that must be a finite number, or an integer for
    counts and seeds; bool is refused although Python counts it as an int."""
    kinds = int if integer else (int, float)
    try:
        ok = (isinstance(value, kinds) and not isinstance(value, bool)
              and (integer or math.isfinite(value)))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise FisherctlError(f"{key} must be {kind}, got {value!r}")
    return value if integer else float(value)


def _floats(items, what: str) -> tuple:
    try:
        return tuple(float(v) for v in items)
    except (TypeError, ValueError):
        raise FisherctlError(f"bad {what}")


def _parse_t_grid(spec) -> tuple:
    """Measurement times from 'start:stop:count', a comma-separated string or
    a list; every time finite and positive, the grid strictly increasing."""
    if isinstance(spec, str):
        try:
            if ":" in spec:
                parts = spec.split(":")
                if len(parts) != 3:
                    raise FisherctlError(f"bad t-grid {spec!r}; expected start:stop:count")
                start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
                if count < 1:
                    raise FisherctlError("t-grid count must be >= 1")
                with np.errstate(invalid="ignore"):  # non-finite ends are refused below
                    grid = tuple(np.linspace(start, stop, count).tolist())
            else:
                grid = tuple(float(v) for v in spec.split(","))
        except ValueError as exc:
            raise FisherctlError(f"bad t-grid {spec!r}: {exc}")
    elif isinstance(spec, list):
        grid = tuple(_number("t_grid entry", t) for t in spec)
    else:
        raise FisherctlError(f"t_grid must be a string or a list of times, got {spec!r}")
    if not grid:
        raise FisherctlError("t_grid must be nonempty")
    if not all(math.isfinite(t) and t > 0 for t in grid):
        raise FisherctlError(f"t_grid entries must be finite and positive, got {spec!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise FisherctlError("t_grid must be strictly increasing")
    return grid


def _parse_noise(spec) -> tuple:
    """``(noise, rates)`` for :func:`get_model` from a flag or config value:
    absent or true keeps the model's default rates, false or all-zero rates
    select the noiseless variant, else a number, a list or a comma-separated
    string of finite nonnegative rates."""
    if spec is None or isinstance(spec, bool):  # bool is an int subclass
        return spec is not False, None
    if isinstance(spec, str):
        rates = _floats(spec.split(","), f"noise specification {spec!r}")
    elif isinstance(spec, (int, float, list)):
        rates = tuple(_number("dephasing rate", r)
                      for r in (spec if isinstance(spec, list) else [spec]))
    else:
        raise FisherctlError(f"bad noise specification {spec!r}")
    if not all(math.isfinite(r) and r >= 0 for r in rates):
        raise FisherctlError(f"dephasing rates must be finite and nonnegative, got {spec!r}")
    noise = any(r > 0 for r in rates)
    return noise, rates if noise else None


def _parse_params(spec: str, model) -> np.ndarray:
    x = _floats(spec.split(","), f"parameter list {spec!r}")
    if len(x) != model.num_params or not all(map(math.isfinite, x)):
        raise FisherctlError(
            f"model {model.name!r} takes {model.num_params} finite parameter values, "
            f"got {spec!r}"
        )
    return np.asarray(x)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherctl",
        description="Precision limits and pulse synthesis for multiparameter "
                    "estimation under controlled open-system dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--model", choices=MODEL_NAMES)
        p.add_argument("--noise", help="dephasing rate(s), comma separated; 0 disables")
        p.add_argument("--t-grid", help="start:stop:count or comma-separated times")
        p.add_argument("--steps-per-unit", type=int)
        p.add_argument("--objective", choices=OBJECTIVES)
        p.add_argument("--seed", type=int)
        p.add_argument("--init", choices=("zeros", "random"))
        p.add_argument("--update", choices=("gradient", "bfgs"))
        p.add_argument("--max-iters", type=int)
        p.add_argument("--amplitude-bound", type=float)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--reproducible", action="store_true",
                       help="suppress timestamps for byte-identical output")

    p_sweep = sub.add_parser("sweep", help="precision limits over a time grid")
    common(p_sweep)
    p_sweep.add_argument("--warm-start", action="store_true",
                         help="seed each grid point with the previous point's "
                              "optimized pulse, time-rescaled")

    p_opt = sub.add_parser("optimize", help="single pulse optimization")
    common(p_opt)
    p_opt.add_argument("--t", type=float, help="measurement time (single value)")
    p_opt.add_argument("--replay", metavar="PULSEFILE",
                       help="re-evaluate a stored pulse instead of optimizing")

    p_oracle = sub.add_parser("oracle", help="closed-form reference tables")
    p_oracle.add_argument("--model", required=True, choices=tuple(ORACLE_COLUMNS))
    p_oracle.add_argument("--params", help="comma-separated parameter values "
                                           "(default: reference values)")
    p_oracle.add_argument("--noise", help="dephasing rate(s), comma separated")
    p_oracle.add_argument("--t-grid", required=True)
    p_oracle.add_argument("--out", default="-")
    p_oracle.add_argument("--reproducible", action="store_true")

    sub.add_parser("validate", help="run the fast invariant battery")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except OSError as exc:
        raise FisherctlError(f"cannot read config file: {exc}")
    except ValueError as exc:  # json.JSONDecodeError, undecodable bytes
        raise FisherctlError(f"config file is not valid JSON: {exc}")
    if not isinstance(file_cfg, dict):
        raise FisherctlError("config file must hold a JSON object")
    return file_cfg


def _run_config_from(args) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    grape_file = file_cfg.get("grape", {})
    if not isinstance(grape_file, dict):
        raise FisherctlError("config key 'grape' must hold a JSON object")

    def pick(flag, key, default=None):
        return flag if flag is not None else file_cfg.get(key, default)

    model = pick(args.model, "model")
    if model is None:
        raise FisherctlError("--model is required (flag or config file)")
    noise, rates = _parse_noise(pick(args.noise, "noise"))

    t_value = getattr(args, "t", None)
    grid_spec = [t_value] if t_value is not None else pick(args.t_grid, "t_grid")
    if grid_spec is None:
        raise FisherctlError("--t-grid is required (flag or config file)")

    bound = pick(args.amplitude_bound, "amplitude_bound", grape_file.get("amplitude_bound"))
    fixed_step = grape_file.get("fixed_step", False)
    if not isinstance(fixed_step, bool):
        raise FisherctlError(f"grape.fixed_step must be true or false, got {fixed_step!r}")
    grape = GrapeConfig(
        step_size=_number("step_size", grape_file.get("step_size", 0.01)),
        max_iters=_number("max_iters", pick(args.max_iters, "max_iters",
                                            grape_file.get("max_iters", 1000)), integer=True),
        convergence_tol=_number("convergence_tol", grape_file.get("convergence_tol", 1e-6)),
        init_scheme=pick(args.init, "init", grape_file.get("init_scheme", "random")),
        init_seed=_number("seed", pick(args.seed, "seed", grape_file.get("init_seed", 0)),
                          integer=True),
        init_amplitude=_number("init_amplitude", grape_file.get("init_amplitude", 0.1)),
        update_rule=pick(args.update, "update", grape_file.get("update_rule", "bfgs")),
        amplitude_bound=None if bound is None else _number("amplitude_bound", bound),
        fixed_step=fixed_step,
        steps_per_unit=_number("steps_per_unit",
                               pick(args.steps_per_unit, "steps_per_unit", 100), integer=True),
    )

    return RunConfig(
        model=model,
        noise=noise,
        rates=rates,
        t_grid=_parse_t_grid(grid_spec),
        objective=pick(args.objective, "objective"),
        grape=grape,
        out=pick(args.out, "out", "-"),
        format=pick(args.format, "format", "csv"),
        reproducible=bool(args.reproducible or file_cfg.get("reproducible", False)),
        warm_start=bool(getattr(args, "warm_start", False)
                        or file_cfg.get("warm_start", False)),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        if args.command == "oracle":
            model = get_model(args.model, *_parse_noise(args.noise))
            x = model.true_values if args.params is None else _parse_params(args.params, model)
            return cmd_oracle(model, x, _parse_t_grid(args.t_grid), args.out,
                              reproducible=args.reproducible)
        if args.command == "optimize" and args.replay:
            return cmd_replay(args.replay)
        config = _run_config_from(args)
        if args.command == "sweep":
            return cmd_sweep(config)
        return cmd_optimize(config)
    except (FisherctlError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
