"""Acceptance gate: every shipped claim checked at its stated tolerance.

One pass/fail line per criterion is printed as the checks run and repeated in
the terminal summary.  Two rows are expected to fail and are kept failing on
purpose: the noisy field-model closed forms assume commuting drift/dephasing
generators (an evolve-then-dephase factorization), which exact master-equation
propagation does not satisfy away from the poles; see the oracles module notes
and tests/test_oracles.py for the quantified gap.
"""

import math
import time

import numpy as np
import pytest

from fisherctl import (
    ControlGrid,
    GrapeConfig,
    cfim,
    get_model,
    measure,
    measure_derivs,
    objective_f0,
    optimize,
    propagate,
    qfim,
    tr_inv,
)
from fisherctl.cli import main as cli_main
from fisherctl.grape import GradientContext
from fisherctl.oracles import (
    oracle_magfield_bell_probs,
    oracle_magfield_cfim,
    oracle_magfield_qfim,
    oracle_xxz_cfim,
    oracle_xxz_probs,
    oracle_xxz_trinv,
    oracle_zz_probs,
)

from conftest import ACCEPTANCE_RESULTS, uncontrolled_trajectory, zero_controls

T_GRID_20 = np.linspace(0.1, 3.0, 20)
MAGFIELD_X = (1.0, np.pi / 4, np.pi / 4)
XXZ_X = (1.0, 1.2)
ZZ_X = (1.0, 1.2, 0.1)


def report(tag, ok, detail=""):
    line = f"CRITERION {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


def max_prob_gap(model, oracle_fn):
    gap = 0.0
    for t in T_GRID_20:
        traj = uncontrolled_trajectory(model, float(t), deriv_method=None)
        p = measure(traj.final_state, model.default_povm)
        gap = max(gap, float(np.abs(p - oracle_fn(float(t))).max()))
    return gap


class TestCriterion1OracleEquivalence:
    """Numerical propagation reproduces the closed-form probability displays
    at the reference parameter values, 20-point grid in [0.1, 3], < 1e-9."""

    def test_c1_zz(self):
        start = time.monotonic()
        gap = max_prob_gap(get_model("zz"),
                           lambda t: oracle_zz_probs(*ZZ_X, 0.1, 0.1, t))
        elapsed = time.monotonic() - start
        report("1 (zz probabilities)", gap < 1e-9 and elapsed < 30,
               f"max abs gap {gap:.2e}, {elapsed:.1f}s")

    def test_c1_xxz(self):
        start = time.monotonic()
        gap = max_prob_gap(get_model("xxz"),
                           lambda t: oracle_xxz_probs(*XXZ_X, 0.1, 0.1, t))
        elapsed = time.monotonic() - start
        report("1 (xxz probabilities)", gap < 1e-9 and elapsed < 30,
               f"max abs gap {gap:.2e}, {elapsed:.1f}s")

    def test_c1_magfield_noiseless(self):
        start = time.monotonic()
        gap = max_prob_gap(get_model("magfield", noise=False),
                           lambda t: oracle_magfield_bell_probs(*MAGFIELD_X, 0.0, t))
        elapsed = time.monotonic() - start
        report("1 (magfield probabilities, noiseless limit)",
               gap < 1e-9 and elapsed < 30, f"max abs gap {gap:.2e}, {elapsed:.1f}s")

    def test_c1_magfield_noisy(self):
        # known red: the closed form factorizes drift and dephasing, exact
        # propagation does not
        gap = max_prob_gap(get_model("magfield"),
                           lambda t: oracle_magfield_bell_probs(*MAGFIELD_X, 0.2, t))
        report("1 (magfield probabilities, noisy)", gap < 1e-9,
               f"max abs gap {gap:.2e}; closed form is the commuting-generator "
               f"factorization, exact dynamics differs")


class TestCriterion2InformationClosedForms:
    """Engine information matrices match the closed forms within 1e-6
    relative (where the closed forms solve the master equation)."""

    def test_c2_xxz_cfim(self):
        worst = 0.0
        model = get_model("xxz")
        for t in T_GRID_20:
            traj = uncontrolled_trajectory(model, float(t))
            f = cfim(*measure_derivs(traj, model.default_povm))
            fo = oracle_xxz_cfim(*XXZ_X, 0.1, float(t))
            worst = max(worst, float(np.abs(f.matrix - fo.matrix).max()
                                     / np.abs(fo.matrix).max()))
        report("2 (xxz noisy CFIM)", worst < 1e-6, f"max rel dev {worst:.2e}")

    def test_c2_zz_qfim(self):
        worst = 0.0
        model = get_model("zz", noise=False)
        for t in (0.5, 1.0, 2.0, 3.0):
            traj = uncontrolled_trajectory(model, t)
            f = qfim(traj.final_state, list(traj.final_derivs))
            expected = 4 * t * t * np.eye(3)
            worst = max(worst, float(np.abs(f.matrix - expected).max() / (4 * t * t)))
        report("2 (zz pure QFIM = 4T^2 I)", worst < 1e-6, f"max rel dev {worst:.2e}")

    def test_c2_xxz_qfim(self):
        worst = 0.0
        model = get_model("xxz", noise=False)
        for t in (0.5, 1.0, 2.0, 3.0):
            traj = uncontrolled_trajectory(model, t)
            f = qfim(traj.final_state, list(traj.final_derivs))
            expected = np.diag([8 * t * t, 4 * t * t])
            worst = max(worst, float(np.abs(f.matrix - expected).max() / (8 * t * t)))
        report("2 (xxz pure QFIM = diag(8T^2, 4T^2))", worst < 1e-6,
               f"max rel dev {worst:.2e}")

    def test_c2_magfield_noiseless(self):
        worst = 0.0
        model = get_model("magfield", noise=False)
        for t in (0.5, 1.0, 2.0):
            traj = uncontrolled_trajectory(model, t)
            p, dp = measure_derivs(traj, model.default_povm)
            f_cl = cfim(p, dp)
            f_q = qfim(traj.final_state, list(traj.final_derivs))
            co = oracle_magfield_cfim(*MAGFIELD_X, 0.0, t)
            qo = oracle_magfield_qfim(*MAGFIELD_X, 0.0, t)
            worst = max(worst,
                        float(np.abs(f_cl.matrix - co.matrix).max()
                              / np.abs(co.matrix).max()),
                        float(np.abs(f_q.matrix - qo.matrix).max()
                              / np.abs(qo.matrix).max()))
        report("2 (magfield CFIM/QFIM, noiseless limit)", worst < 1e-6,
               f"max rel dev {worst:.2e}")

    def test_c2_magfield_noisy_cfim(self):
        # known red, same factorization mismatch as criterion 1
        worst = 0.0
        model = get_model("magfield")
        for t in (0.5, 1.0, 2.0):
            traj = uncontrolled_trajectory(model, t)
            f = cfim(*measure_derivs(traj, model.default_povm))
            fo = oracle_magfield_cfim(*MAGFIELD_X, 0.2, t)
            worst = max(worst, float(np.abs(f.matrix - fo.matrix).max()
                                     / np.abs(fo.matrix).max()))
        report("2 (magfield noisy CFIM)", worst < 1e-6,
               f"max rel dev {worst:.2e}; closed form assumes commuting "
               f"drift/dephasing generators")

    def test_c2_magfield_noisy_qfim(self):
        # known red, same factorization mismatch as criterion 1
        worst = 0.0
        model = get_model("magfield")
        for t in (0.5, 1.0, 2.0):
            traj = uncontrolled_trajectory(model, t)
            f = qfim(traj.final_state, list(traj.final_derivs))
            fo = oracle_magfield_qfim(*MAGFIELD_X, 0.2, t)
            worst = max(worst, float(np.abs(f.matrix - fo.matrix).max()
                                     / np.abs(fo.matrix).max()))
        report("2 (magfield noisy QFIM)", worst < 1e-6,
               f"max rel dev {worst:.2e}; closed form assumes commuting "
               f"drift/dephasing generators")


class TestCriterion3GradientCorrectness:
    """Analytic control gradients match central finite differences at >= 50
    random samples per model (rel err < 1e-3 at m = 100), and the
    discretization bias shrinks as the grid doubles.  Runtime < 2 min."""

    def test_c3_fd_agreement(self):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        h = 1e-6
        worst_overall = 0.0
        for name in ("magfield", "zz", "xxz"):
            model = get_model(name)
            m = 100
            grid = ControlGrid(6, m, 1.0, rng.uniform(-0.2, 0.2, size=(6, m)))
            povm = model.default_povm
            x = model.true_values
            traj = propagate(model, x, grid, deriv_method="exact")
            ctx = GradientContext(traj, povm)

            def eval_all(g):
                tr = propagate(model, x, g, deriv_method="exact")
                p, dp = measure_derivs(tr, povm)
                return p, dp, cfim(p, dp).matrix

            samples = []
            for s in range(50):
                k = int(rng.integers(0, 6))
                j = m if s == 0 else (1 if s == 1 else int(rng.integers(1, m + 1)))
                a = int(rng.integers(0, model.num_params))
                b = int(rng.integers(0, model.num_params))
                amps = grid.amplitudes.copy()
                amps[k, j - 1] += h
                pp, dpp, fp = eval_all(grid.with_amplitudes(amps))
                amps[k, j - 1] -= 2 * h
                pm, dpm, fm = eval_all(grid.with_amplitudes(amps))
                fd_p = (pp - pm) / (2 * h)
                fd_dp = (dpp[a] - dpm[a]) / (2 * h)
                fd_f = (fp[a, b] - fm[a, b]) / (2 * h)
                samples.append((
                    np.abs(ctx.prob_gradient(k, j) - fd_p).max(), np.abs(fd_p).max(),
                    np.abs(ctx.dprob_gradient(a, k, j) - fd_dp).max(), np.abs(fd_dp).max(),
                    abs(ctx.cfim_entry_gradient(a, b, k, j) - fd_f), abs(fd_f),
                ))
            arr = np.array(samples)
            for col, scale_col in ((0, 1), (2, 3), (4, 5)):
                scale = arr[:, scale_col].max()
                rel = arr[:, col] / np.maximum(arr[:, scale_col], 0.01 * scale)
                worst_overall = max(worst_overall, float(rel.max()))

            # objective gradient at a few spots
            obj = model.default_objective
            from fisherctl.grape import gradient_objective
            from fisherctl import objective_fcle

            analytic = gradient_objective(traj, povm, obj)

            def obj_of(g):
                _, dpv, fmat = eval_all(g)
                return objective_f0(fmat) if obj == "f0" else objective_fcle(fmat)

            spots = [(0, 1), (3, m // 2), (5, m)]
            scale = np.abs(analytic).max()
            for k, j in spots:
                amps = grid.amplitudes.copy()
                amps[k, j - 1] += h
                op = obj_of(grid.with_amplitudes(amps))
                amps[k, j - 1] -= 2 * h
                om = obj_of(grid.with_amplitudes(amps))
                fd = (op - om) / (2 * h)
                rel = abs(analytic[k, j - 1] - fd) / max(abs(fd), 0.01 * scale)
                worst_overall = max(worst_overall, float(rel))
        elapsed = time.monotonic() - start
        report("3 (gradient vs finite differences)",
               worst_overall < 1e-3 and elapsed < 120,
               f"worst rel err {worst_overall:.2e} over 3x50 samples, {elapsed:.0f}s")

    def test_c3_bias_shrinks_with_grid_density(self):
        rng = np.random.default_rng(12)
        model = get_model("xxz")
        base = rng.uniform(-0.25, 0.25, size=(6, 50))
        medians = []
        for m in (50, 100):
            amps = np.repeat(base, m // 50, axis=1)
            grid = ControlGrid(6, m, 1.0, amps)
            traj = propagate(model, model.true_values, grid, deriv_method=None)
            ctx = GradientContext(traj, model.default_povm)
            rel = []
            for (k, cell) in [(0, 10), (2, 20), (4, 35), (1, 44), (5, 5)]:
                j = cell * (m // 50) + 1
                h = 1e-6
                amps2 = grid.amplitudes.copy()
                amps2[k, j - 1] += h
                pp = measure(propagate(model, model.true_values,
                                       grid.with_amplitudes(amps2),
                                       deriv_method=None).final_state,
                             model.default_povm)
                amps2[k, j - 1] -= 2 * h
                pm = measure(propagate(model, model.true_values,
                                       grid.with_amplitudes(amps2),
                                       deriv_method=None).final_state,
                             model.default_povm)
                fd = (pp - pm) / (2 * h)
                rel.append(np.abs(ctx.prob_gradient(k, j) - fd).max()
                           / np.abs(fd).max())
            medians.append(float(np.median(rel)))
        ratio = medians[0] / medians[1]
        report("3 (bias shrinks as m doubles)", ratio >= 1.9,
               f"median rel err {medians[0]:.2e} -> {medians[1]:.2e} "
               f"(ratio {ratio:.2f})")


class TestCriterion4FieldOptimum:
    """Pulse optimization reaches the controlled optimum 3/(4T^2) for the
    three field components within 5%, T in {0.5, 1, 2}, < 5 min per T."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_c4(self, t):
        model = get_model("magfield-xyz", noise=False)
        cfg = GrapeConfig(update_rule="bfgs", max_iters=800, init_scheme="random",
                          init_seed=5, init_amplitude=0.1, convergence_tol=1e-9,
                          steps_per_unit=100)
        start = time.monotonic()
        res = optimize(model, model.true_values, None, None, t, cfg, objective="f0")
        elapsed = time.monotonic() - start
        target = 3.0 / (4 * t * t)
        dev = abs(res.final_tr_inv - target) / target
        report(f"4 (field components, T={t})", dev < 0.05 and elapsed < 300,
               f"tr_inv {res.final_tr_inv:.6f} vs {target:.6f} "
               f"({100 * dev:.2f}%), {res.iterations_used} iters, {elapsed:.0f}s")


class TestC4PulseReference:
    """The optimized C4 pulse at T = 2 against a 40-digit ket propagation of
    the same pulse: every probability, hence every ``dp^2 / p`` term of the
    classical matrix, and the bounds that rounding once broke there (a
    diagonal above 4T^2, C7)."""

    def test_c4_pulse_against_40_digit_kets(self):
        import mpmath

        t = 2.0
        model = get_model("magfield-xyz", noise=False)
        cfg = GrapeConfig(update_rule="bfgs", max_iters=800, init_scheme="random",
                          init_seed=5, init_amplitude=0.1, convergence_tol=1e-9,
                          steps_per_unit=100)
        grid = optimize(model, model.true_values, None, None, t, cfg,
                        objective="f0").final_controls
        traj = propagate(model, model.true_values, grid, deriv_method="exact")
        p, dp = measure_derivs(traj, model.default_povm)

        mp = mpmath.mp
        with mpmath.workdps(40):
            # every operator entry and every float input is exact in binary
            gens = [mp.matrix(g.tolist()) for g in model.dh0(model.true_values)]
            ctrls = [mp.matrix(h.tolist()) for h in model.control_stack]
            h0 = sum((mp.mpf(xa) * g for xa, g in zip(model.true_values, gens)),
                     mp.zeros(4, 4))
            r2 = 1 / mp.sqrt(2)
            ket = mp.matrix([r2, 0, 0, r2])
            for amps in grid.amplitudes.T:
                h = h0 + sum((mp.mpf(v) * c for v, c in zip(amps, ctrls)), mp.zeros(4, 4))
                ket = mp.expm(-1j * mp.mpf(grid.dt) * h) * ket
            bell = [(0, 3, 1), (0, 3, -1), (1, 2, 1), (1, 2, -1)]  # Phi+-, Psi+-
            ref = np.array([float(abs(r2 * (ket[i] + sign * ket[j])) ** 2)
                            for i, j, sign in bell])

        assert np.all(np.abs(p - ref) <= 1e-9 * ref)
        f_cl = cfim(p, dp)
        assert np.all(np.diag(f_cl.matrix) <= 4 * t * t * (1 + 1e-9))
        f_q = qfim(traj.final_state, list(traj.final_derivs))
        assert np.linalg.eigvalsh(f_q.matrix - f_cl.matrix).min() >= -1e-7


class TestCriterion5ExchangeOptimum:
    """Pulse optimization under the local measurement reaches the
    probe-optimal 3/(8T^2) within 10%, beating the uncontrolled 1/(2T^2)."""

    def test_c5(self):
        t = 1.0
        model = get_model("xxz", noise=False)
        cfg = GrapeConfig(update_rule="bfgs", max_iters=800, init_scheme="random",
                          init_seed=11, init_amplitude=0.1, convergence_tol=1e-9,
                          steps_per_unit=100)
        res = optimize(model, model.true_values, None, None, t, cfg,
                       objective="fcle")
        target = 3.0 / (8 * t * t)
        uncontrolled = 1.0 / (2 * t * t)
        dev = abs(res.final_tr_inv - target) / target
        report("5 (exchange model optimum)",
               dev < 0.10 and res.final_tr_inv < uncontrolled,
               f"tr_inv {res.final_tr_inv:.6f} vs {target:.6f} ({100 * dev:.2f}%), "
               f"uncontrolled {uncontrolled:.4f}")


class TestCriterion6DivergenceAndStability:
    """Uncontrolled noisy exchange precision diverges exactly on the lattice
    2T(x1+x2) = pi/2 + n pi; controls tame those points and suppress the
    peaks; zero-init controls never lose to the uncontrolled scheme."""

    DIV_TIMES = [(math.pi / 2 + n * math.pi) / 4.4 for n in range(4)]

    def test_c6_divergence_sentinel(self):
        model = get_model("xxz")
        ok = True
        details = []
        for t in self.DIV_TIMES:
            traj = uncontrolled_trajectory(model, t)
            engine = tr_inv(cfim(*measure_derivs(traj, model.default_povm)))
            oracle = oracle_xxz_trinv(*XXZ_X, 0.1, t)
            details.append(f"T={t:.3f}: engine {engine}, oracle {oracle}")
            ok = ok and math.isinf(engine) and math.isinf(oracle)
        report("6 (divergence sentinel)", ok, "; ".join(details))

    @pytest.mark.parametrize("t_div", DIV_TIMES[:2])
    def test_c6_controlled_finite_at_divergence(self, t_div):
        model = get_model("xxz")
        cfg = GrapeConfig(update_rule="bfgs", max_iters=200, init_scheme="random",
                          init_seed=1, init_amplitude=0.1, convergence_tol=1e-8,
                          steps_per_unit=100)
        res = optimize(model, model.true_values, None, None, t_div, cfg)
        neighbors = [oracle_xxz_trinv(*XXZ_X, 0.1, t_div + d) for d in (-0.06, 0.06)]
        ok = math.isfinite(res.final_tr_inv) and res.final_tr_inv < min(neighbors)
        report(f"6 (controlled finite at T={t_div:.3f})", ok,
               f"controlled {res.final_tr_inv:.4f} vs neighbor uncontrolled "
               f"{min(neighbors):.4f}")

    def test_c6_zero_init_improvement_and_peak_suppression(self):
        model = get_model("xxz")
        grid_t = [0.9, 1.0, 1.06, 1.12, 1.3, 1.5]  # straddles the 1.071 peak
        unc, ctl = [], []
        ok_pointwise = True
        for t in grid_t:
            traj = uncontrolled_trajectory(model, t)
            u = tr_inv(cfim(*measure_derivs(traj, model.default_povm)))
            cfg = GrapeConfig(update_rule="bfgs", max_iters=120,
                              init_scheme="zeros", convergence_tol=1e-8,
                              steps_per_unit=60)
            res = optimize(model, model.true_values, None, None, t, cfg)
            unc.append(u)
            ctl.append(res.final_tr_inv)
            ok_pointwise = ok_pointwise and res.final_tr_inv <= u + 1e-9
        ratio_unc = max(unc) / min(unc)
        ratio_ctl = max(ctl) / min(ctl)
        report("6 (zero-init improvement + peak suppression)",
               ok_pointwise and ratio_ctl < ratio_unc,
               f"controlled <= uncontrolled at all {len(grid_t)} points; "
               f"max/min ratio {ratio_unc:.1f} -> {ratio_ctl:.1f}")


class TestCriterion7MatrixInequalities:
    """Quantum bound dominates the classical matrix (min eig >= -1e-7) and
    the harmonic relaxation lower-bounds the total variance, across the
    catalog, noise settings and the 20-point grid."""

    def test_c7(self):
        worst_gap = 0.0
        ok = True
        for name in ("magfield", "magfield-xyz", "zz", "xxz"):
            for noise in (False, True):
                model = get_model(name, noise=noise)
                for t in T_GRID_20:
                    traj = uncontrolled_trajectory(model, float(t))
                    p, dp = measure_derivs(traj, model.default_povm)
                    f_cl = cfim(p, dp)
                    f_q = qfim(traj.final_state, list(traj.final_derivs))
                    gap = float(np.linalg.eigvalsh(f_q.matrix - f_cl.matrix).min())
                    worst_gap = min(worst_gap, gap)
                    ok = ok and gap >= -1e-7
                    ti = tr_inv(f_cl)
                    f0 = objective_f0(f_cl)
                    if math.isfinite(ti) and f0 > 0:
                        ok = ok and ti >= 1.0 / f0 - 1e-9
        report("7 (matrix inequalities)", ok,
               f"min eig of (quantum - classical) >= {worst_gap:.2e}")


class TestCriterion8Determinism:
    """Identical configuration and seed give identical sweep output files."""

    def test_c8(self, tmp_path):
        args = ["sweep", "--model", "xxz", "--t-grid", "0.5,1.0",
                "--max-iters", "25", "--steps-per-unit", "30",
                "--seed", "7", "--reproducible"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        identical = out1.read_bytes() == out2.read_bytes()
        report("8 (sweep determinism)", identical,
               "byte-identical output under --reproducible")
