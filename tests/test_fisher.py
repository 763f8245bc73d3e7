import math

import numpy as np
import pytest

from fisherctl import (
    MODEL_NAMES,
    ControlGrid,
    DimensionMismatch,
    FisherMatrix,
    GradientContext,
    InvariantViolation,
    SingularContribution,
    cfim,
    get_model,
    measure,
    measure_derivs,
    objective_f0,
    objective_fcle,
    propagate,
    qfim,
    tr_inv,
)

from fisherctl.fisher import EPS_P, OBJECTIVES, usable_outcomes

from conftest import uncontrolled_trajectory, zero_controls

# frozen closed-form values for the exchange model at (x1, x2, gamma, T) =
# (1.0, 1.2, 0.1, 1.0): delta_+/- and the derived scalar figures
DELTA_PLUS = 0.29903949227363447
DELTA_MINUS = 0.793034360351837
XXZ_TRINV_T1 = 1.1512548327056389
XXZ_FCLE_T1 = 0.8686174177873675


def engine_cfim(model, t, steps_per_unit=100):
    traj = uncontrolled_trajectory(model, t, steps_per_unit)
    p, dp = measure_derivs(traj, model.default_povm)
    return cfim(p, dp)


def pure_state_qfim(psi, dpsi_list):
    # independent reference: 4 Re(<d_a psi|d_b psi> - <d_a psi|psi><psi|d_b psi>)
    n = len(dpsi_list)
    f = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            term = np.vdot(dpsi_list[a], dpsi_list[b])
            term -= np.vdot(dpsi_list[a], psi) * np.vdot(psi, dpsi_list[b])
            f[a, b] = 4 * term.real
    return f


def loop_qfim(rho, drho):
    """SLDs and matrix entries one parameter and one pair at a time: the
    reference for the stacked ``qfim``."""
    lam, v = np.linalg.eigh(rho)
    pair_sums = lam[:, None] + lam[None, :]
    support = pair_sums > 1e-10 * np.trace(rho).real
    slds = [np.where(support, 2.0 * (v.conj().T @ dr @ v) / np.where(support, pair_sums, 1.0),
                     0.0) for dr in drho]
    f = np.zeros((len(slds), len(slds)))
    for a in range(len(slds)):
        for b in range(a, len(slds)):
            anti = slds[a] @ slds[b] + slds[b] @ slds[a]
            f[a, b] = f[b, a] = 0.5 * np.sum(lam * anti.diagonal()).real
    return f


class TestFisherMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvariantViolation):
            FisherMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvariantViolation):
            FisherMatrix(np.array([[1.0, 0.0], [0.0, -0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN passes both the symmetry and the PSD comparison, so it needs
        # its own test; tr_inv and the objectives would return nan from it
        with pytest.raises(InvariantViolation, match="non-finite"):
            FisherMatrix(np.full((2, 2), bad))
        with pytest.raises(InvariantViolation, match="non-finite"):
            FisherMatrix(np.array([[1.0, 0.0], [0.0, bad]]))


class TestCfim:
    def test_zero_derivatives(self):
        f = cfim(np.array([0.5, 0.5]), np.zeros((2, 2)))
        assert np.abs(f.matrix).max() == 0.0

    def test_xxz_noiseless_is_isotropic(self):
        # F = 4 T^2 I for the optimal probe under the local measurement
        model = get_model("xxz", noise=False)
        for t in (0.5, 1.0, 2.0):
            f = engine_cfim(model, t)
            assert np.abs(f.matrix - 4 * t * t * np.eye(2)).max() < 1e-8 * t * t

    def test_xxz_noisy_closed_form_t1(self):
        f = engine_cfim(get_model("xxz"), 1.0)
        expected = 2.0 * np.array([
            [DELTA_PLUS + DELTA_MINUS, DELTA_PLUS - DELTA_MINUS],
            [DELTA_PLUS - DELTA_MINUS, DELTA_PLUS + DELTA_MINUS],
        ])
        assert np.abs(f.matrix - expected).max() / np.abs(expected).max() < 1e-9

    def test_singular_contribution_flagged(self):
        p = np.array([1.0, 0.0])
        dp = np.array([[1e-3, -1e-3]])
        with pytest.raises(SingularContribution):
            cfim(p, dp)

    @pytest.mark.parametrize("dp", [[[np.nan, 0.0]], [[np.inf, -np.inf]], [[0.0, np.nan]]])
    def test_rejects_non_finite_derivatives(self, dp):
        with pytest.raises(InvariantViolation, match="not finite"):
            cfim(np.array([0.5, 0.5]), np.array(dp))

    def test_rejects_non_finite_probabilities(self):
        with pytest.raises(InvariantViolation, match="not finite"):
            cfim(np.array([np.nan, 0.5]), np.zeros((1, 2)))

    def test_matches_brute_force_finite_differences(self, catalog_model):
        # independent oracle: CFIM assembled from centered differences of the
        # measured probabilities over the model parameters
        model = catalog_model
        t = 1.0
        grid = zero_controls(t, 100)
        f = engine_cfim(model, t)
        h = 1e-6
        n = model.num_params
        dp = np.zeros((n, len(model.default_povm)))
        for a in range(n):
            xp, xm = model.true_values.copy(), model.true_values.copy()
            xp[a] += h
            xm[a] -= h
            pp = measure(propagate(model, xp, grid, deriv_method=None).final_state,
                         model.default_povm)
            pm = measure(propagate(model, xm, grid, deriv_method=None).final_state,
                         model.default_povm)
            dp[a] = (pp - pm) / (2 * h)
        p = measure(propagate(model, model.true_values, grid,
                              deriv_method=None).final_state, model.default_povm)
        brute = cfim(p, dp)
        rel = np.abs(f.matrix - brute.matrix).max() / np.abs(brute.matrix).max()
        assert rel < 1e-4

    def test_reparameterization_scaling(self):
        # x1 -> c x1 scales row/column 1 of the information matrix by 1/c
        from fisherctl.models import ParametricModel

        base = get_model("xxz", noise=False)
        c = 2.0

        scaled = ParametricModel(
            name="xxz-scaled", dim=4, param_names=("x1s", "x2"),
            h0=lambda x: base.h0(np.array([x[0] / c, x[1]])),
            dh0=lambda x: [base.dh0(x)[0] / c, base.dh0(x)[1]],
            control_hams=base.control_hams, noise=base.noise,
            default_probe=base.default_probe, default_povm=base.default_povm,
            true_values=np.array([base.true_values[0] * c, base.true_values[1]]),
        )
        f_base = engine_cfim(base, 0.8)
        f_scaled = engine_cfim(scaled, 0.8)
        assert abs(f_scaled.matrix[0, 0] - f_base.matrix[0, 0] / c**2) < 1e-8
        assert abs(f_scaled.matrix[0, 1] - f_base.matrix[0, 1] / c) < 1e-8
        assert abs(f_scaled.matrix[1, 1] - f_base.matrix[1, 1]) < 1e-8


class TestQfim:
    def test_zz_pure_optimal_probe(self):
        # |++> yields 4 T^2 times the identity
        model = get_model("zz", noise=False)
        for t in (0.5, 1.0, 2.0):
            traj = uncontrolled_trajectory(model, t)
            f = qfim(traj.final_state, list(traj.final_derivs))
            assert np.abs(f.matrix - 4 * t * t * np.eye(3)).max() < 1e-8 * max(1, t * t)

    def test_xxz_pure_optimal_probe(self):
        model = get_model("xxz", noise=False)
        t = 1.0
        traj = uncontrolled_trajectory(model, t)
        f = qfim(traj.final_state, list(traj.final_derivs))
        assert np.abs(f.matrix - np.diag([8.0, 4.0])).max() < 1e-8

    def test_matches_pure_state_formula(self):
        # evolved kets and their parameter derivatives, differentiated
        # directly at the state-vector level
        import scipy.linalg

        model = get_model("magfield", noise=False)
        t = 1.3
        h = 1e-6
        ket0 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)

        def evolved(x):
            return scipy.linalg.expm(-1j * model.h0(x) * t) @ ket0

        psi = evolved(model.true_values)
        dpsi = []
        for a in range(3):
            xp, xm = model.true_values.copy(), model.true_values.copy()
            xp[a] += h
            xm[a] -= h
            dpsi.append((evolved(xp) - evolved(xm)) / (2 * h))
        expected = pure_state_qfim(psi, dpsi)

        traj = uncontrolled_trajectory(model, t)
        f = qfim(traj.final_state, list(traj.final_derivs))
        assert np.abs(f.matrix - expected).max() < 1e-6  # fd-limited

    def test_rejects_non_hermitian_derivative(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(InvariantViolation):
            qfim(rho, [np.array([[0.0, 1.0], [0.0, 0.0]])])

    @pytest.mark.parametrize("drho", [
        [np.diag([1.0, -1.0])],  # 2x2 derivative of a 4x4 state
        np.diag([1.0, -1.0, 0.0, 0.0]),  # one matrix, not a stack
        np.zeros((1, 4, 3)),
    ])
    def test_rejects_misshapen_derivatives(self, drho):
        with pytest.raises(DimensionMismatch):
            qfim(np.eye(4) / 4, drho)

    def test_rejects_non_finite_derivative(self):
        drho = np.zeros((2, 2, 2), dtype=complex)
        drho[1, 0, 0] = np.nan
        with pytest.raises(InvariantViolation, match="non-finite"):
            qfim(np.eye(2) / 2, drho)

    @pytest.mark.parametrize("noise", [False, True])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_loop_reference(self, name, noise):
        model = get_model(name, noise=noise)
        rng = np.random.default_rng(7)
        t, m = 0.9, 90
        amps = rng.uniform(-1.0, 1.0, size=(len(model.control_hams), m))
        grid = ControlGrid(len(model.control_hams), m, t, amps)
        traj = propagate(model, model.true_values, grid)
        want = loop_qfim(traj.final_state, traj.final_derivs)
        got = qfim(traj.final_state, traj.final_derivs).matrix
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestTrInv:
    def test_isotropic_two_parameter(self):
        assert tr_inv(FisherMatrix(4.0 * np.eye(2))) == pytest.approx(0.5)

    def test_optimal_field_components_value(self):
        # three parameters, each at information 4 T^2, at T = 1
        assert tr_inv(FisherMatrix(4.0 * np.eye(3))) == pytest.approx(0.75)

    def test_xxz_noisy_value(self):
        f = engine_cfim(get_model("xxz"), 1.0)
        assert tr_inv(f) == pytest.approx(XXZ_TRINV_T1, rel=1e-9)

    def test_singular_gives_infinity(self):
        f = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert tr_inv(f) == math.inf
        assert tr_inv(np.zeros((2, 2))) == math.inf


class TestObjectives:
    def test_f0_equal_diagonals(self):
        assert objective_f0(4.0 * np.eye(3)) == pytest.approx(4.0 / 3.0)

    def test_f0_mixed_diagonals(self):
        assert objective_f0(np.diag([8.0, 4.0])) == pytest.approx(8.0 / 3.0)

    def test_f0_zero_diagonal(self):
        assert objective_f0(np.diag([4.0, 0.0])) == 0.0

    def test_fcle_isotropic(self):
        t = 1.7
        assert objective_fcle(4 * t * t * np.eye(2)) == pytest.approx(2 * t * t)

    def test_fcle_singular(self):
        assert objective_fcle(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0
        assert objective_fcle(np.zeros((2, 2))) == 0.0

    def test_fcle_needs_two_parameters(self):
        with pytest.raises(DimensionMismatch):
            objective_fcle(np.eye(3))

    def test_fcle_xxz_noisy_value(self):
        f = engine_cfim(get_model("xxz"), 1.0)
        assert objective_fcle(f) == pytest.approx(XXZ_FCLE_T1, rel=1e-9)
        # for two parameters det/trace is exactly 1 / tr_inv
        assert objective_fcle(f) == pytest.approx(1.0 / tr_inv(f), rel=1e-12)


class TestObjectiveTable:
    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_derivative_matches_central_differences(self, name):
        # dphi/dF[a, b] is the rate along the symmetric direction (e_a e_b^T +
        # e_b e_a^T) / 2, at random positive-definite 2 x 2 matrices
        value, derivative = OBJECTIVES[name]
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(6):
            a = rng.normal(size=(2, 3))
            fmat = a @ a.T
            g = derivative(FisherMatrix(fmat))
            assert np.array_equal(g, g.T)
            assert np.array_equal(g, derivative(fmat))
            for i, j in [(0, 0), (1, 1), (0, 1)]:
                step = np.zeros((2, 2))
                step[i, j] += 0.5 * h
                step[j, i] += 0.5 * h
                fd = (value(fmat + step) - value(fmat - step)) / (2 * h)
                assert abs(g[i, j] - fd) <= 1e-7 * max(1.0, np.abs(g).max()), (i, j)


class TestUsableOutcomes:
    def test_mask(self):
        # at or below EPS_P an outcome is excluded; a derivative up to
        # sqrt(EPS_P) on it is rounding
        p = np.array([0.6, 0.4, 0.0, EPS_P, 2 * EPS_P])
        dp = np.array([[0.1, -0.1, 1e-7, -1e-6, 0.3]])
        assert usable_outcomes(p, dp).tolist() == [True, True, False, False, True]

    def test_vanishing_outcome_with_derivative_raises(self):
        p = np.array([0.5, 0.0, 0.5, 0.0])
        dp = np.array([[0.0, 0.0, 0.0, 0.0], [0.1, 1e-7, -0.1, -3e-3]])
        with pytest.raises(SingularContribution, match="outcome 3 has probability 0.000e"
                                                         "[+]00 but derivative 3.000e-03"):
            usable_outcomes(p, dp)

    def test_gradient_weights_share_the_rule(self):
        # the control gradients exclude the same outcomes, and refuse the same
        # vanishing ones, as the information matrix they differentiate
        model = get_model("xxz")
        ctx = GradientContext(uncontrolled_trajectory(model, 0.6, 30), model.default_povm)
        ctx.p = ctx.p.copy()
        ctx.p[0], ctx.p[1] = ctx.p[0] + ctx.p[1], 0.0  # outcome 1 vanishes
        with pytest.raises(SingularContribution, match="outcome 1"):
            cfim(ctx.p, ctx.dp)
        with pytest.raises(SingularContribution, match="outcome 1"):
            ctx.cfim_gradient_grid()


class TestInformationInequalities:
    @pytest.mark.parametrize("noise", [False, True])
    def test_quantum_bound_dominates_classical(self, catalog_model, noise):
        model = get_model(catalog_model.name, noise=noise)
        for t in np.linspace(0.2, 2.6, 7):
            traj = uncontrolled_trajectory(model, float(t))
            p, dp = measure_derivs(traj, model.default_povm)
            f_cl = cfim(p, dp)
            f_q = qfim(traj.final_state, list(traj.final_derivs))
            gap = np.linalg.eigvalsh(f_q.matrix - f_cl.matrix)
            assert gap.min() >= -1e-7

    def test_per_parameter_bound(self, catalog_model):
        for t in (0.6, 1.4):
            f = engine_cfim(catalog_model, t)
            ti = tr_inv(f)
            if math.isinf(ti):
                continue
            inv = np.linalg.inv(f.matrix)
            for a in range(f.dim):
                assert inv[a, a] >= 1.0 / f.matrix[a, a] - 1e-9
            f0 = objective_f0(f)
            assert ti >= 1.0 / f0 - 1e-9
