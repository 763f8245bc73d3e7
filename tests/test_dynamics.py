import numpy as np
import pytest
import scipy.linalg

import fisherctl.dynamics as dyn
from fisherctl import (
    MODEL_NAMES,
    ControlGrid,
    InvariantViolation,
    NoiseSpec,
    build_liouvillian,
    commutator_superop,
    get_model,
    measure,
    measure_derivs,
    propagate,
    step_liouvillians,
)
from fisherctl.dynamics import expm_stack
from fisherctl.models import bell_povm, pm_povm
from fisherctl.operators import (
    I2,
    SX,
    SZ,
    basis_coords,
    basis_operators,
    basis_superop,
    kron,
    vec,
)

from conftest import random_density, random_hermitian, uncontrolled_trajectory, zero_controls


def magfield_evolved_ket(b, theta, phi, t):
    # closed-form evolved probe of the field model, noiseless
    c, s = np.cos(b * t), np.sin(b * t)
    return np.array([
        c - 1j * s * np.cos(theta),
        -1j * s * np.sin(theta) * np.exp(-1j * phi),
        -1j * s * np.sin(theta) * np.exp(1j * phi),
        c + 1j * s * np.cos(theta),
    ]) / np.sqrt(2)


class TestNoiseSpec:
    def test_rejects_negative_rate(self):
        with pytest.raises(InvariantViolation):
            NoiseSpec.dephasing([(SZ, -0.1)])

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_rejects_non_finite_rate(self, rate):
        # a NaN rate would otherwise read as "no noise" (nan > 0 is False)
        with pytest.raises(InvariantViolation, match="non-finite"):
            NoiseSpec.dephasing([(SZ, rate)])

    def test_rejects_non_involutory_basis(self):
        with pytest.raises(InvariantViolation):
            NoiseSpec.dephasing([(np.diag([1.0, 0.0]).astype(complex), 0.1)])

    def test_truthiness(self):
        assert not NoiseSpec.none()
        assert NoiseSpec.dephasing([(SZ, 0.2)])


class TestControlGrid:
    def test_shape_checked(self):
        with pytest.raises(Exception):
            ControlGrid(2, 3, 1.0, np.zeros((3, 2)))

    def test_bound_enforced(self):
        with pytest.raises(InvariantViolation):
            ControlGrid(1, 2, 1.0, np.array([[0.5, 2.0]]), amplitude_bound=1.0)

    @pytest.mark.parametrize("bound", [-1.0, 0.0, np.nan, np.inf])
    def test_bound_itself_checked(self, bound):
        with pytest.raises(InvariantViolation, match="amplitude_bound must be positive"):
            ControlGrid(1, 2, 1.0, np.zeros((1, 2)), amplitude_bound=bound)

    def test_dt(self):
        grid = ControlGrid.zeros(2, 50, 2.5)
        assert grid.dt == pytest.approx(0.05)


class TestBuildLiouvillian:
    def test_zero_hamiltonian_no_noise(self):
        lind = build_liouvillian(np.zeros((2, 2)), NoiseSpec.none())
        assert np.abs(lind).max() == 0.0

    def test_dephasing_action_on_sigma1(self):
        gamma = 0.37
        lind = build_liouvillian(np.zeros((2, 2)), NoiseSpec.dephasing([(SZ, gamma)]))
        # (gamma/2)(Z X Z - X) = -gamma X by direct 2x2 arithmetic
        assert np.allclose((lind @ vec(SX)).reshape(2, 2), -gamma * SX, atol=1e-14)

    def test_zz_coherence_decay_rates(self):
        # uncontrolled evolution must damp and rotate the (0,1) coherence as
        # exp(-i 2(g+w2) t - g2 t)
        w1, w2, g, g1, g2 = 1.0, 1.2, 0.1, 0.13, 0.07
        model = get_model("zz", rates=(g1, g2))
        x = np.array([w1, w2, g])
        t = 0.8
        grid = zero_controls(t, 100)
        traj = propagate(model, x, grid, deriv_method=None)
        probe = model.default_probe
        expected = probe[0, 1] * np.exp(-1j * 2 * (g + w2) * t - g2 * t)
        assert abs(traj.final_state[0, 1] - expected) < 1e-12


class TestStepLiouvillians:
    def test_zero_controls_time_independent(self):
        model = get_model("zz")
        grid = zero_controls(0.5, 20)
        steps = step_liouvillians(model, model.true_values, grid)
        assert len(steps) == grid.num_steps
        for s in steps[1:]:
            assert np.array_equal(s, steps[0])

    def test_linearity_in_amplitudes(self):
        from fisherctl import commutator_superop

        model = get_model("zz")
        amps = np.zeros((6, 2))
        amps[2, 0], amps[2, 1] = 0.4, -0.1
        grid = ControlGrid(6, 2, 1.0, amps)
        l1, l2 = step_liouvillians(model, model.true_values, grid)
        diff = l1 - l2
        expected = basis_superop((0.4 - (-0.1)) * (-1j)
                                 * commutator_superop(model.control_hams[2]))
        assert np.abs(diff - expected).max() < 1e-12

    def test_matches_per_step_assembly(self, rng, catalog_model):
        model = catalog_model
        p = len(model.control_hams)
        grid = ControlGrid(p, 7, 0.7, rng.uniform(-1.0, 1.0, size=(p, 7)))
        steps = step_liouvillians(model, model.true_values, grid)
        for j, gen in enumerate(steps):
            h = model.h0(model.true_values) + sum(
                grid.amplitudes[k, j] * hk for k, hk in enumerate(model.control_hams))
            ref = basis_superop(build_liouvillian(h, model.noise))
            assert np.abs(gen - ref).max() < 1e-13

    def test_field_count_mismatch(self):
        from fisherctl import DimensionMismatch

        model = get_model("zz")
        with pytest.raises(DimensionMismatch):
            step_liouvillians(model, model.true_values, ControlGrid.zeros(3, 4, 1.0))

    def test_reversal_controls_freeze_the_state(self):
        # constant fields that cancel the free Hamiltonian give rho(T) = rho(0)
        model = get_model("magfield", noise=False)
        b, theta, phi = model.true_values
        bvec = b * np.array([
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ])
        amps = np.zeros((6, 40))
        amps[0], amps[1], amps[2] = -bvec[0], -bvec[1], -bvec[2]
        grid = ControlGrid(6, 40, 1.3, amps)
        traj = propagate(model, model.true_values, grid, deriv_method=None)
        assert np.abs(traj.final_state - model.default_probe).max() < 1e-12


class TestPropagate:
    def test_trivial_dynamics_is_constant(self):
        model = get_model("zz", rates=(0.0, 0.0))
        x = np.zeros(3)
        traj = propagate(model, x, zero_controls(1.0, 10), deriv_method=None)
        for state in traj.states:
            assert np.abs(state - model.default_probe).max() < 1e-12

    def test_noiseless_field_state_matches_closed_form(self):
        model = get_model("magfield", noise=False)
        b, theta, phi = model.true_values
        for t in (0.5, 1.0, 2.0):
            traj = uncontrolled_trajectory(model, t, deriv_method=None)
            ket = magfield_evolved_ket(b, theta, phi, t)
            assert np.abs(traj.final_state - np.outer(ket, ket.conj())).max() < 1e-12

    def test_dephasing_only_damps_offdiagonal_block(self):
        # no Hamiltonian: the qubit-1 coherence block decays as exp(-gamma t)
        model = get_model("magfield", rates=(0.25,))
        x = np.array([0.0, 0.0, 0.0])  # zero field
        t = 1.1
        traj = propagate(model, x, zero_controls(t, 50), deriv_method=None)
        probe = model.default_probe
        expected = probe.copy()
        expected[0:2, 2:4] *= np.exp(-0.25 * t)
        expected[2:4, 0:2] *= np.exp(-0.25 * t)
        assert np.abs(traj.final_state - expected).max() < 1e-12

    def test_states_keep_unit_trace(self, catalog_model):
        traj = uncontrolled_trajectory(catalog_model, 1.7, 50, deriv_method=None)
        for state in traj.states:
            assert abs(np.trace(state).real - 1.0) < 1e-9

    def test_final_state_is_composed_propagation(self, catalog_model):
        traj = uncontrolled_trajectory(catalog_model, 0.9, 30, deriv_method=None)
        v = basis_coords(traj.states[0])
        for seg in traj.segment_propagators:
            v = seg @ v
        assert np.abs(basis_operators(v) - traj.final_state).max() < 1e-10

    def test_derivatives_traceless(self, catalog_model):
        traj = uncontrolled_trajectory(catalog_model, 1.2, 60)
        for a in range(catalog_model.num_params):
            for j in range(traj.num_steps + 1):
                assert abs(np.trace(traj.param_derivs[a, j])) < 1e-9

    def test_noiseless_purity_preserved(self):
        for name in ("magfield", "zz", "xxz"):
            model = get_model(name, noise=False)
            traj = uncontrolled_trajectory(model, 2.0, 50, deriv_method=None)
            purity = np.trace(traj.final_state @ traj.final_state).real
            assert abs(purity - 1.0) < 1e-9

    def test_zero_rate_matches_noiseless(self):
        for name in ("magfield", "zz", "xxz"):
            noisy_off = get_model(name, noise=False)
            rates = (0.0,) if name == "magfield" else (0.0, 0.0)
            zeroed = get_model(name, rates=rates)
            t1 = uncontrolled_trajectory(noisy_off, 1.5, 40, deriv_method=None)
            t2 = uncontrolled_trajectory(zeroed, 1.5, 40, deriv_method=None)
            assert np.abs(t1.final_state - t2.final_state).max() < 1e-10

    def test_noisy_propagation_runs_on_real_stacks(self, monkeypatch, rng):
        kernel = dyn.expm_stack
        seen = []
        monkeypatch.setattr(dyn, "expm_stack", lambda a: seen.append(a.dtype) or kernel(a))
        model = get_model("magfield")
        p = len(model.control_hams)
        grid = ControlGrid(p, 20, 0.4, rng.uniform(-0.3, 0.3, size=(p, 20)))
        traj = propagate(model, model.true_values, grid)
        assert seen == [np.float64]
        for a in (traj.coords, traj.segment_propagators, traj.deriv_coords):
            assert a.dtype == np.float64
        assert traj.states.dtype == traj.param_derivs.dtype == np.complex128

    def test_trace_drift_aborts(self, monkeypatch):
        # every valid dephasing generator is trace-preserving, so fault-inject
        # a broken exponential to exercise the guard
        from fisherctl import PropagationError
        import fisherctl.dynamics as dyn

        monkeypatch.setattr(dyn, "expm_stack", lambda a: 1.01 * np.broadcast_to(
            np.eye(a.shape[-1], dtype=a.dtype), a.shape))
        model = get_model("zz")
        with pytest.raises(PropagationError, match="trace drifted"):
            propagate(model, model.true_values, zero_controls(0.5, 10),
                      deriv_method=None)


def _scaled_stack(rng, count, dim, norm):
    a = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestExpmStack:
    # 1-norms from the lowest Pade degree without squaring up to several
    # squarings of the degree-13 approximant
    @pytest.mark.parametrize("norm", [1e-3, 0.1, 0.5, 1.5, 4.0, 20.0, 200.0])
    @pytest.mark.parametrize("dim", [16, 32])
    def test_matches_scipy(self, rng, norm, dim):
        a = _scaled_stack(rng, 5, dim, norm)
        got = expm_stack(a)
        for g, x in zip(got, a):
            assert _rel(g, scipy.linalg.expm(x)) <= 1e-13

    def test_zero_is_identity(self):
        z = np.zeros((3, 16, 16), dtype=complex)
        assert np.array_equal(expm_stack(z), np.broadcast_to(np.eye(16), z.shape))

    def test_diagonal(self, rng):
        diag = 3.0 * (rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16)))
        got = expm_stack(np.stack([np.diag(v) for v in diag]))
        for g, v in zip(got, diag):
            assert _rel(g, np.diag(np.exp(v))) <= 1e-13

    def test_stack_length_not_a_multiple_of_the_chunk(self, rng):
        count = 2 * dyn.EXPM_CHUNK + 3
        norms = np.geomspace(1e-3, 10.0, count)
        a = np.concatenate([_scaled_stack(rng, 1, 16, n) for n in norms])
        got = expm_stack(a)
        assert got.shape == a.shape
        for g, x in zip(got, a):
            assert _rel(g, scipy.linalg.expm(x)) <= 1e-13

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("noise", [True, False])
    def test_uniform_shortcut_matches_full_stack(self, monkeypatch, name, noise):
        model = get_model(name, noise=noise)
        p = len(model.control_hams)
        grid = ControlGrid(p, 37, 0.8, np.full((p, 37), 0.3))
        short = propagate(model, model.true_values, grid)
        monkeypatch.setattr(dyn, "_distinct_steps", lambda controls: controls)
        full = propagate(model, model.true_values, grid)
        assert _rel(short.final_state, full.final_state) <= 1e-13
        assert _rel(short.param_derivs, full.param_derivs) <= 1e-13
        assert _rel(short.segment_propagators, full.segment_propagators) <= 1e-13

    @pytest.mark.parametrize("norm", [1e-3, 0.1, 0.5, 1.5, 4.0, 20.0, 200.0])
    @pytest.mark.parametrize("dim", [16, 32])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_frechet_matches_scipy(self, rng, norm, dim, count):
        # the Frechet derivative of the Pade approximant applied to vectors,
        # L(A_i, E_a) w_i, against scipy's Frechet matrix times w_i
        a = _scaled_stack(rng, 2 * dyn.EXPM_CHUNK + 3, dim, norm)
        e = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
        w = rng.normal(size=(len(a), dim)) + 1j * rng.normal(size=(len(a), dim))
        got = dyn._frechet_action(a, e, w, (expm_stack(a) @ w[..., None])[..., 0])
        assert got.shape == (len(a), count, dim)
        for acts, x, v in zip(got, a, w):
            for act, direction in zip(acts, e):
                ref = scipy.linalg.expm_frechet(x, direction, compute_expm=False) @ v
                assert _rel(act, ref) <= 1e-13

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_noisy_propagation_identical_with_and_without_derivatives(self, rng, name):
        model = get_model(name, noise=True)
        p = len(model.control_hams)
        grid = ControlGrid(p, 41, 1.3, rng.uniform(-0.3, 0.3, size=(p, 41)))
        exact = propagate(model, model.true_values, grid, deriv_method="exact")
        plain = propagate(model, model.true_values, grid, deriv_method=None)
        assert np.array_equal(exact.segment_propagators, plain.segment_propagators)
        assert np.array_equal(exact.states, plain.states)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("noise", [True, False])
    def test_derivative_blocks_match_augmented_scipy(self, rng, name, noise):
        # each step's derivative L(dt L_j, dt dL_a) applied to a state: the
        # Pade action for noisy steps, dU rho U^+ + U rho dU^+ from
        # Daleckii-Krein for noiseless ones, against the top-right block of
        # the augmented exponential
        model = get_model(name, noise=noise)
        x = model.true_values
        p = len(model.control_hams)
        grid = ControlGrid(p, 19, 0.7, rng.uniform(-0.5, 0.5, size=(p, 19)))
        dt = grid.dt
        gens = step_liouvillians(model, x, grid)
        dls = basis_superop(np.stack([-1j * commutator_superop(dh) for dh in model.dh0(x)]))
        d = model.dim
        rhos = np.stack([random_density(rng, d) for _ in gens])
        w = basis_coords(rhos)
        if noise:
            acts = dyn._frechet_action(dt * gens, dt * dls, w,
                                       (expm_stack(dt * gens) @ w[..., None])[..., 0])
        else:
            u, evals, evecs = dyn._unitaries(dyn.step_hamiltonians(model, x, grid), dt)
            du = dyn._daleckii_krein(evals, evecs, dt, np.stack(model.dh0(x)))
            acts = du @ (rhos @ np.conj(u.swapaxes(1, 2)))[:, None]
            acts = basis_coords(acts + np.conj(acts.swapaxes(-1, -2)))
        d2 = gens.shape[1]
        zero = np.zeros((d2, d2))
        for j, gen in enumerate(gens):
            for a, dl in enumerate(dls):
                ref = scipy.linalg.expm(dt * np.block([[gen, dl], [zero, gen]]))
                assert _rel(acts[j, a], ref[:d2, d2:] @ w[j]) <= 1e-13

    @pytest.mark.parametrize("noise", [True, False])
    def test_uniform_grid_longer_than_one_action_pass(self, monkeypatch, noise):
        # a uniform grid's states are the columns of one derivative action,
        # taken in blocks
        model = get_model("magfield-xyz", noise=noise)
        p = len(model.control_hams)
        m = 2 * dyn.EXPM_CHUNK**2 + 5
        grid = ControlGrid(p, m, 3.0, np.full((p, m), -0.2))
        short = propagate(model, model.true_values, grid)
        monkeypatch.setattr(dyn, "_distinct_steps", lambda controls: controls)
        full = propagate(model, model.true_values, grid)
        assert _rel(short.param_derivs, full.param_derivs) <= 1e-13

    def test_hot_path_does_not_call_scipy_expm(self, monkeypatch, rng):
        from fisherctl import GrapeConfig, optimize
        from fisherctl.grape import GradientContext

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm or expm_frechet called")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        monkeypatch.setattr(scipy.linalg, "expm_frechet", refuse)
        for noise in (True, False):
            model = get_model("magfield-xyz", noise=noise)
            x = model.true_values
            p = len(model.control_hams)
            grid = ControlGrid(p, 30, 0.3, rng.uniform(-0.2, 0.2, size=(p, 30)))
            propagate(model, x, grid, deriv_method="exact")
            traj = propagate(model, x, grid, deriv_method=None)
            grad = GradientContext(traj, model.default_povm).cfim_gradient_grid()
            assert np.all(np.isfinite(grad))
            cfg = GrapeConfig(update_rule="bfgs", max_iters=2, steps_per_unit=50)
            res = optimize(model, x, None, None, 0.4, cfg)
            assert np.isfinite(res.final_objective)

    def test_gradient_path_does_not_call_einsum(self, monkeypatch, rng):
        # the gradient contractions are batched matmuls; np.einsum would run
        # numpy's non-BLAS loops over every step
        from fisherctl import GrapeConfig, optimize
        from fisherctl.grape import GradientContext

        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", refuse)
        for noise in (True, False):
            model = get_model("magfield-xyz", noise=noise)
            x = model.true_values
            for rule in ("bfgs", "gradient"):
                cfg = GrapeConfig(update_rule=rule, max_iters=1, steps_per_unit=50)
                res = optimize(model, x, None, None, 0.4, cfg)
                assert res.iterations_used == 1 and np.isfinite(res.final_objective)
            p = len(model.control_hams)
            grid = ControlGrid(p, 30, 0.3, rng.uniform(-0.2, 0.2, size=(p, 30)))
            traj = propagate(model, x, grid, deriv_method=None)
            for insertion in ("simpson", "trapezoid"):
                ctx = GradientContext(traj, model.default_povm, insertion=insertion)
                assert np.all(np.isfinite(ctx.cfim_gradient_grid()))


class TestMeasure:
    def test_maximally_mixed_bell_probabilities(self):
        rho = np.eye(4, dtype=complex) / 4
        assert np.allclose(measure(rho, bell_povm()), [0.25] * 4, atol=1e-14)

    def test_xxz_noisy_probabilities_match_closed_form(self):
        # p_{++} = (1/4)[1 - sin(2 x1 T)cos(2 x2 T)e^{-g1 T}
        #               + cos(2 x1 T)sin(2 x2 T)e^{-g2 T}]  and companions
        model = get_model("xxz")
        x1, x2 = model.true_values
        g = 0.1
        for t in (0.5, 1.0, 2.0):
            traj = uncontrolled_trajectory(model, t, deriv_method=None)
            p = measure(traj.final_state, pm_povm())
            e = np.exp(-g * t)
            sc = np.sin(2 * x1 * t) * np.cos(2 * x2 * t) * e
            cs = np.cos(2 * x1 * t) * np.sin(2 * x2 * t) * e
            expected = 0.25 * np.array([1 - sc + cs, 1 - sc - cs, 1 + sc + cs, 1 + sc - cs])
            assert np.abs(p - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        from fisherctl import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            measure(np.eye(2, dtype=complex) / 2, bell_povm())

    @pytest.mark.parametrize("angle", [1e-6, 1e-5, 1e-3])
    def test_small_probability_of_a_pure_state_is_relatively_accurate(self, angle):
        # controls cancel the field but for a sigma_1 rotation of qubit 1 by
        # `angle`, which sends Phi+ to Psi+ with probability sin^2(angle);
        # the state's rounding is ~1e-16 absolute, so a trace against the
        # effect would miss p = 1e-12 by ~1e-4 relative
        model = get_model("magfield-xyz", noise=False)
        t, m = 0.5, 50
        amps = np.zeros((6, m))
        amps[:3] = -model.true_values[:, None]
        amps[0] += angle / t
        traj = propagate(model, model.true_values, ControlGrid(6, m, t, amps),
                         deriv_method=None)
        p = measure(traj.final_state, model.default_povm)
        expected = np.array([np.cos(angle) ** 2, 0.0, np.sin(angle) ** 2, 0.0])
        assert abs(p[2] - expected[2]) <= 1e-8 * expected[2]
        assert np.abs(p - expected).max() <= 1e-13

    def test_non_positive_state_raises(self):
        from fisherctl import PropagationError

        rho = np.diag([0.5, 0.5, 1e-3, -1e-3]).astype(complex)
        with pytest.raises(PropagationError, match="below clamp floor"):
            measure(rho, bell_povm())

    def test_derivs_sum_to_zero(self, catalog_model):
        traj = uncontrolled_trajectory(catalog_model, 1.0, 80)
        p, dp = measure_derivs(traj, catalog_model.default_povm)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.abs(dp.sum(axis=1)).max() < 1e-8

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_derivs_match_finite_differences(self, catalog_model, t):
        model = catalog_model
        grid = zero_controls(t, 100)
        traj = propagate(model, model.true_values, grid)  # exact derivatives
        p, dp = measure_derivs(traj, model.default_povm)
        h = 1e-5
        for a in range(model.num_params):
            xp = model.true_values.copy()
            xm = model.true_values.copy()
            xp[a] += h
            xm[a] -= h
            pp = measure(propagate(model, xp, grid, deriv_method=None).final_state,
                         model.default_povm)
            pm = measure(propagate(model, xm, grid, deriv_method=None).final_state,
                         model.default_povm)
            fd = (pp - pm) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.abs(dp[a] - fd).max() / denom < 1e-4


class TestDerivativeDiscretization:
    def test_exact_mode_is_density_independent(self):
        model = get_model("zz")
        t = 0.7
        d1 = propagate(model, model.true_values, zero_controls(t, 50)).final_derivs
        d2 = propagate(model, model.true_values, zero_controls(t, 100)).final_derivs
        assert np.abs(d1 - d2).max() < 1e-12


# -- reference: the Frechet-matrix recursion that exact propagation replaced --
# Every step's (p, d^2, d^2) derivative matrices L(dt L_j, dt dL_a) from the
# Frechet derivative of the Pade approximant carried through the same pass
# (Al-Mohy & Higham 2009, Alg. 6.4), then drho_j = E_j drho_{j-1} + L_j rho_{j-1}.


def _ref_times(x, y):
    n = y.shape[-1]
    return (x.reshape(x.shape[:-2] + (-1, n)) @ y).reshape(len(y), n, -1)


def _ref_expm_frechet_chunk(a, e):
    eta = float(np.abs(a).sum(axis=-2).max())
    m = next((m for m, theta in dyn._PADE_THETA if eta <= theta), 13)
    b = dyn._PADE_COEFFS[m]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    s = 0
    if m == 13:
        s = max(0, int(np.ceil(np.log2(eta / dyn._PADE_THETA_13))))
        a, e = a * 2.0**-s, e * 2.0**-s
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        w1 = b[13] * a6 + b[11] * a4 + b[9] * a2
        w = a6 @ w1 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        u = a @ w
        z1 = b[12] * a6 + b[10] * a4 + b[8] * a2
        v = a6 @ z1 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        m2 = a @ e + _ref_times(e, a)
        m4 = a2 @ m2 + _ref_times(m2, a2)
        m6 = a4 @ m2 + _ref_times(m4, a2)
        lw = (a6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2) + _ref_times(m6, w1)
              + b[7] * m6 + b[5] * m4 + b[3] * m2)
        lu = a @ lw + _ref_times(e, w)
        lv = (a6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + _ref_times(m6, z1)
              + b[6] * m6 + b[4] * m4 + b[2] * m2)
    else:
        a2 = a @ a
        power = a2
        mpow = m2 = a @ e + _ref_times(e, a)
        u = b[1] * eye + b[3] * a2
        v = b[0] * eye + b[2] * a2
        lw, lv = b[3] * m2, b[2] * m2
        for i in range(4, m + 1, 2):
            mpow = power @ m2 + _ref_times(mpow, a2)
            lw = lw + b[i + 1] * mpow
            lv = lv + b[i] * mpow
            power = power @ a2
            u = u + b[i + 1] * power
            v = v + b[i] * power
        lu = a @ lw + _ref_times(e, u)
        u = a @ u
    r = np.linalg.solve(v - u, v + u)
    lmat = np.linalg.solve(v - u, (lu + lv) + _ref_times(lu - lv, r))
    for _ in range(s):
        lmat = r @ lmat + _ref_times(lmat, r)
        r = r @ r
    return r, lmat


def _reference_param_derivs(model, x, grid):
    dt, d2 = grid.dt, model.dim**2
    gens = dt * step_liouvillians(model, x, grid)
    dls = dt * basis_superop(np.stack([-1j * commutator_superop(dh) for dh in model.dh0(x)]))
    p = len(dls)
    side = dls.transpose(1, 0, 2).reshape(d2, p * d2)
    segs, dsegs = [], []
    for lo in range(0, len(gens), dyn.EXPM_CHUNK):
        r, lmat = _ref_expm_frechet_chunk(gens[lo:lo + dyn.EXPM_CHUNK], side)
        segs.append(r)
        dsegs.append(lmat.reshape(-1, d2, p, d2).transpose(0, 2, 1, 3))
    segs, dsegs = np.concatenate(segs), np.concatenate(dsegs)
    if not model.noise:  # the spectral exponentials, Pade derivatives
        evals, evecs = np.linalg.eigh(dyn.step_hamiltonians(model, x, grid))
        u = (evecs * np.exp(-1j * dt * evals)[:, None, :]) @ np.conj(evecs.swapaxes(1, 2))
        segs = basis_superop(np.stack([np.kron(uj, np.conj(uj)) for uj in u]))
    rho = basis_coords(model.default_probe)
    drho = np.zeros((p, d2))
    out = [drho]
    for seg, dseg in zip(segs, dsegs):
        drho = drho @ seg.T + dseg @ rho
        rho = seg @ rho
        out.append(drho)
    return basis_operators(np.stack(out, axis=1))


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestExactDerivatives:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("t", [0.5, 2.0, 30.0])
    def test_param_derivs_match_frechet_matrix_recursion(self, rng, name, noise, t):
        # T = 30 on 20 steps takes the degree-13 approximant with squarings
        model = get_model(name, noise=noise)
        p = len(model.control_hams)
        m = 20 if t > 10 else round(100 * t)
        grid = ControlGrid(p, m, t, rng.uniform(-0.3, 0.3, size=(p, m)))
        got = propagate(model, model.true_values, grid).param_derivs
        ref = _reference_param_derivs(model, model.true_values, grid)
        assert _rel(got, ref) <= 1e-13

    @pytest.mark.parametrize("spectrum", ["zero-control", "split", "random"])
    @pytest.mark.parametrize("tau", [0.01, 0.7, 3.0])
    def test_daleckii_krein_matches_expm_frechet(self, rng, spectrum, tau):
        if spectrum == "zero-control":
            # the field models' free Hamiltonians: doubly degenerate +-B
            hams, dhams = [], []
            for name in ("magfield", "magfield-xyz"):
                model = get_model(name, noise=False)
                hams.append(model.h0(model.true_values))
                dhams.append(np.stack(model.dh0(model.true_values)))
        elif spectrum == "split":
            hams, dhams = [], []
            for split in (1e-12, 1e-10, 1e-8, 1e-6):
                v = _random_unitary(rng, 4)
                lam = np.array([-0.7, -0.7 + split, 1.1, 1.1 + split])
                hams.append((v * lam) @ v.conj().T)
                dhams.append(np.stack([random_hermitian(rng, 4) for _ in range(3)]))
        else:
            hams = [random_hermitian(rng, 4) for _ in range(4)]
            dhams = [np.stack([random_hermitian(rng, 4) for _ in range(3)]) for _ in hams]
        for h, dh in zip(hams, dhams):
            evals, evecs = np.linalg.eigh(h[None])
            du = dyn._daleckii_krein(evals, evecs, tau, dh)[0]
            for got, direction in zip(du, dh):
                ref = scipy.linalg.expm_frechet(-1j * tau * h, -1j * tau * direction,
                                                compute_expm=False)
                assert _rel(got, ref) <= 1e-13

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_noiseless_exact_propagation_runs_no_pade_kernel(self, monkeypatch, rng, name):
        from fisherctl.grape import GradientContext

        def refuse(*args, **kwargs):
            raise AssertionError("Pade kernel called on a noiseless model")

        monkeypatch.setattr(dyn, "expm_stack", refuse)
        monkeypatch.setattr(dyn, "_frechet_action", refuse)
        model = get_model(name, noise=False)
        p = len(model.control_hams)
        for amps in (rng.uniform(-0.2, 0.2, size=(p, 30)), np.zeros((p, 30))):
            traj = propagate(model, model.true_values, ControlGrid(p, 30, 0.6, amps))
            assert np.all(np.isfinite(traj.param_derivs))
            ctx = GradientContext(traj, model.default_povm)
            assert np.all(np.isfinite(ctx.cfim_gradient_grid()))

    def test_exact_propagation_allocates_no_frechet_stack(self, rng):
        # the parent recursion held (m, n, d^2, d^2) derivative matrices; the
        # derivative actions must peak below one such array
        import tracemalloc

        model = get_model("magfield-xyz")
        p, m = len(model.control_hams), 2000
        grid = ControlGrid(p, m, 20.0, rng.uniform(-0.3, 0.3, size=(p, m)))
        model.at(model.true_values)
        tracemalloc.start()
        try:
            traj = propagate(model, model.true_values, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.param_derivs.shape == (model.num_params, m + 1, 4, 4)
        assert peak < m * model.num_params * 16**2 * np.dtype(complex).itemsize

    def test_trace_drift_names_the_first_drifted_step(self, monkeypatch):
        from fisherctl import PropagationError

        def leaky(a):
            out = np.broadcast_to(np.eye(a.shape[-1], dtype=a.dtype), a.shape).copy()
            out[5:] *= 1.01
            return out

        monkeypatch.setattr(dyn, "expm_stack", leaky)
        model = get_model("zz")
        grid = ControlGrid(6, 10, 0.5, np.linspace(0.0, 0.1, 60).reshape(6, 10))
        with pytest.raises(PropagationError, match="at step 6 of 10"):
            propagate(model, model.true_values, grid)
