import warnings

import numpy as np
import pytest

from fisherctl import (
    ControlGrid,
    DimensionMismatch,
    GradientContext,
    GrapeConfig,
    InvariantViolation,
    cfim,
    get_model,
    gradient_objective,
    measure,
    measure_derivs,
    objective_fcle,
    optimize,
    propagate,
)
from fisherctl.fisher import OBJECTIVES
from fisherctl.models import ParametricModel, local_control_hams

from conftest import zero_controls


def probs_at(model, grid, povm):
    traj = propagate(model, model.true_values, grid, deriv_method=None)
    return measure(traj.final_state, povm)


def dp_at(model, grid, povm):
    traj = propagate(model, model.true_values, grid, deriv_method="exact")
    return measure_derivs(traj, povm)[1]


def cfim_at(model, grid, povm):
    traj = propagate(model, model.true_values, grid, deriv_method="exact")
    p, dp = measure_derivs(traj, povm)
    return cfim(p, dp).matrix


def perturbed(grid, k, j, h):
    amps = grid.amplitudes.copy()
    amps[k, j - 1] += h
    return grid.with_amplitudes(amps)


def einsum_reference_grids(traj, povm):
    """The per-outcome trapezoid gradient grids ``dprob[y, k, j-1]`` and
    ``ddprob[y, a, k, j-1]`` written term by term as einsums over explicit
    forward insertion sums and effect-covector sweeps, one response at a
    time; the batched-matmul contraction in ``GradientContext`` must
    reproduce it to rounding."""
    from fisherctl.operators import commutator_superop, hermitian_basis, vec

    model, dt, m = traj.model, traj.dt, traj.num_steps
    # the propagators back from basis coordinates to row-major vec: T R T^dagger
    t_mat = hermitian_basis(model.dim).reshape(model.dim**2, -1).T
    segs = t_mat @ traj.segment_propagators @ t_mat.conj().T
    rvecs = np.stack([vec(s) for s in traj.states])
    cc = np.stack([commutator_superop(hk) for hk in model.control_hams])
    dh = np.stack([commutator_superop(x) for x in model.dh0(traj.x)])
    dh_t = dh.transpose(0, 2, 1)
    n, d2 = len(dh), rvecs.shape[1]
    coef = -0.5j * dt

    wsum = np.zeros((n, m + 1, d2), dtype=complex)
    usum = np.zeros_like(wsum)
    for j in range(1, m + 1):
        e_j, w_prev = segs[j - 1], wsum[:, j - 1]
        usum[:, j] = w_prev @ e_j.T
        src = rvecs[j] @ dh_t + (rvecs[j - 1] @ dh_t) @ e_j.T
        wsum[:, j] = usum[:, j] + coef * src

    effects = np.stack([np.conj(vec(e)) for e in povm.effects])
    lam = np.empty((m + 1,) + effects.shape, dtype=complex)
    lam[m] = effects
    for j in range(m, 0, -1):
        lam[j - 1] = lam[j] @ segs[j - 1]
    lam_dh = np.einsum("jyr,ars->jyas", lam, dh)
    ins = coef * (lam_dh[1:] @ segs[:, None] + lam_dh[:-1])
    mu = np.zeros((m + 1,) + ins.shape[1:], dtype=complex)
    mu_e = np.zeros_like(mu)
    for j in range(m, 0, -1):
        mu_e[j] = mu[j] @ segs[j - 1]
        mu[j - 1] = mu_e[j] + ins[j - 1]

    hr = np.einsum("krs,js->kjr", cc, rvecs)
    ehr = np.einsum("jrs,kjs->kjr", segs, hr[:, :-1])
    jd = np.einsum("ars,js->ajr", dh, rvecs[:-1])
    hejd = np.einsum("krs,ajs->akjr", cc, np.einsum("jrs,ajs->ajr", segs, jd))
    ehjd = np.einsum("jrs,akjs->akjr", segs, np.einsum("krs,ajs->akjr", cc, jd))
    hu = np.einsum("krs,ajs->akjr", cc, usum[:, 1:])
    ehw = np.einsum("jrs,akjs->akjr", segs,
                    np.einsum("krs,ajs->akjr", cc, wsum[:, :-1]))
    ins_k = coef * (hr[:, 1:] + ehr)
    ins_past = coef * (hu + ehw)
    ins_cross = coef * (np.einsum("ars,kjs->akjr", dh, ins_k) + coef * (hejd + ehjd))
    dprob = np.real(np.einsum("jys,kjs->ykj", lam[1:], ins_k))
    future = np.einsum("jyas,kjs->yakj", mu[1:], hr[:, 1:])
    future += np.einsum("jyas,kjs->yakj", mu_e[1:], hr[:, :-1])
    resp = np.einsum("jys,akjs->yakj", lam[1:], ins_past + ins_cross)
    return dprob, np.real(resp + coef * future)


def augmented_reference_grids(traj, povm):
    """The per-outcome exact gradient grids ``dprob[y, k, j-1]`` and
    ``ddprob[y, a, k, j-1]`` from the block-triangular generator A~_j of the
    stacked derivatives and state (Van Loan, IEEE TAC 23, 395 (1978)): the
    Frechet action of its Taylor polynomial in direction ``dt diag(C_k)`` on
    step j's input, in propagation's own passes, carried to the end by the
    polynomials of the later steps, one step at a time."""
    from fisherctl.dynamics import (_frechet_action, _taylor_passes, expm_stack,
                                    step_liouvillians)

    model, dt, m = traj.model, traj.dt, traj.num_steps
    gens = dt * step_liouvillians(model, traj.x, traj.controls)
    passes = _taylor_passes(gens)
    d2, dirs, ctrl = gens.shape[1], dt * model.at(traj.x).dh0_dirs, dt * model.control_dirs
    n, slots = len(dirs), len(dirs) + 1
    aug = np.zeros((m, slots, d2, slots, d2))
    ctrl_aug = np.zeros((len(ctrl), slots, d2, slots, d2))
    for b in range(slots):
        aug[:, b, :, b] = gens
        ctrl_aug[:, b, :, b] = ctrl
    aug[:, :n, :, n] = dirs
    aug, ctrl_aug = (x.reshape(len(x), slots * d2, slots * d2) for x in (aug, ctrl_aug))
    inputs = np.concatenate([traj.deriv_coords[:, :-1].swapaxes(0, 1),
                             traj.coords[:-1, None]], axis=1).reshape(m, -1)
    acts = _frechet_action(aug, ctrl_aug, inputs, passes)  # (m, p, slots d^2)
    props = expm_stack(aug, passes)
    n_out = len(povm.coords)
    lam = np.zeros((slots, n_out, slots, d2))  # e_y in slot b, row (b, y)
    for b in range(slots):
        lam[b, :, b] = povm.coords
    lam = lam.reshape(slots * n_out, -1)
    grid = np.empty((slots * n_out, len(ctrl), m))
    for j in range(m - 1, -1, -1):
        grid[:, :, j] = lam @ acts[j].T
        lam = lam @ props[j]
    grid = grid.reshape(slots, n_out, len(ctrl), m)
    return grid[n], grid[:n].swapaxes(0, 1)


def cfim_of(model, grid):
    traj = propagate(model, model.true_values, grid, deriv_method="exact")
    return cfim(*measure_derivs(traj, model.default_povm))


def contracted_cfim_grid(ctx):
    """The information-matrix grid as the chain-rule weights of the symmetric
    unit matrices times the per-outcome grids of ``_ensure_backward``, a
    contraction after the reverse pass; the one pass over the unit matrices'
    covectors in ``cfim_gradient_grid`` must reproduce it to rounding."""
    from fisherctl.fisher import usable_outcomes

    n = ctx.num_params
    units = np.eye(n * n).reshape(n * n, n, n)
    usable = usable_outcomes(ctx.p, ctx.dp)
    s1 = np.where(usable, ctx.dp / np.where(usable, ctx.p, 1.0), 0.0)
    gs1 = 0.5 * (units + units.swapaxes(1, 2)) @ s1
    weights = np.concatenate([2.0 * gs1, -np.sum(s1 * gs1, axis=1)[:, None]], axis=1)
    grid = ctx._ensure_backward()  # rows (b, y), effect y in slot b
    return (weights.reshape(n * n, -1) @ grid.reshape(len(grid), -1)).reshape(
        n, n, ctx.num_fields, ctx.num_steps)


# (steps, duration, amplitude): a pulse of unscaled Taylor passes, and one
# whose steps are scaled and squared (s >= 1)
UNSCALED, SCALED = (30, 0.6, 0.3), (12, 2.4, 2.0)


def random_grid(model, steps, duration, amplitude, seed):
    p = len(model.control_hams)
    rng = np.random.default_rng(seed)
    return ControlGrid(p, steps, duration, rng.uniform(-amplitude, amplitude, size=(p, steps)))


class TestRealCoordinates:
    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("deriv_method", [None, "exact"])
    def test_workspace_is_float64(self, rng, noise, deriv_method):
        model = get_model("magfield", noise=noise)
        p = len(model.control_hams)
        grid = ControlGrid(p, 12, 0.3, rng.uniform(-0.3, 0.3, size=(p, 12)))
        traj = propagate(model, model.true_values, grid, deriv_method=deriv_method)
        ctx = GradientContext(traj, model.default_povm)
        arrays = [ctx.dp, ctx._ensure_backward(), ctx.cfim_gradient_grid(),
                  ctx.objective_gradient(model.default_objective)]
        arrays += list(ctx._gradient_grids())
        arrays += [ctx.segs, ctx.rvecs, ctx.effect_coords]
        arrays += [ctx._z, ctx._ez] if deriv_method is None else [ctx._gens, ctx._xvecs]
        arrays += ctx._costates(ctx._weights(np.eye(model.num_params)[None]))
        assert all(a.dtype == np.float64 for a in arrays)


@pytest.mark.parametrize("module", ["fisherctl", "fisherctl.dynamics", "fisherctl.fisher",
                                    "fisherctl.grape"])
def test_every_exported_name_resolves(module):
    import importlib

    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    star = {}
    exec(f"from {module} import *", star)
    assert [name for name in mod.__all__ if star.get(name) is not getattr(mod, name)] == []
    assert set(mod.__all__) <= set(dir(mod))


def test_package_refuses_unknown_names():
    import fisherctl

    with pytest.raises(AttributeError, match="no_such_name"):
        fisherctl.no_such_name
    with pytest.raises(ImportError):
        exec("from fisherctl import no_such_name", {})
    assert "no_such_name" not in dir(fisherctl)


def dense_bfgs_matrix(pairs, n):
    """The dense inverse Hessian that the stored secant pairs build, oldest
    first, from ``gamma I`` with ``gamma = s.y / y.y`` of the newest pair: the
    dense BFGS update that the two-loop recursion in ``optimize`` replaces,
    kept as the reference it must reproduce."""
    if not pairs:
        return np.eye(n)
    s, y, _ = pairs[-1]
    hinv = float(s @ y) / float(y @ y) * np.eye(n)
    for s, y, _ in pairs:
        sy = float(s @ y)
        hy = hinv @ y
        term = np.outer(s, hy)
        hinv = hinv - (term + term.T) / sy + (float(y @ hy) + sy) / sy**2 * np.outer(s, s)
    return hinv


@pytest.fixture(scope="module")
def controlled_setup():
    rng = np.random.default_rng(41)
    model = get_model("zz")
    m = 100
    grid = ControlGrid(6, m, 1.0, rng.uniform(-0.25, 0.25, size=(6, m)))
    traj = propagate(model, model.true_values, grid, deriv_method="exact")
    return model, grid, traj


class TestGradientProb:
    @pytest.mark.parametrize("deriv_method", [None, "exact"])
    def test_identity_control_has_zero_gradient(self, deriv_method):
        base = get_model("zz")
        with_identity = ParametricModel(
            name="zz+id", dim=4, param_names=base.param_names,
            h0=base.h0, dh0=base.dh0,
            control_hams=base.control_hams + (np.eye(4, dtype=complex),),
            noise=base.noise, default_probe=base.default_probe,
            default_povm=base.default_povm, true_values=base.true_values,
        )
        grid = zero_controls(1.0, 40, num_fields=7)
        traj = propagate(with_identity, with_identity.true_values, grid,
                         deriv_method=deriv_method)
        g = GradientContext(traj, with_identity.default_povm).prob_gradient(k=6, j=20)
        assert np.abs(g).max() < 1e-14

    def test_matches_finite_differences(self, controlled_setup, rng):
        model, grid, traj = controlled_setup
        povm = model.default_povm
        ctx = GradientContext(traj, povm)
        h = 1e-6
        for _ in range(6):
            k = int(rng.integers(0, 6))
            j = int(rng.integers(1, grid.num_steps + 1))
            fd = (probs_at(model, perturbed(grid, k, j, h), povm)
                  - probs_at(model, perturbed(grid, k, j, -h), povm)) / (2 * h)
            g = ctx.prob_gradient(k, j)
            assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-10) < 1e-4

    def test_index_bounds(self, controlled_setup):
        model, grid, traj = controlled_setup
        ctx = GradientContext(traj, model.default_povm)
        with pytest.raises(DimensionMismatch):
            ctx.prob_gradient(k=6, j=1)
        with pytest.raises(DimensionMismatch):
            ctx.prob_gradient(k=0, j=0)

    @pytest.mark.parametrize("k, j", [(True, 1), (0, True), (1.5, 1), (0, 1.0),
                                      (np.float64(2.0), 3)])
    def test_non_integer_indices_refused(self, controlled_setup, k, j):
        # a bool once read field 1 and a float died in a bare IndexError
        model, grid, traj = controlled_setup
        ctx = GradientContext(traj, model.default_povm)
        with pytest.raises(DimensionMismatch, match="indices must be integers"):
            ctx.prob_gradient(k, j)
        with pytest.raises(DimensionMismatch, match="indices must be integers"):
            ctx.cfim_entry_gradient(0, 1, k, j)
        assert ctx.prob_gradient(np.int64(1), np.int32(2)).shape == (len(ctx.p),)


class TestGradientDprob:
    @pytest.mark.parametrize("deriv_method", [None, "exact"])
    def test_absent_parameter_has_zero_gradient(self, deriv_method):
        base = get_model("zz")
        frozen = ParametricModel(
            name="zz-frozen", dim=4, param_names=("w1", "dead"),
            h0=lambda x: base.h0(np.array([x[0], 1.2, 0.1])),
            dh0=lambda x: [base.dh0(x)[0], np.zeros((4, 4), dtype=complex)],
            control_hams=base.control_hams, noise=base.noise,
            default_probe=base.default_probe, default_povm=base.default_povm,
            true_values=np.array([1.0, 0.0]),
        )
        grid = zero_controls(0.8, 40)
        traj = propagate(frozen, frozen.true_values, grid, deriv_method=deriv_method)
        g = GradientContext(traj, frozen.default_povm).dprob_gradient(a=1, k=2, j=10)
        assert np.abs(g).max() < 1e-14

    def test_matches_finite_differences(self, controlled_setup, rng):
        model, grid, traj = controlled_setup
        povm = model.default_povm
        ctx = GradientContext(traj, povm)
        h = 1e-6
        for _ in range(5):
            a = int(rng.integers(0, model.num_params))
            k = int(rng.integers(0, 6))
            j = int(rng.integers(1, grid.num_steps + 1))
            fd = (dp_at(model, perturbed(grid, k, j, h), povm)[a]
                  - dp_at(model, perturbed(grid, k, j, -h), povm)[a]) / (2 * h)
            g = ctx.dprob_gradient(a, k, j)
            assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-10) < 1e-3

    def test_parameter_index_bounds(self, controlled_setup):
        # a negative index would otherwise read another parameter's row
        model, grid, traj = controlled_setup
        ctx = GradientContext(traj, model.default_povm)
        for a in (-1, model.num_params):
            with pytest.raises(DimensionMismatch, match="parameter index"):
                ctx.dprob_gradient(a, 0, 1)
            with pytest.raises(DimensionMismatch, match="parameter index"):
                ctx.cfim_entry_gradient(0, a, 0, 1)
            with pytest.raises(DimensionMismatch, match="parameter index"):
                ctx.cfim_entry_gradient(a, 0, 0, 1)
        for a in (True, 0.0):
            with pytest.raises(DimensionMismatch, match="indices must be integers"):
                ctx.dprob_gradient(a, 0, 1)
            with pytest.raises(DimensionMismatch, match="indices must be integers"):
                ctx.cfim_entry_gradient(0, a, 0, 1)

    def test_future_insertions_vanish_at_final_step(self, controlled_setup):
        # at j = m only past insertions contribute: the future-insertion
        # covectors start from zero there
        model, grid, traj = controlled_setup
        ctx = GradientContext(traj, model.default_povm)
        n, (n_out, d2) = model.num_params, ctx.effect_coords.shape
        units = np.zeros((n + 1, n_out, n + 1, d2))  # effect y in slot b
        for b in range(n + 1):
            units[b, :, b] = ctx.effect_coords
        mu = ctx._costates(units.reshape(-1, n + 1, d2))[1]
        m = grid.num_steps
        assert np.abs(mu[m]).max() == 0.0
        assert np.abs(mu[m - 1]).max() > 0.0


class TestGradientCfimEntry:
    def test_symmetric_in_parameter_pair(self, controlled_setup):
        model, grid, traj = controlled_setup
        ctx = GradientContext(traj, model.default_povm)
        for (a, b, k, j) in [(0, 1, 2, 17), (0, 2, 5, 99), (1, 2, 0, 50)]:
            g_ab = ctx.cfim_entry_gradient(a, b, k, j)
            g_ba = ctx.cfim_entry_gradient(b, a, k, j)
            assert g_ab == g_ba

    def test_matches_finite_differences(self, controlled_setup, rng):
        model, grid, traj = controlled_setup
        povm = model.default_povm
        ctx = GradientContext(traj, povm)
        h = 1e-6
        samples = []
        for _ in range(5):
            a = int(rng.integers(0, model.num_params))
            b = int(rng.integers(0, model.num_params))
            k = int(rng.integers(0, 6))
            j = int(rng.integers(1, grid.num_steps + 1))
            fd = (cfim_at(model, perturbed(grid, k, j, h), povm)[a, b]
                  - cfim_at(model, perturbed(grid, k, j, -h), povm)[a, b]) / (2 * h)
            samples.append((abs(ctx.cfim_entry_gradient(a, b, k, j) - fd), abs(fd)))
        scale = max(mag for _, mag in samples)
        for err, mag in samples:
            assert err / max(mag, 1e-2 * scale) < 1e-3


class TestGradientObjective:
    @pytest.mark.parametrize("deriv_method", [None, "exact"])
    def test_zero_grid_for_flat_objective(self, deriv_method):
        model = get_model("zz", rates=(0.0, 0.0))
        x = np.zeros(3)  # trivial dynamics: probabilities do not move
        grid = zero_controls(0.5, 20)
        traj = propagate(model, x, grid, deriv_method=deriv_method)
        ctx = GradientContext(traj, model.default_povm)
        assert np.abs(ctx.cfim_gradient_grid()).max() < 1e-12

    def test_equal_diagonal_reduction(self, controlled_setup):
        # with F = diag(a, a, a) the harmonic-combination chain rule reduces
        # to (1/9) of the summed diagonal-entry gradients
        model, grid, traj = controlled_setup
        ctx = GradientContext(traj, model.default_povm)
        grid_f = ctx.cfim_gradient_grid()
        fmat = ctx.current_cfim().matrix
        a = fmat[0, 0]
        iso = np.diag([a, a, a])
        got = np.tensordot(OBJECTIVES["f0"][1](iso), grid_f, 2)
        expected = (grid_f[0, 0] + grid_f[1, 1] + grid_f[2, 2]) / 9.0
        assert np.abs(got - expected).max() < 1e-12

    def test_fcle_matches_finite_differences(self, rng):
        from fisherctl import objective_fcle

        model = get_model("xxz")
        m = 60
        grid = ControlGrid(6, m, 1.0, rng.uniform(-0.2, 0.2, size=(6, m)))
        traj = propagate(model, model.true_values, grid, deriv_method="exact")
        analytic = gradient_objective(traj, model.default_povm, "fcle")
        h = 1e-6

        def fcle_of(g):
            return objective_fcle(cfim(*measure_derivs(
                propagate(model, model.true_values, g, deriv_method="exact"),
                model.default_povm)))

        for _ in range(5):
            k = int(rng.integers(0, 6))
            j = int(rng.integers(1, m + 1))
            fd = (fcle_of(perturbed(grid, k, j, h))
                  - fcle_of(perturbed(grid, k, j, -h))) / (2 * h)
            assert abs(analytic[k, j - 1] - fd) / max(abs(fd), 1e-8) < 1e-3

    def test_objective_name_checked(self, controlled_setup):
        model, grid, traj = controlled_setup
        with pytest.raises(Exception):
            gradient_objective(traj, model.default_povm, "variance")


class TestGridsAgainstReference:
    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("name", ["magfield", "magfield-xyz", "zz", "xxz"])
    def test_trapezoid_matches_einsum_reference(self, name, noise):
        model = get_model(name, noise=noise)
        grid = random_grid(model, *UNSCALED, seed=len(name) + 10 * noise)
        traj = propagate(model, model.true_values, grid, deriv_method=None)
        ctx = GradientContext(traj, model.default_povm)
        for got, want in zip(ctx._gradient_grids(),
                             einsum_reference_grids(traj, model.default_povm)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("pulse", [UNSCALED, SCALED], ids=["unscaled", "scaled"])
    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("name", ["magfield", "magfield-xyz", "zz", "xxz"])
    def test_exact_matches_augmented_reference(self, name, noise, pulse):
        from fisherctl.dynamics import _taylor_passes

        model = get_model(name, noise=noise)
        grid = random_grid(model, *pulse, seed=len(name) + 10 * noise)
        traj = propagate(model, model.true_values, grid, deriv_method="exact")
        ctx = GradientContext(traj, model.default_povm)
        scaled = max(s for *_, s in _taylor_passes(ctx._gens))
        assert (scaled >= 1) == (pulse is SCALED)
        for got, want in zip(ctx._gradient_grids(),
                             augmented_reference_grids(traj, model.default_povm)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("deriv_method", [None, "exact"])
    @pytest.mark.parametrize("pulse", [UNSCALED, SCALED], ids=["unscaled", "scaled"])
    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("name", ["magfield", "magfield-xyz", "zz", "xxz"])
    def test_cfim_grid_matches_contracted_reference(self, name, noise, pulse, deriv_method):
        model = get_model(name, noise=noise)
        grid = random_grid(model, *pulse, seed=len(name) + 10 * noise)
        traj = propagate(model, model.true_values, grid, deriv_method=deriv_method)
        ctx = GradientContext(traj, model.default_povm)
        got, want = ctx.cfim_gradient_grid(), contracted_cfim_grid(ctx)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_substep_checkpoints_change_nothing(self, monkeypatch):
        # a scaled pass too large to keep its sub-step vectors recomputes
        # them from every 2^ceil(s/2)-th: the same grids to rounding
        import fisherctl.grape as grape_mod

        model = get_model("magfield-xyz")
        grid = random_grid(model, 8, 2.4, 30.0, seed=3)
        traj = propagate(model, model.true_values, grid, deriv_method="exact")
        kept = GradientContext(traj, model.default_povm)._ensure_backward()
        monkeypatch.setattr(grape_mod, "_BATCH_FLOATS", 1)
        recomputed = GradientContext(traj, model.default_povm)._ensure_backward()
        assert np.abs(recomputed - kept).max() <= 1e-13 * np.abs(kept).max()


def test_trace_component_in_forward_sums_refused(monkeypatch):
    # the trapezoid rule's w[m] meets the derivative-sum check of the exact
    # rule's final derivatives: a trace component shifts every dp_y alike
    import fisherctl.grape as grape_mod

    model = get_model("xxz")
    grid = random_grid(model, *UNSCALED, seed=1)
    traj = propagate(model, model.true_values, grid, deriv_method=None)
    GradientContext(traj, model.default_povm)  # unpatched, the sums pass
    scan = grape_mod._scan

    def leaky(*args):
        out = scan(*args)
        out[..., 0] += 1e-6  # the trace coordinate
        return out

    monkeypatch.setattr(grape_mod, "_scan", leaky)
    with pytest.raises(InvariantViolation, match="do not sum to zero"):
        GradientContext(traj, model.default_povm)


class TestExactObjectiveGradient:
    @pytest.mark.parametrize("pulse", [(20, 0.6, 0.3), SCALED], ids=["unscaled", "scaled"])
    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("name", ["magfield", "magfield-xyz", "zz", "xxz"])
    def test_matches_five_point_differences(self, name, noise, pulse):
        # the derivatives of the objective and of every information-matrix
        # entry that propagation computes, to the differences' own error
        # (~1e-11 at h = 2.5e-4)
        model = get_model(name, noise=noise)
        value_of = OBJECTIVES[model.default_objective][0]
        grid = random_grid(model, *pulse, seed=len(name) + 10 * noise)
        traj = propagate(model, model.true_values, grid, deriv_method="exact")
        analytic = gradient_objective(traj, model.default_povm, model.default_objective)
        grid_f = GradientContext(traj, model.default_povm).cfim_gradient_grid()
        p, m, h = len(model.control_hams), grid.num_steps, 2.5e-4

        def five_point(vals):
            return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

        for k, j in [(0, 1), (p - 1, m // 2), (1, m)]:
            fs = [cfim_of(model, perturbed(grid, k, j, c * h)) for c in (-2, -1, 1, 2)]
            fd = five_point([value_of(f) for f in fs])
            assert abs(analytic[k, j - 1] - fd) <= 1e-9, (k, j)
            fd_f = five_point([f.matrix for f in fs])
            assert np.abs(grid_f[:, :, k, j - 1] - fd_f).max() <= 1e-9, (k, j)


class TestObjectiveReversePass:
    @pytest.mark.parametrize("deriv_method", [None, "exact"])
    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("name", ["magfield", "magfield-xyz", "zz", "xxz"])
    def test_matches_explicit_chain_rule(self, name, noise, deriv_method):
        # one reverse pass with the chain rule folded into the effect
        # covectors equals sum_ab G_ab dF_ab over the full information grid
        model = get_model(name, noise=noise)
        p, m = len(model.control_hams), 40
        rng = np.random.default_rng(len(name) + 10 * noise)
        grid = ControlGrid(p, m, 0.8, rng.uniform(-0.3, 0.3, size=(p, m)))
        traj = propagate(model, model.true_values, grid, deriv_method=deriv_method)
        ctx = GradientContext(traj, model.default_povm)
        fmat = ctx.current_cfim().matrix
        grid_f = ctx.cfim_gradient_grid()
        objectives = ("f0", "fcle") if model.num_params == 2 else ("f0",)
        for objective in objectives:
            chain = np.tensordot(OBJECTIVES[objective][1](fmat), grid_f, 2)
            got = ctx.objective_gradient(objective)
            assert got.shape == (p, m)
            assert np.abs(got - chain).max() <= 1e-12 * np.abs(chain).max(), objective

    def test_fcle_derivative_off_diagonal(self):
        fmat = np.array([[3.0, 0.7], [0.7, 2.0]])
        g = OBJECTIVES["fcle"][1](fmat)
        assert g[0, 1] == g[1, 0] == -0.7 / 5.0
        h = 1e-6
        for a, b in [(0, 0), (1, 1)]:
            step = np.zeros((2, 2))
            step[a, b] = h
            fd = (objective_fcle(fmat + step) - objective_fcle(fmat - step)) / (2 * h)
            assert abs(g[a, b] - fd) < 1e-9


class TestDiscretizationError:
    @staticmethod
    def median_errors(cells, ms, h):
        """Median finite-difference mismatch of each gradient on ``xxz``, at
        five spots of a random pulse of ``cells`` steps refined to m steps."""
        rng = np.random.default_rng(12)
        model = get_model("xxz")
        povm = model.default_povm
        base = rng.uniform(-0.25, 0.25, size=(6, cells))
        medians = []
        for m in ms:
            amps = np.repeat(base, m // cells, axis=1)
            grid = ControlGrid(6, m, 1.0, amps)
            traj = propagate(model, model.true_values, grid, deriv_method=None)
            ctx = GradientContext(traj, povm)
            rel = {"prob": [], "dprob": [], "cfim": []}
            for (k, frac) in [(0, 0.2), (2, 0.4), (4, 0.7), (1, 0.88), (5, 0.1)]:
                j = round(frac * cells) * (m // cells) + 1
                plus, minus = perturbed(grid, k, j, h), perturbed(grid, k, j, -h)
                fd = (probs_at(model, plus, povm) - probs_at(model, minus, povm)) / (2 * h)
                rel["prob"].append(np.abs(ctx.prob_gradient(k, j) - fd).max()
                                   / np.abs(fd).max())
                fd = (dp_at(model, plus, povm)[1] - dp_at(model, minus, povm)[1]) / (2 * h)
                rel["dprob"].append(np.abs(ctx.dprob_gradient(1, k, j) - fd).max()
                                    / np.abs(fd).max())
                fd = (cfim_at(model, plus, povm)[0, 1]
                      - cfim_at(model, minus, povm)[0, 1]) / (2 * h)
                rel["cfim"].append(abs(ctx.cfim_entry_gradient(0, 1, k, j) - fd) / abs(fd))
            medians.append({key: float(np.median(v)) for key, v in rel.items()})
        return medians

    def test_gradient_bias_shrinks_quadratically_with_grid_density(self):
        # trapezoid insertions, as in the ascent loop: the finite-difference
        # mismatch of each gradient drops ~4x per step-count doubling
        medians = self.median_errors(50, (50, 100, 200), 1e-6)
        for key in ("prob", "dprob", "cfim"):
            assert medians[0][key] / medians[1][key] >= 1.9, key
            assert medians[1][key] / medians[2][key] >= 1.9, key


def flat(monkeypatch, name):
    """Make the objective ``name`` read 1.0 at every point; keep its derivative."""
    monkeypatch.setitem(OBJECTIVES, name, (lambda f: 1.0, OBJECTIVES[name][1]))


class TestOptimize:
    def test_monotone_ascent_across_seeds(self):
        model = get_model("xxz")
        for seed in (0, 1, 2):
            cfg = GrapeConfig(max_iters=25, init_seed=seed, steps_per_unit=30,
                              update_rule="gradient")
            res = optimize(model, model.true_values, None, None, 0.7, cfg)
            hist = res.objective_history
            assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_bfgs_monotone_too(self):
        model = get_model("xxz")
        cfg = GrapeConfig(max_iters=25, init_seed=3, steps_per_unit=30,
                          update_rule="bfgs")
        res = optimize(model, model.true_values, None, None, 0.7, cfg)
        hist = res.objective_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        model = get_model("xxz")
        cfg = GrapeConfig(max_iters=15, init_seed=7, steps_per_unit=30,
                          update_rule="bfgs")
        r1 = optimize(model, model.true_values, None, None, 0.6, cfg)
        r2 = optimize(model, model.true_values, None, None, 0.6, cfg)
        assert np.array_equal(r1.final_controls.amplitudes,
                              r2.final_controls.amplitudes)
        assert r1.objective_history == r2.objective_history

    def test_final_cfim_reproducible_from_final_controls(self):
        model = get_model("xxz")
        cfg = GrapeConfig(max_iters=10, init_seed=1, steps_per_unit=30)
        res = optimize(model, model.true_values, None, None, 0.9, cfg)
        traj = propagate(model, model.true_values, res.final_controls,
                         deriv_method="exact")
        p, dp = measure_derivs(traj, model.default_povm)
        again = cfim(p, dp)
        assert np.abs(again.matrix - res.final_cfim.matrix).max() < 1e-10

    def test_zero_init_never_degrades_two_parameter_objective(self):
        # starting from the uncontrolled point, monotone ascent of det/trace
        # implies the reported precision limit cannot get worse
        from fisherctl import tr_inv
        from fisherctl.oracles import oracle_xxz_trinv

        model = get_model("xxz")
        for t in (0.8, 1.6):
            cfg = GrapeConfig(max_iters=30, init_scheme="zeros", steps_per_unit=50)
            res = optimize(model, model.true_values, None, None, t, cfg)
            assert res.final_tr_inv <= oracle_xxz_trinv(1.0, 1.2, 0.1, t) + 1e-9

    def test_amplitude_bound_respected(self):
        model = get_model("xxz")
        cfg = GrapeConfig(max_iters=20, init_seed=2, steps_per_unit=30,
                          amplitude_bound=0.05)
        res = optimize(model, model.true_values, None, None, 0.8, cfg)
        assert np.abs(res.final_controls.amplitudes).max() <= 0.05 + 1e-15

    def test_fixed_step_mode_runs(self):
        model = get_model("xxz")
        cfg = GrapeConfig(max_iters=10, init_seed=2, steps_per_unit=20,
                          update_rule="gradient", fixed_step=True, step_size=0.005)
        res = optimize(model, model.true_values, None, None, 0.5, cfg)
        assert res.iterations_used >= 1

    def test_bfgs_and_gradient_agree_on_field_model(self):
        # same random init; the quasi-Newton run needs fewer iterations and
        # both land on the same objective within 2%
        model = get_model("magfield-xyz", noise=False)
        common = dict(init_scheme="random", init_seed=9, init_amplitude=0.1,
                      convergence_tol=1e-8, steps_per_unit=50)
        res_b = optimize(model, model.true_values, None, None, 0.5,
                         GrapeConfig(update_rule="bfgs", max_iters=400, **common))
        res_g = optimize(model, model.true_values, None, None, 0.5,
                         GrapeConfig(update_rule="gradient", max_iters=2000, **common))
        assert abs(res_b.final_objective - res_g.final_objective) \
            <= 0.02 * max(res_b.final_objective, res_g.final_objective)
        assert res_b.iterations_used < res_g.iterations_used

    @pytest.mark.parametrize("rule,seed", [("gradient", 1), ("bfgs", 9), ("bfgs", 13),
                                           ("gradient", 13)])
    def test_noiseless_ascent_never_beats_the_quantum_limit(self, rule, seed):
        # runs that once climbed onto the rounding of a vanishing outcome
        # probability and ended below 3/(4 T^2), with CFIM > QFIM
        model = get_model("magfield-xyz", noise=False)
        res = optimize(model, model.true_values, None, None, 0.5, GrapeConfig(
            update_rule=rule, max_iters=400 if rule == "bfgs" else 2000,
            init_scheme="random", init_seed=seed, init_amplitude=0.1,
            convergence_tol=1e-8, steps_per_unit=50))
        assert res.final_tr_inv >= 3.0 * (1 - 1e-9)

    def test_evaluations_count_every_trial_point(self, monkeypatch):
        import fisherctl.grape as grape_mod

        model = get_model("xxz")
        fixed = optimize(model, model.true_values, None, None, 0.5, GrapeConfig(
            max_iters=6, init_seed=2, steps_per_unit=20, update_rule="gradient",
            fixed_step=True, step_size=0.005))
        assert fixed.evaluations == fixed.iterations_used + 1

        # every trial point propagates through _propagate; the final exact
        # re-evaluation through propagate
        trials = []
        real_propagate = grape_mod._propagate

        def counting(*args):
            trials.append(1)
            return real_propagate(*args)

        monkeypatch.setattr(grape_mod, "_propagate", counting)
        for rule in ("gradient", "bfgs"):
            trials.clear()
            res = optimize(model, model.true_values, None, None, 0.7, GrapeConfig(
                max_iters=12, init_seed=3, steps_per_unit=30, update_rule=rule))
            assert res.evaluations >= res.iterations_used + 1
            assert res.evaluations == len(trials)

    def test_each_evaluation_builds_one_cfim(self, monkeypatch):
        # the value and the gradient of an accepted iterate share one matrix
        import fisherctl.grape as grape_mod

        calls = []
        real_cfim = grape_mod.cfim
        monkeypatch.setattr(grape_mod, "cfim", lambda *a: calls.append(1) or real_cfim(*a))
        model = get_model("xxz")
        res = optimize(model, model.true_values, None, None, 0.6, GrapeConfig(
            max_iters=6, init_seed=3, steps_per_unit=20, update_rule="bfgs"))
        assert res.iterations_used == 6
        assert len(calls) == res.evaluations + 1  # and the final exact one

    def test_termination_reasons(self):
        model = get_model("xxz")
        common = dict(init_seed=3, steps_per_unit=20)
        capped = optimize(model, model.true_values, None, None, 0.6,
                          GrapeConfig(max_iters=2, update_rule="bfgs", **common))
        assert (capped.termination, capped.converged) == ("max_iters", False)
        assert capped.iterations_used == 2
        done = optimize(model, model.true_values, None, None, 0.6, GrapeConfig(
            max_iters=200, update_rule="bfgs", convergence_tol=1e-3, **common))
        assert (done.termination, done.converged) == ("converged", True)
        assert done.iterations_used < 200

    def test_line_search_stall(self, monkeypatch):
        import fisherctl.grape as grape_mod

        # a flat objective: no trial point ever ascends
        model = get_model("xxz")
        flat(monkeypatch, model.default_objective)
        for rule in ("gradient", "bfgs"):
            res = optimize(model, model.true_values, None, None, 0.5, GrapeConfig(
                max_iters=5, init_seed=1, steps_per_unit=12, update_rule=rule))
            assert (res.termination, res.converged) == ("line_search_stall", False)
            assert res.iterations_used == 1
            assert res.evaluations == 1 + grape_mod.MAX_BACKTRACKS + 1

    @pytest.mark.parametrize("rule,fixed", [("gradient", True), ("gradient", False),
                                            ("bfgs", False)])
    def test_numerical_failure(self, monkeypatch, rule, fixed):
        import fisherctl.grape as grape_mod
        from fisherctl import PropagationError

        real_propagate = grape_mod._propagate
        calls = []

        def failing(*args):
            # the initial evaluation and the final exact re-evaluation (through
            # propagate) succeed; every trial point raises
            calls.append(1)
            if len(calls) > 1:
                raise PropagationError("injected failure")
            return real_propagate(*args)

        monkeypatch.setattr(grape_mod, "_propagate", failing)
        model = get_model("xxz")
        res = optimize(model, model.true_values, None, None, 0.5, GrapeConfig(
            max_iters=5, init_seed=1, steps_per_unit=12, update_rule=rule,
            fixed_step=fixed))
        assert (res.termination, res.converged) == ("numerical_failure", False)
        assert res.iterations_used == 1
        assert res.evaluations == (2 if fixed else 1 + grape_mod.MAX_BACKTRACKS + 1)

    def test_partly_failed_line_search_is_a_stall(self, monkeypatch):
        import fisherctl.grape as grape_mod
        from fisherctl import PropagationError

        real_propagate = grape_mod._propagate
        calls = []

        def every_other(*args):
            calls.append(1)
            if len(calls) % 2 == 0:
                raise PropagationError("injected failure")
            return real_propagate(*args)

        monkeypatch.setattr(grape_mod, "_propagate", every_other)
        model = get_model("xxz")
        flat(monkeypatch, model.default_objective)
        res = optimize(model, model.true_values, None, None, 0.5, GrapeConfig(
            max_iters=5, init_seed=1, steps_per_unit=12, update_rule="bfgs"))
        assert res.termination == "line_search_stall"
        assert len(calls) > 2  # some trial points failed

    def test_user_controls_init(self):
        model = get_model("xxz")
        m = 15
        user = np.full((6, m), 0.01)
        cfg = GrapeConfig(max_iters=1, init_scheme="user", user_controls=user,
                          steps_per_unit=30)
        res = optimize(model, model.true_values, None, None, 0.5, cfg)
        assert res.final_controls.num_steps == m

    def test_config_validation(self):
        with pytest.raises(InvariantViolation):
            GrapeConfig(step_size=0.0)
        with pytest.raises(InvariantViolation):
            GrapeConfig(max_iters=0)
        with pytest.raises(InvariantViolation):
            GrapeConfig(init_scheme="user")
        with pytest.raises(InvariantViolation):
            GrapeConfig(update_rule="newton")
        with pytest.raises(InvariantViolation):
            GrapeConfig(steps_per_unit=0)
        with pytest.raises(InvariantViolation):
            GrapeConfig(init_seed=-1)

    @pytest.mark.parametrize("kwargs, name", [
        pytest.param(dict(init_amplitude=-0.1), "init_amplitude", id="negative-amplitude"),
        pytest.param(dict(init_amplitude=np.inf), "init_amplitude", id="inf-amplitude"),
        pytest.param(dict(init_amplitude=np.nan), "init_amplitude", id="nan-amplitude"),
        pytest.param(dict(max_iters=2.5), "max_iters", id="fractional-max-iters"),
        pytest.param(dict(init_seed=1.5), "init_seed", id="fractional-seed"),
        pytest.param(dict(steps_per_unit=10.5), "steps_per_unit", id="fractional-density"),
        pytest.param(dict(max_iters=True), "max_iters", id="bool-max-iters"),
        pytest.param(dict(init_seed=False), "init_seed", id="bool-seed"),
        pytest.param(dict(steps_per_unit=True), "steps_per_unit", id="bool-density"),
        pytest.param(dict(step_size=np.inf), "step_size", id="inf-step"),
        pytest.param(dict(step_size=np.nan), "step_size", id="nan-step"),
        pytest.param(dict(convergence_tol=np.inf), "convergence_tol", id="inf-tolerance"),
        pytest.param(dict(fixed_step="no"), "fixed_step", id="string-fixed-step"),
        pytest.param(dict(fixed_step=1), "fixed_step", id="int-fixed-step"),
        pytest.param(dict(step_size="0.1"), "step_size", id="string-step"),
        pytest.param(dict(init_amplitude="0.1"), "init_amplitude", id="string-amplitude"),
        pytest.param(dict(amplitude_bound="1"), "amplitude_bound", id="string-bound"),
        pytest.param(dict(convergence_tol=True), "convergence_tol", id="bool-tolerance"),
        pytest.param(dict(step_size=True), "step_size", id="bool-step"),
        pytest.param(dict(init_amplitude=False), "init_amplitude", id="bool-amplitude"),
        pytest.param(dict(amplitude_bound=True), "amplitude_bound", id="bool-bound"),
        *[pytest.param({name: sign * 10**400}, name, id=f"{name}-{label}")
          for name in ("step_size", "convergence_tol", "init_amplitude", "amplitude_bound")
          for sign, label in ((1, "huge"), (-1, "huge-negative"))],
    ])
    def test_bad_input_refused(self, kwargs, name):
        # each once raised a bare numpy or Python error later, was silently
        # rounded, or (a truthy string or a bool) was taken as a number or
        # flag; an int beyond the float range passed and optimize died in a
        # bare OverflowError
        with pytest.raises(InvariantViolation, match=name):
            GrapeConfig(**kwargs)

    @pytest.mark.parametrize("t", [np.nan, np.inf, 0.0, -0.5, "1", True, None,
                                   pytest.param(10**400, id="huge"),
                                   pytest.param(-10**400, id="huge-negative"), 1e18, 1e308,
                                   np.float64(1e308)])
    def test_bad_duration_refused(self, t):
        # num_steps: 10**400 passed and died in a bare OverflowError; 1e18 s
        # is more steps than numpy can index, 1e308 s an infinite count
        # (refused without a numpy overflow warning)
        model = get_model("xxz")
        with pytest.raises(InvariantViolation, match="duration"), warnings.catch_warnings():
            warnings.simplefilter("error")
            optimize(model, model.true_values, None, None, t,
                     GrapeConfig(max_iters=1, steps_per_unit=20))

    @pytest.mark.parametrize("scheme", ["zeros", "random"])
    def test_user_controls_refused_without_user_scheme(self, scheme):
        # they used to be ignored without a word
        with pytest.raises(InvariantViolation, match="user_controls"):
            GrapeConfig(init_scheme=scheme, user_controls=np.zeros((6, 10)))

    def test_zero_init_amplitude_accepted(self):
        assert GrapeConfig(init_amplitude=0.0, init_seed=np.int64(3)).init_amplitude == 0.0

    def test_fixed_step_refused_under_bfgs(self):
        # BFGS always line-searches; a fixed step there would be ignored
        with pytest.raises(InvariantViolation, match="fixed_step needs update_rule"):
            GrapeConfig(update_rule="bfgs", fixed_step=True)

    @pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), float("inf")])
    def test_amplitude_bound_must_be_positive_and_finite(self, bound):
        with pytest.raises(InvariantViolation, match="amplitude_bound must be positive"):
            GrapeConfig(amplitude_bound=bound)


class TestBfgsDirection:
    """The two-loop recursion over the stored secant pairs against the dense
    inverse-Hessian matrix they build from the scaled identity."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_update(self, seed):
        from fisherctl.grape import _bfgs_direction

        rng = np.random.default_rng(seed)
        n = 60
        pairs = []
        skipped = resets = 0
        for it in range(40):
            if it == 23:
                pairs = []  # a non-ascent reset
                resets += 1
            s = rng.normal(size=n)
            y = rng.normal(size=n) + (2.0 if it % 7 else -2.0) * s
            if it % 11 == 5:
                y -= (s @ y) / (s @ s) * s  # s.y = 0 up to rounding
            sy = float(s @ y)
            if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
                pairs.append((s, y, 1.0 / sy))
            else:
                skipped += 1
            g = rng.normal(size=n)
            want = dense_bfgs_matrix(pairs, n) @ g
            got = _bfgs_direction(pairs, g)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert skipped >= 4 and resets == 1 and len(pairs) >= 10

    def test_empty_memory_returns_the_gradient(self):
        from fisherctl.grape import _bfgs_direction

        g = np.arange(5.0)
        out = _bfgs_direction([], g)
        assert np.array_equal(out, g) and out is not g

    @pytest.mark.parametrize("seed", range(3))
    def test_direction_is_invariant_to_objective_scale(self, seed):
        # scaling the objective by c scales every y and the gradient by c;
        # the scaled initial matrix gamma I absorbs it, so the step does not
        # move (from the unscaled identity it would shrink or grow ~c-fold)
        from fisherctl.grape import _bfgs_direction

        rng = np.random.default_rng(seed)
        n, c = 40, 1e3
        pairs = []
        for _ in range(8):
            s = rng.normal(size=n)
            y = rng.normal(size=n) + 2.0 * s
            pairs.append((s, y, 1.0 / float(s @ y)))
        g = rng.normal(size=n)
        scaled = [(s, c * y, rho / c) for s, y, rho in pairs]
        for k in range(1, len(pairs) + 1):
            want = _bfgs_direction(pairs[:k], g)
            got = _bfgs_direction(scaled[:k], c * g)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_optimize_directions_match_dense_matrix(self, monkeypatch):
        # inside a real BFGS run, every direction equals the dense matrix
        # built from the same stored pairs and the newest pair's gamma I
        import fisherctl.grape as grape_mod

        real = grape_mod._bfgs_direction
        seen = []

        def checked(pairs, g):
            for s, y, rho in pairs:
                assert rho == 1.0 / float(s @ y)
                assert s @ y > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y)
            out = real(pairs, g)
            want = dense_bfgs_matrix(pairs, len(g)) @ g
            assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
            seen.append(len(pairs))
            return out

        monkeypatch.setattr(grape_mod, "_bfgs_direction", checked)
        model = get_model("xxz")
        optimize(model, model.true_values, None, None, 0.7, GrapeConfig(
            max_iters=12, init_seed=3, steps_per_unit=30, update_rule="bfgs"))
        assert max(seen) >= 5

    def test_memory_stays_below_one_dense_matrix(self):
        # 6 fields x 400 steps = 2400 controls, where one dense (p m)^2
        # float64 inverse Hessian is 46.1 MB.  The run holds the propagators,
        # the gradient workspaces and a few length-2400 secant pairs: its peak
        # measured 15.8 MB (a 2.9x margin); the dense update peaked at 190 MB
        import tracemalloc

        model = get_model("magfield-xyz")
        cfg = GrapeConfig(max_iters=3, init_seed=1, steps_per_unit=200,
                          update_rule="bfgs")
        n_ctrl = len(model.control_hams) * round(cfg.steps_per_unit * 2.0)
        assert n_ctrl >= 2400
        dense_bytes = n_ctrl**2 * 8
        tracemalloc.start()
        try:
            res = optimize(model, model.true_values, None, None, 2.0, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations_used == 3
        assert peak < dense_bytes, (peak, dense_bytes)

    def test_non_ascent_direction_resets_memory(self, monkeypatch):
        import fisherctl.grape as grape_mod

        real = grape_mod._bfgs_direction
        seen = []

        def flipped_once(pairs, g):
            seen.append(len(pairs))
            out = real(pairs, g)
            return -out if len(seen) == 5 else out

        monkeypatch.setattr(grape_mod, "_bfgs_direction", flipped_once)
        model = get_model("xxz")
        res = optimize(model, model.true_values, None, None, 0.7, GrapeConfig(
            max_iters=8, init_seed=3, steps_per_unit=30, update_rule="bfgs"))
        assert res.iterations_used == 8
        # the flipped direction is replaced by the gradient and the pairs are
        # dropped; the next call sees only the pair of that gradient step
        assert seen[:5] == [0, 1, 2, 3, 4]
        assert seen[5] == 1
        hist = res.objective_history
        assert all(b > a for a, b in zip(hist, hist[1:]))
