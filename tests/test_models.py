import dataclasses
import sys

import numpy as np
import pytest

from fisherctl import (
    ControlGrid,
    DimensionMismatch,
    FisherctlError,
    InvariantViolation,
    build_liouvillian,
    get_model,
    propagate,
)
from fisherctl.models import (
    MODEL_NAMES,
    bell_povm,
    local_control_hams,
    model_magnetic_field,
    model_xxz,
    model_zz,
    pm_povm,
)
from fisherctl.operators import (
    I2,
    SX,
    SY,
    SZ,
    basis_superop,
    kron,
    validate_density_matrix,
)

from conftest import uncontrolled_trajectory


class TestCatalog:
    def test_names_resolve(self):
        for name in MODEL_NAMES:
            model = get_model(name)
            assert model.name == name

    def test_unknown_name(self):
        with pytest.raises(FisherctlError):
            get_model("heisenberg")

    def test_rate_count_checked(self):
        with pytest.raises(FisherctlError):
            get_model("zz", rates=(0.1,))

    @pytest.mark.parametrize("rates", [(True, False), (0.1, True), (0.1, "0.1")])
    def test_rates_must_be_numbers(self, rates):
        # a bool was read as the rate 1.0 or 0.0
        with pytest.raises(FisherctlError, match="dephasing rates must be finite numbers"):
            get_model("xxz", rates=rates)

    def test_probes_and_povms_valid(self):
        for name in MODEL_NAMES:
            model = get_model(name)
            validate_density_matrix(model.default_probe)
            assert model.default_povm.dim == model.dim  # Povm validates itself

    def test_noise_off(self):
        for name in MODEL_NAMES:
            assert not get_model(name, noise=False).noise

    @pytest.mark.parametrize("name, rates", [("magfield", (0.0,)), ("zz", (0.1, 0.0)),
                                             ("xxz", (0.0, 0.3)), ("zz", (0.2, 0.2))])
    def test_rates_kept_with_zeros(self, name, rates):
        # noise keeps only the nonzero channels; rates keeps what was asked for
        model = get_model(name, rates=rates)
        assert model.rates == rates
        assert [g for _, g in model.noise.channels] == [g for g in rates if g]

    def test_default_and_noiseless_rates(self):
        assert get_model("xxz").rates == (0.1, 0.1)
        assert get_model("magfield").rates == (0.2,)
        assert get_model("zz", noise=False).rates == (0.0, 0.0)

    def test_six_local_fields(self):
        hams = local_control_hams()
        assert len(hams) == 6
        assert np.array_equal(hams[0], kron(SX, I2))
        assert np.array_equal(hams[5], kron(I2, SZ))


def _dirs_ref(hams):
    from fisherctl import commutator_superop

    return basis_superop(np.stack([-1j * commutator_superop(h) for h in hams]))


class TestDh0Dirs:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_per_call_superoperators(self, name):
        model = get_model(name)
        x = model.true_values
        dirs = model.at(x).dh0_dirs
        assert np.array_equal(dirs, _dirs_ref(model.dh0(x)))
        assert not dirs.flags.writeable

    def test_built_once_per_point(self, monkeypatch):
        import fisherctl.models as models
        from fisherctl import ControlGrid, propagate
        from fisherctl.grape import GradientContext

        model = get_model("magfield")  # its dH0 depend on x
        model.control_dirs  # built once per model, not counted here
        calls = []
        kernel = models._ad
        monkeypatch.setattr(models, "_ad", lambda h: calls.append(1) or kernel(h))
        x = model.true_values
        grid = ControlGrid(6, 20, 0.4, np.full((6, 20), 0.1))
        traj = propagate(model, x, grid)
        GradientContext(traj, model.default_povm)
        assert model.at(list(x)).dh0_dirs is model.at(x).dh0_dirs
        assert len(calls) == model.num_params
        moved = model.at(x + 0.1).dh0_dirs
        assert len(calls) == 2 * model.num_params
        assert np.array_equal(moved, _dirs_ref(model.dh0(x + 0.1)))

    def test_threads_always_get_their_own_point(self):
        # threads may share one model; a thread must never be served the
        # stack of another thread's point
        import sys
        import threading

        model = get_model("magfield")
        points = [model.true_values + 0.05 * k for k in range(6)]
        refs = [_dirs_ref(model.dh0(x)) for x in points]
        errors = []

        def work(k):
            for _ in range(200):
                if not np.array_equal(model.at(points[k]).dh0_dirs, refs[k]):
                    errors.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors


class TestCheckedOperators:
    """The model checks its operators once, and every propagation path reads
    the checked ones."""

    @pytest.mark.parametrize("noise", [False, True])
    def test_non_hermitian_free_hamiltonian_raises(self, noise):
        base = get_model("magfield-xyz", noise=noise)
        bad = dataclasses.replace(base, h0=lambda x: base.h0(x) + 0.1j * kron(SX, I2))
        grid = ControlGrid.zeros(6, 10, 0.5)
        with pytest.raises(InvariantViolation, match="free Hamiltonian"):
            propagate(bad, bad.true_values, grid)

    @pytest.mark.parametrize("noise", [False, True])
    def test_non_hermitian_control_hamiltonian_raises(self, noise):
        base = get_model("magfield-xyz", noise=noise)
        bad = dataclasses.replace(
            base, control_hams=(1j * kron(SX, I2),) + base.control_hams[1:])
        grid = ControlGrid.zeros(6, 10, 0.5)
        with pytest.raises(InvariantViolation, match="control Hamiltonian 0"):
            propagate(bad, bad.true_values, grid)

    def test_control_hamiltonian_dimension_checked(self):
        base = get_model("zz", noise=False)
        bad = dataclasses.replace(base, control_hams=base.control_hams[:5] + (SZ,))
        with pytest.raises(DimensionMismatch, match="control Hamiltonian 5"):
            propagate(bad, bad.true_values, ControlGrid.zeros(6, 10, 0.5))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("change", ["one fewer", "one more", "as a row"])
    def test_parameter_count_checked(self, name, change):
        # a short x would drop a term of H0 and a long one be read in part
        model = get_model(name)
        x = model.true_values
        x = {"one fewer": x[:-1], "one more": np.append(x, 5.0), "as a row": x[None]}[change]
        grid = ControlGrid.zeros(6, 10, 0.5)
        with pytest.raises(DimensionMismatch, match=f"takes {model.num_params} parameter"):
            model.at(x)
        with pytest.raises(DimensionMismatch, match=f"takes {model.num_params} parameter"):
            propagate(model, x, grid)

    def test_point_entry_holds_the_checked_operators(self):
        model = get_model("magfield")
        x = model.true_values
        ops = model.at(x)
        assert np.array_equal(ops.h0, model.h0(x))
        assert np.array_equal(ops.dh0, np.stack(model.dh0(x)))
        assert np.array_equal(ops.l0, basis_superop(build_liouvillian(model.h0(x), model.noise)))
        assert ops.dh0_dirs is model.at(x).dh0_dirs
        assert not any(a.flags.writeable for a in (ops.h0, ops.dh0, ops.dh0_dirs, ops.l0))

    def test_cached_point_builds_no_generator(self, monkeypatch):
        # a second noisy propagation at the same point, and its gradient
        # context, assemble no superoperator and check no operator; a new
        # point checks H0 and each dH0 once and builds its generator from them
        # without checking them again
        import fisherctl.dynamics as dynamics
        import fisherctl.operators as operators
        from fisherctl.grape import GradientContext

        model = get_model("magfield")
        x = model.true_values
        grid = ControlGrid(6, 20, 0.4, np.full((6, 20), 0.1))
        propagate(model, x, grid)
        calls = []
        for original in (dynamics.build_liouvillian, dynamics._liouvillian,
                         operators.commutator_superop, operators._ad,
                         operators.validate_hermitian):
            def counting(*args, _original=original, **kwargs):
                calls.append(_original.__name__)
                return _original(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.startswith("fisherctl"):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, counting)
        traj = propagate(model, x, grid)
        GradientContext(traj, model.default_povm)
        assert calls == []
        model.at(x + 0.1)  # a new point builds its generator, and is counted
        assert calls.count("validate_hermitian") == 1 + model.num_params == 4
        assert calls.count("_liouvillian") == 1
        assert calls.count("_ad") == 1 + model.num_params
        assert not {"build_liouvillian", "commutator_superop"} & set(calls)


class TestBasisRepresentation:
    """Every model operator that propagation reads is a real matrix in the
    Hermitian basis, the basis change of its row-major vec form."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("noise", [True, False])
    def test_operators_are_real_basis_changes(self, name, noise):
        from fisherctl import commutator_superop
        from fisherctl.operators import hermitian_basis

        model = get_model(name, noise=noise)
        x = model.true_values
        d2 = model.dim**2
        t_mat = hermitian_basis(model.dim).reshape(d2, d2).T
        ops = model.at(x)
        pairs = [(ops.l0, build_liouvillian(model.h0(x), model.noise)),
                 (model.control_dirs,
                  np.stack([-1j * commutator_superop(h) for h in model.control_hams])),
                 (ops.dh0_dirs, np.stack([-1j * commutator_superop(h) for h in model.dh0(x)]))]
        for got, vec_form in pairs:
            assert got.dtype == np.float64
            ref = t_mat.conj().T @ vec_form @ t_mat
            assert np.abs(ref.imag).max() <= 1e-15
            assert np.abs(got - ref.real).max() <= 1e-15

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("noise", [True, False])
    def test_step_transfer_matrices_preserve_the_trace(self, rng, name, noise):
        # row 0 of a trace-preserving map in the basis is e_0
        model = get_model(name, noise=noise)
        p = len(model.control_hams)
        grid = ControlGrid(p, 25, 0.8, rng.uniform(-1.0, 1.0, size=(p, 25)))
        traj = propagate(model, model.true_values, grid, deriv_method=None)
        segs = traj.segment_propagators
        assert segs.dtype == np.float64
        assert np.abs(segs[:, 0] - np.eye(model.dim**2)[0]).max() <= 1e-14


class TestPovms:
    def test_bell_completeness(self):
        total = sum(bell_povm().effects)
        assert np.abs(total - np.eye(4)).max() < 1e-14

    def test_pm_completeness(self):
        total = sum(pm_povm().effects)
        assert np.abs(total - np.eye(4)).max() < 1e-14


class TestMagneticField:
    def test_polar_axis(self):
        model = model_magnetic_field()
        h = model.h0(np.array([1.0, 0.0, 0.3]))
        assert np.abs(h - kron(SZ, I2)).max() < 1e-14

    def test_dphi_generator_at_reference_point(self):
        model = model_magnetic_field()
        d_phi = model.dh0(model.true_values)[2]
        expected = 0.5 * (-kron(SX, I2) + kron(SY, I2))
        assert np.abs(d_phi - expected).max() < 1e-12

    def test_generators_match_finite_differences(self):
        model = model_magnetic_field()
        x = model.true_values
        h = 1e-6
        analytic = model.dh0(x)
        for a in range(3):
            xp, xm = x.copy(), x.copy()
            xp[a] += h
            xm[a] -= h
            fd = (model.h0(xp) - model.h0(xm)) / (2 * h)
            assert np.abs(analytic[a] - fd).max() < 1e-8

    def test_cartesian_variant_same_physical_point(self):
        spherical = get_model("magfield", noise=False)
        cartesian = get_model("magfield-xyz", noise=False)
        h1 = spherical.h0(spherical.true_values)
        h2 = cartesian.h0(cartesian.true_values)
        assert np.abs(h1 - h2).max() < 1e-14

    def test_cartesian_linearity(self):
        model = get_model("magfield-xyz")
        x = np.array([0.3, -0.8, 1.1])
        expected = sum(x[a] * g for a, g in enumerate(model.dh0(x)))
        assert np.abs(model.h0(x) - expected).max() < 1e-14


class TestZZ:
    def test_generators_commute(self):
        model = model_zz()
        d = model.dh0(model.true_values)
        for i in range(3):
            for j in range(3):
                assert np.abs(d[i] @ d[j] - d[j] @ d[i]).max() < 1e-14

    def test_diagonal_at_reference_values(self):
        model = model_zz()
        h = model.h0(model.true_values)
        assert np.abs(h - np.diag([2.3, -0.3, 0.1, -2.1])).max() < 1e-14

    def test_probe_expectations_vanish(self):
        model = model_zz()
        probe = model.default_probe
        for op in (kron(SZ, I2), kron(I2, SZ), kron(SZ, SZ)):
            assert abs(np.trace(probe @ op)) < 1e-14

    def test_linearity(self):
        model = model_zz()
        x = np.array([0.4, -1.0, 0.25])
        expected = sum(x[a] * g for a, g in enumerate(model.dh0(x)))
        assert np.abs(model.h0(x) - expected).max() < 1e-14


class TestXXZ:
    def test_generators_commute(self):
        zz = kron(SZ, SZ)
        xx = kron(SX, SX)
        assert np.abs(zz @ xx - xx @ zz).max() < 1e-14

    def test_probe_expectations_vanish(self):
        model = model_xxz()
        probe = model.default_probe
        zz = kron(SZ, SZ)
        xy = kron(SX, SX) + kron(SY, SY)
        assert abs(np.trace(probe @ zz)) < 1e-14
        assert abs(np.trace(probe @ xy)) < 1e-14

    def test_linearity(self):
        model = model_xxz()
        x = np.array([1.4, -0.3])
        expected = sum(x[a] * g for a, g in enumerate(model.dh0(x)))
        assert np.abs(model.h0(x) - expected).max() < 1e-14

    @pytest.mark.parametrize("t", [0.4, 1.0, 2.3])
    def test_evolved_state_matches_closed_form(self, t):
        # (1/sqrt2)[e^{i 2 x2 T}|00> + i cos(2 x1 T)|01> - sin(2 x1 T)|10>]
        # up to a global phase
        model = get_model("xxz", noise=False)
        x1, x2 = model.true_values
        traj = uncontrolled_trajectory(model, t, deriv_method=None)
        ket = np.array([
            np.exp(1j * 2 * x2 * t),
            1j * np.cos(2 * x1 * t),
            -np.sin(2 * x1 * t),
            0.0,
        ]) / np.sqrt(2)
        expected = np.outer(ket, ket.conj())  # projector removes global phase
        assert np.abs(traj.final_state - expected).max() < 1e-12
