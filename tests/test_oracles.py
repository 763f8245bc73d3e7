import math

import numpy as np
import pytest

from fisherctl import (
    cfim,
    get_model,
    measure,
    measure_derivs,
    qfim,
    tr_inv,
)
from fisherctl.oracles import (
    oracle_magfield_bell_probs,
    oracle_magfield_cfim,
    oracle_magfield_eigenvalues,
    oracle_magfield_qfim,
    oracle_xxz_cfim,
    oracle_xxz_probs,
    oracle_xxz_qfim_pure,
    oracle_xxz_trinv,
    oracle_zz_probs,
    oracle_zz_qfim_pure,
)

from conftest import uncontrolled_trajectory

B, THETA, PHI = 1.0, np.pi / 4, np.pi / 4
GAMMA_MF = 0.2
T_GRID = np.linspace(0.1, 3.0, 20)


def factorized_field_state(b, theta, phi, gamma, t):
    """The state family behind the noisy field-model closed forms: unitary
    evolution for t, then bare qubit-1 dephasing for t (the two generators
    are treated as if they commuted)."""
    c, s = np.cos(b * t), np.sin(b * t)
    ket = np.array([
        c - 1j * s * np.cos(theta),
        -1j * s * np.sin(theta) * np.exp(-1j * phi),
        -1j * s * np.sin(theta) * np.exp(1j * phi),
        c + 1j * s * np.cos(theta),
    ]) / np.sqrt(2)
    rho = np.outer(ket, ket.conj())
    decay = np.exp(-gamma * t)
    rho[0:2, 2:4] *= decay
    rho[2:4, 0:2] *= decay
    return rho


class TestMagfieldProbs:
    def test_polar_noiseless_limit(self):
        for t in (0.4, 1.3):
            p = oracle_magfield_bell_probs(B, 0.0, 0.7, 0.0, t)
            expected = [np.cos(B * t) ** 2, np.sin(B * t) ** 2, 0.0, 0.0]
            assert np.abs(p - expected).max() < 1e-14

    def test_zero_time(self):
        assert np.allclose(oracle_magfield_bell_probs(B, THETA, PHI, GAMMA_MF, 0.0),
                           [1, 0, 0, 0], atol=1e-15)

    def test_matches_factorized_state(self):
        from fisherctl.models import bell_povm

        povm = bell_povm()
        for t in T_GRID:
            rho = factorized_field_state(B, THETA, PHI, GAMMA_MF, t)
            p = measure(rho, povm)
            po = oracle_magfield_bell_probs(B, THETA, PHI, GAMMA_MF, t)
            assert np.abs(p - po).max() < 1e-12

    def test_noiseless_limit_matches_engine(self):
        model = get_model("magfield", noise=False)
        for t in T_GRID:
            traj = uncontrolled_trajectory(model, float(t), deriv_method=None)
            p = measure(traj.final_state, model.default_povm)
            po = oracle_magfield_bell_probs(B, THETA, PHI, 0.0, float(t))
            assert np.abs(p - po).max() < 1e-10

    def test_noisy_closed_form_differs_from_exact_dynamics(self):
        # the factorized closed form is an approximation once the drift and
        # the dephasing generator stop commuting (theta not in {0, pi});
        # pin the gap so regressions on either side are caught
        model = get_model("magfield")
        gaps = []
        for t in T_GRID:
            traj = uncontrolled_trajectory(model, float(t), deriv_method=None)
            p = measure(traj.final_state, model.default_povm)
            po = oracle_magfield_bell_probs(B, THETA, PHI, GAMMA_MF, float(t))
            gaps.append(np.abs(p - po).max())
        assert 1e-4 < max(gaps) < 0.2

    def test_polar_axis_is_exact_even_with_noise(self):
        # at theta = 0 the generators commute and the closed form is exact
        from fisherctl.models import ParametricModel, model_magnetic_field

        model = model_magnetic_field(GAMMA_MF)
        x = np.array([1.0, 0.0, 0.3])
        for t in (0.7, 1.9):
            from conftest import zero_controls
            from fisherctl import propagate

            traj = propagate(model, x, zero_controls(t, 100), deriv_method=None)
            p = measure(traj.final_state, model.default_povm)
            po = oracle_magfield_bell_probs(1.0, 0.0, 0.3, GAMMA_MF, t)
            assert np.abs(p - po).max() < 1e-10


class TestMagfieldCfim:
    def test_transcription_against_probability_derivatives(self):
        # centered differences of the closed-form probabilities reproduce the
        # closed-form information matrix (validates the long expressions)
        h = 1e-6
        for t in (0.5, 1.0, 2.0, 2.7):
            x0 = np.array([B, THETA, PHI])
            p0 = oracle_magfield_bell_probs(*x0, GAMMA_MF, t)
            dp = np.zeros((3, 4))
            for a in range(3):
                xp, xm = x0.copy(), x0.copy()
                xp[a] += h
                xm[a] -= h
                dp[a] = (oracle_magfield_bell_probs(*xp, GAMMA_MF, t)
                         - oracle_magfield_bell_probs(*xm, GAMMA_MF, t)) / (2 * h)
            fd = cfim(p0, dp)
            closed = oracle_magfield_cfim(B, THETA, PHI, GAMMA_MF, t)
            assert np.abs(fd.matrix - closed.matrix).max() \
                / np.abs(closed.matrix).max() < 1e-6

    def test_zero_pattern(self):
        f = oracle_magfield_cfim(B, THETA, PHI, GAMMA_MF, 1.0).matrix
        assert f[0, 2] == 0.0 and f[1, 2] == 0.0

    def test_noiseless_spot_value(self):
        # phi entry at gamma = 0: 4 sin^2(BT) sin^2(theta) = 2 sin^2(1)
        f = oracle_magfield_cfim(B, THETA, PHI, 0.0, 1.0).matrix
        assert f[2, 2] == pytest.approx(1.4161468365471424, rel=1e-12)  # 2 sin^2(1)

    def test_noiseless_limit_matches_engine(self):
        model = get_model("magfield", noise=False)
        for t in (0.5, 1.0, 2.0):
            traj = uncontrolled_trajectory(model, t)
            p, dp = measure_derivs(traj, model.default_povm)
            f = cfim(p, dp)
            closed = oracle_magfield_cfim(B, THETA, PHI, 0.0, t)
            rel = np.abs(f.matrix - closed.matrix).max() / np.abs(closed.matrix).max()
            assert rel < 1e-6


class TestMagfieldQfim:
    def test_offdiagonals_vanish_without_noise(self):
        f = oracle_magfield_qfim(B, THETA, PHI, 0.0, 1.2).matrix
        off = f - np.diag(np.diag(f))
        assert np.abs(off).max() == 0.0

    def test_consistent_with_factorized_state(self):
        # spectral-decomposition computation on the factorized family
        # reproduces the closed-form entries
        h = 1e-6
        for t in (0.6, 1.4, 2.5):
            x0 = np.array([B, THETA, PHI])
            drho = []
            for a in range(3):
                xp, xm = x0.copy(), x0.copy()
                xp[a] += h
                xm[a] -= h
                drho.append((factorized_field_state(*xp, GAMMA_MF, t)
                             - factorized_field_state(*xm, GAMMA_MF, t)) / (2 * h))
            f = qfim(factorized_field_state(*x0, GAMMA_MF, t), drho)
            closed = oracle_magfield_qfim(B, THETA, PHI, GAMMA_MF, t)
            assert np.abs(f.matrix - closed.matrix).max() < 1e-4  # fd-limited

    def test_noiseless_limit_matches_engine(self):
        model = get_model("magfield", noise=False)
        for t in (0.5, 1.0, 2.0):
            traj = uncontrolled_trajectory(model, t)
            f = qfim(traj.final_state, list(traj.final_derivs))
            closed = oracle_magfield_qfim(B, THETA, PHI, 0.0, t)
            rel = np.abs(f.matrix - closed.matrix).max() / np.abs(closed.matrix).max()
            assert rel < 1e-8


class TestMagfieldEigenvalues:
    def test_factorized_state_spectrum(self):
        for t in (0.5, 1.0, 2.0):
            rho = factorized_field_state(B, THETA, PHI, GAMMA_MF, t)
            vals, _ = np.linalg.eigh(rho)
            lam_m, lam_p = oracle_magfield_eigenvalues(GAMMA_MF, t)
            assert abs(vals[-1] - lam_p) < 1e-12
            assert abs(vals[-2] - lam_m) < 1e-12
            assert np.abs(vals[:2]).max() < 1e-12

    def test_reference_point(self):
        lam_m, lam_p = oracle_magfield_eigenvalues(0.2, 1.0)
        assert lam_p == pytest.approx(0.5 * (1 + math.exp(-0.2)))
        assert lam_m == pytest.approx(0.5 * (1 - math.exp(-0.2)))


class TestZZOracles:
    def test_zero_time(self):
        assert np.allclose(oracle_zz_probs(1.0, 1.2, 0.1, 0.1, 0.1, 0.0),
                           [1, 0, 0, 0], atol=1e-15)

    def test_distribution_on_grid(self):
        for t in T_GRID:
            p = oracle_zz_probs(1.0, 1.2, 0.1, 0.1, 0.1, float(t))
            assert abs(p.sum() - 1.0) < 1e-12
            assert p.min() >= -1e-12

    def test_matches_engine_on_grid(self):
        model = get_model("zz")
        for t in T_GRID:
            traj = uncontrolled_trajectory(model, float(t), deriv_method=None)
            p = measure(traj.final_state, model.default_povm)
            po = oracle_zz_probs(1.0, 1.2, 0.1, 0.1, 0.1, float(t))
            assert np.abs(p - po).max() < 1e-10

    def test_unequal_rates_still_exact(self):
        # the free Hamiltonian is diagonal, so entrywise decay is exact for
        # any rate pair here
        model = get_model("zz", rates=(0.13, 0.04))
        for t in (0.8, 2.1):
            traj = uncontrolled_trajectory(model, t, deriv_method=None)
            p = measure(traj.final_state, model.default_povm)
            po = oracle_zz_probs(1.0, 1.2, 0.1, 0.13, 0.04, t)
            assert np.abs(p - po).max() < 1e-10

    def test_qfim_pure_optimal_probe(self):
        f = oracle_zz_qfim_pure(0.0, 0.0, 0.0, 1.5)
        assert np.abs(f.matrix - 4 * 1.5**2 * np.eye(3)).max() < 1e-12

    def test_qfim_pure_degenerate_probe(self):
        # |00>: all three expectations are +1 and every entry cancels
        f = oracle_zz_qfim_pure(1.0, 1.0, 1.0, 1.5)
        assert np.abs(f.matrix).max() == 0.0

    def test_qfim_pure_matches_engine(self):
        from fisherctl.operators import I2, SZ, kron

        model = get_model("zz", noise=False)
        probe = model.default_probe
        z1 = np.trace(probe @ kron(SZ, I2)).real
        z2 = np.trace(probe @ kron(I2, SZ)).real
        zz = np.trace(probe @ kron(SZ, SZ)).real
        for t in (0.5, 1.7):
            traj = uncontrolled_trajectory(model, t)
            f = qfim(traj.final_state, list(traj.final_derivs))
            fo = oracle_zz_qfim_pure(z1, z2, zz, t)
            assert np.abs(f.matrix - fo.matrix).max() < 1e-8 * max(1, t * t)


class TestXXZOracles:
    def test_noiseless_trig_reduction(self):
        # gamma = 0 reduces to p_{++} = (1/4)(1 - sin[2(x1 - x2)T]), etc.
        for t in (0.3, 1.1, 2.6):
            p = oracle_xxz_probs(1.0, 1.2, 0.0, 0.0, t)
            u = 2 * (1.0 - 1.2) * t
            v = 2 * (1.0 + 1.2) * t
            expected = 0.25 * np.array([
                1 - np.sin(u), 1 - np.sin(v), 1 + np.sin(v), 1 + np.sin(u)])
            assert np.abs(p - expected).max() < 1e-12

    def test_sum_is_one(self):
        for t in T_GRID:
            assert abs(oracle_xxz_probs(1.0, 1.2, 0.1, 0.1, float(t)).sum() - 1.0) < 1e-12

    def test_matches_engine_on_grid(self):
        model = get_model("xxz")
        for t in T_GRID:
            traj = uncontrolled_trajectory(model, float(t), deriv_method=None)
            p = measure(traj.final_state, model.default_povm)
            po = oracle_xxz_probs(1.0, 1.2, 0.1, 0.1, float(t))
            assert np.abs(p - po).max() < 1e-10

    def test_cfim_noiseless_limit(self):
        f = oracle_xxz_cfim(1.0, 1.2, 0.0, 0.77)
        assert np.abs(f.matrix - 4 * 0.77**2 * np.eye(2)).max() < 1e-10

    def test_cfim_matches_engine(self):
        model = get_model("xxz")
        for t in (0.5, 1.0, 2.0):
            traj = uncontrolled_trajectory(model, t)
            p, dp = measure_derivs(traj, model.default_povm)
            f = cfim(p, dp)
            fo = oracle_xxz_cfim(1.0, 1.2, 0.1, t)
            assert np.abs(f.matrix - fo.matrix).max() / np.abs(fo.matrix).max() < 1e-6

    def test_trinv_noiseless_value(self):
        for t in (0.5, 1.0):  # away from divergence points
            assert oracle_xxz_trinv(1.0, 1.2, 0.0, t) == pytest.approx(
                1.0 / (2 * t * t), rel=1e-12)

    def test_trinv_diverges_on_the_lattice(self):
        t_div = (np.pi / 2) / (2 * (1.0 + 1.2))
        assert oracle_xxz_trinv(1.0, 1.2, 0.1, t_div) == math.inf

    def test_trinv_reference_value(self):
        assert oracle_xxz_trinv(1.0, 1.2, 0.1, 1.0) == pytest.approx(
            1.1512548327056389, rel=1e-12)

    def test_qfim_pure_optimal(self):
        f = oracle_xxz_qfim_pure(0.0, 0.0, 1.0)
        assert np.abs(f.matrix - np.diag([8.0, 4.0])).max() < 1e-12

    def test_qfim_pure_matches_engine(self):
        from fisherctl.operators import SX, SY, SZ, kron

        model = get_model("xxz", noise=False)
        probe = model.default_probe
        zz = np.trace(probe @ kron(SZ, SZ)).real
        xy = np.trace(probe @ (kron(SX, SX) + kron(SY, SY))).real
        for t in (0.5, 1.9):
            traj = uncontrolled_trajectory(model, t)
            f = qfim(traj.final_state, list(traj.final_derivs))
            fo = oracle_xxz_qfim_pure(zz, xy, t)
            assert np.abs(f.matrix - fo.matrix).max() < 1e-8 * max(1, t * t)


class TestDistributions:
    def test_every_oracle_probability_vector_is_a_distribution(self):
        for t in T_GRID:
            for p in (
                oracle_magfield_bell_probs(B, THETA, PHI, GAMMA_MF, float(t)),
                oracle_magfield_bell_probs(B, THETA, PHI, 0.0, float(t)),
                oracle_zz_probs(1.0, 1.2, 0.1, 0.1, 0.1, float(t)),
                oracle_xxz_probs(1.0, 1.2, 0.1, 0.1, float(t)),
            ):
                assert abs(p.sum() - 1.0) < 1e-12
                assert p.min() >= -1e-12
