import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from fisherctl import InvariantViolation, Povm, commutator_superop, kron
from fisherctl.dynamics import NoiseSpec, build_liouvillian, expm_stack
from fisherctl.operators import (
    I2,
    SX,
    SY,
    SZ,
    basis_coords,
    basis_operators,
    basis_superop,
    hermitian_basis,
    validate_density_matrix,
    vec,
)

from conftest import random_hermitian

I4 = np.eye(4, dtype=complex)


def apply(s, x):
    """The operator that the superoperator matrix s maps x to."""
    d = x.shape[0]
    return (s @ vec(x)).reshape(d, d)


def propagator(lind, t):
    """exp(t L) by the package's own stacked kernel."""
    return expm_stack(t * lind[None])[0]


class TestCommutatorSuperop:
    def test_identity_commutes_with_everything(self, rng):
        s = commutator_superop(np.eye(3, dtype=complex))
        assert np.abs(s).max() == 0.0

    def test_pauli_algebra(self):
        s = commutator_superop(SZ)
        assert np.allclose(apply(s, SX), 2j * SY, atol=1e-14)

    def test_diagonal_on_balanced_coherence(self):
        # |00><01| has equal weight on qubit 1, so sigma_3 (x) 1 commutes with it
        x = np.zeros((4, 4), dtype=complex)
        x[0, 1] = 1.0
        h = kron(SZ, I2)
        assert np.abs(h @ x - x @ h).max() == 0.0  # brute-force reference
        assert np.abs(apply(commutator_superop(h), x)).max() < 1e-14

    def test_matches_brute_force_on_random_pairs(self, rng):
        for dim in (2, 4):
            for _ in range(20):
                h = random_hermitian(rng, dim)
                x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                got = apply(commutator_superop(h), x)
                assert np.abs(got - (h @ x - x @ h)).max() < 1e-12

    def test_matrix_form(self, rng):
        h = random_hermitian(rng, 3)
        eye = np.eye(3)
        expected = np.kron(h, eye) - np.kron(eye, h.T)
        assert np.allclose(commutator_superop(h), expected, atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation):
            commutator_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpm:
    @staticmethod
    def run_fresh(code):
        import fisherctl

        src = str(Path(fisherctl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)

    def test_package_import_does_not_load_scipy(self):
        # the package and the CLI import without scipy
        proc = self.run_fresh(
            "import fisherctl, fisherctl.cli, sys; assert 'scipy' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    def test_package_import_does_not_load_numpy(self):
        # the exports load on first use, so the entry point can choose the
        # BLAS thread count before numpy starts
        proc = self.run_fresh(
            "import fisherctl, fisherctl.__main__, sys; assert 'numpy' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    def test_unitary_conjugation(self):
        # generator -i[sigma_3, .] for t = pi/2 conjugates by exp(-i sigma_3 pi/2)
        gen = -1j * commutator_superop(SZ)
        prop = propagator(gen, np.pi / 2)
        u = scipy.linalg.expm(-1j * SZ * np.pi / 2)
        expected = u @ SX @ u.conj().T  # independent 2x2 oracle
        assert np.allclose(expected, -SX, atol=1e-14)
        assert np.allclose(apply(prop, SX), expected, atol=1e-12)

    def test_pure_dephasing_decay(self):
        gamma, t = 0.3, 1.4
        lind = build_liouvillian(np.zeros((2, 2)), NoiseSpec.dephasing([(SZ, gamma)]))
        out = apply(propagator(lind, t), SX)
        assert np.allclose(out, np.exp(-gamma * t) * SX, atol=1e-12)

    def test_semigroup_property(self, rng):
        for _ in range(5):
            h = random_hermitian(rng, 2)
            lind = build_liouvillian(h, NoiseSpec.dephasing([(SZ, rng.uniform(0, 0.5))]))
            t1, t2 = rng.uniform(0.1, 1.0, size=2)
            combined = propagator(lind, t1 + t2)
            split = propagator(lind, t1) @ propagator(lind, t2)
            assert np.abs(combined - split).max() < 1e-9

    def test_trace_and_hermiticity_preservation(self, rng):
        from conftest import random_density

        h = random_hermitian(rng, 4)
        lind = build_liouvillian(h, NoiseSpec.dephasing([(kron(SZ, I2), 0.25)]))
        rho = random_density(rng, 4)
        out = apply(propagator(lind, 0.9), rho)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10


class TestApplySuperop:
    def test_commutator_annihilates_generator(self):
        assert np.abs(apply(commutator_superop(SZ), SZ)).max() == 0.0

    def test_dephasing_damps_coherences(self):
        gamma, t = 0.5, 0.8
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(plus, plus)
        lind = build_liouvillian(np.zeros((2, 2)), NoiseSpec.dephasing([(SZ, gamma)]))
        out = apply(propagator(lind, t), rho)
        decay = np.exp(-gamma * t)
        expected = np.array([[0.5, 0.5 * decay], [0.5 * decay, 0.5]])
        assert np.allclose(out, expected, atol=1e-12)


class TestKron:
    def test_identities(self):
        assert np.array_equal(kron(I2, I2), I4)

    def test_sigma3_embedding(self):
        assert np.array_equal(kron(SZ, I2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_xx_is_antidiagonal(self):
        xx = kron(SX, SX)
        antidiag = np.fliplr(np.diag(np.diag(np.fliplr(xx))))
        assert np.array_equal(xx, antidiag)


class TestValidation:
    def test_density_matrix_accepts_valid(self, rng):
        from conftest import random_density

        validate_density_matrix(random_density(rng, 4))

    def test_density_matrix_rejects_trace(self):
        with pytest.raises(InvariantViolation):
            validate_density_matrix(np.eye(2, dtype=complex))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(InvariantViolation):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_povm_completeness_enforced(self):
        half = 0.5 * np.eye(2, dtype=complex)
        Povm(labels=("a", "b"), effects=(half, half))
        with pytest.raises(InvariantViolation):
            Povm(labels=("a", "b"), effects=(half, 0.6 * np.eye(2, dtype=complex)))

    def test_povm_rejects_non_psd_effect(self):
        e1 = np.diag([1.2, 0.0]).astype(complex)
        e2 = np.diag([-0.2, 1.0]).astype(complex)
        with pytest.raises(InvariantViolation):
            Povm(labels=("a", "b"), effects=(e1, e2))

    def test_povm_effect_coordinates_are_cached_and_read_only(self):
        from fisherctl.models import bell_povm

        povm = bell_povm()
        coords = povm.coords
        assert coords is povm.coords
        assert not coords.flags.writeable
        assert coords.shape == (4, 16) and coords.dtype == np.float64
        assert np.array_equal(coords, basis_coords(np.stack(povm.effects)))


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_hermitian_identity_first(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        assert not basis.flags.writeable
        assert np.abs(basis - basis.conj().transpose(0, 2, 1)).max() == 0.0
        gram = np.einsum("iab,jba->ij", basis, basis)
        assert np.abs(gram - np.eye(d * d)).max() <= 1e-15
        assert np.abs(basis[0] - np.eye(d) / np.sqrt(d)).max() <= 1e-16

    def test_two_qubit_basis_is_exactly_unitary(self):
        # Pauli products over 2: every entry exact, so T^dagger T = 1 exactly
        t_mat = hermitian_basis(4).reshape(16, 16).T
        assert np.array_equal(t_mat.conj().T @ t_mat, np.eye(16))
        assert np.array_equal(hermitian_basis(4)[5], kron(SX, SX) / 2)

    @pytest.mark.parametrize("d", [2, 4])
    def test_coordinates_round_trip(self, rng, d):
        from conftest import random_density

        rho = random_density(rng, d)
        r = basis_coords(rho)
        assert r.dtype == np.float64
        assert r[0] * np.sqrt(d) == pytest.approx(1.0, abs=1e-15)
        assert np.abs(basis_operators(r) - rho).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 4])
    def test_superoperator_acts_on_coordinates(self, rng, d):
        h = random_hermitian(rng, d)
        lind = build_liouvillian(h, NoiseSpec.dephasing([(np.diag([1.0, -1.0] * (d // 2)), 0.3)]))
        gen = basis_superop(lind)
        assert gen.dtype == np.float64
        assert np.abs(gen[0]).max() <= 1e-15  # trace-preserving: row 0 vanishes
        x = random_hermitian(rng, d)
        assert np.abs(basis_operators(gen @ basis_coords(x)) - apply(lind, x)).max() <= 1e-13


class TestBlocked:
    # the 2-D products that go through operators._blocked, for d = 4 (d^2 =
    # 16), three parameters and six control fields: the gradient grid, the
    # costates' ld, the forward D_a rho_j, and the basis change both ways
    SHAPES = {"grid": (256, 6), "ld": (48, 16), "dhr": (16, 48),
              "coords": (32, 16), "operators": (16, 32)}

    @pytest.mark.parametrize("m", [1, 50, 200, 2000])
    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_blocks_stay_serial_and_exact(self, monkeypatch, rng, m, rows, shape):
        from fisherctl import operators

        k, n = self.SHAPES[shape]
        a, b = rng.normal(size=(m * rows, k)), rng.normal(size=(k, n))
        matmul, macs = np.matmul, []

        def spy(x, y, **kwargs):
            macs.append(x.shape[0] * x.shape[1] * y.shape[1])
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        got = operators._blocked(a, b)
        monkeypatch.undo()
        assert sum(macs) == m * rows * k * n
        assert max(macs) <= operators.BLAS_SERIAL_MACS
        ref = a @ b
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
