"""Dense complex-matrix primitives: states, Hermitian operators, POVMs, and
the (d^2, d^2) matrices of superoperators acting on vectorized density
matrices.

Vectorization convention
------------------------
Operators are flattened row-major (C order) everywhere: ``vec(X) =
X.reshape(-1)``.  Under this convention ``vec(A X B) = (A kron B^T) vec(X)``,
so the commutator map ``X -> H X - X H`` has the matrix ``H kron 1 - 1 kron
H^T`` and the sandwich map ``X -> A X A`` (Hermitian A) has the matrix
``A kron A^T``.  Every module in the package relies on this single convention;
do not mix in column stacking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation

__all__ = [
    "I2",
    "SX",
    "SY",
    "SZ",
    "PAULIS",
    "Povm",
    "commutator_superop",
    "dag",
    "kron",
    "sandwich_superop",
    "validate_density_matrix",
    "validate_hermitian",
    "vec",
]

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_EIG_FLOOR = -1e-10

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SX, SY, SZ)


def vec(x: np.ndarray) -> np.ndarray:
    """Row-major flattening of a square operator to a d^2 vector."""
    return np.asarray(x, dtype=complex).reshape(-1)


def dag(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def _as_square(a, name="operator") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvariantViolation(f"{name} contains non-finite entries")
    return a


def validate_hermitian(h, atol: float = HERMITICITY_ATOL, name: str = "operator") -> np.ndarray:
    """Check H = H^dagger entrywise within ``atol`` and return H as complex."""
    h = _as_square(h, name)
    if np.max(np.abs(h - dag(h))) > atol:
        raise InvariantViolation(f"{name} is not Hermitian within {atol}")
    return h


def validate_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Check Hermiticity, unit trace and positive semidefiniteness of a state."""
    rho = validate_hermitian(rho, name=name)
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise InvariantViolation(f"{name} trace deviates from 1 by {abs(tr - 1.0):.2e}")
    if np.min(np.linalg.eigvalsh(rho)) < PSD_EIG_FLOOR:
        raise InvariantViolation(f"{name} has eigenvalue below {PSD_EIG_FLOOR}")
    return rho


@dataclass(frozen=True)
class Povm:
    """Generalized measurement: labeled positive effects summing to identity."""

    labels: tuple
    effects: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.effects):
            raise DimensionMismatch("labels and effects differ in length")
        if not self.effects:
            raise InvariantViolation("POVM needs at least one effect")
        dims = {e.shape for e in self.effects}
        if len(dims) != 1:
            raise DimensionMismatch(f"effects have mixed shapes {dims}")
        total = np.zeros_like(self.effects[0])
        for label, effect in zip(self.labels, self.effects):
            effect = validate_hermitian(effect, atol=1e-10, name=f"effect {label}")
            if np.min(np.linalg.eigvalsh(effect)) < PSD_EIG_FLOOR:
                raise InvariantViolation(f"effect {label} is not PSD")
            total = total + effect
        if np.max(np.abs(total - np.eye(self.dim))) > 1e-10:
            raise InvariantViolation("POVM effects do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.effects)

    @staticmethod
    def projective(labels, states) -> "Povm":
        """Build a projective POVM from an orthonormal family of kets."""
        effects = tuple(np.outer(s, np.conj(s)) for s in states)
        return Povm(labels=tuple(labels), effects=effects)


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """The (d^2, d^2) matrix of ``X -> H X - X H`` for Hermitian H."""
    h = validate_hermitian(h)
    eye = np.eye(h.shape[0], dtype=complex)
    return np.kron(h, eye) - np.kron(eye, h.T)


def sandwich_superop(a: np.ndarray) -> np.ndarray:
    """The (d^2, d^2) matrix of ``X -> A X A`` for Hermitian A."""
    a = validate_hermitian(a)
    return np.kron(a, a.T)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (tensor embedding of subsystem operators)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
