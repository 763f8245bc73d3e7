"""Dense complex-matrix primitives: states, Hermitian operators, POVMs and
superoperators acting on vectorized density matrices.

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
    "Superoperator",
    "apply_superop",
    "commutator_superop",
    "dag",
    "eigh",
    "expm",
    "kron",
    "sandwich_superop",
    "unvec",
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


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if v.size != dim * dim:
        raise DimensionMismatch(f"vector of size {v.size} is not {dim}x{dim}")
    return v.reshape(dim, dim)


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


@dataclass(frozen=True)
class Superoperator:
    """Linear map on vectorized operators, stored as a dense d^2 x d^2 matrix."""

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        d2 = self.dim * self.dim
        if self.mat.shape != (d2, d2):
            raise DimensionMismatch(
                f"superoperator matrix shape {self.mat.shape} != ({d2}, {d2})"
            )
        if not np.all(np.isfinite(self.mat.view(float))):
            raise InvariantViolation("superoperator contains non-finite entries")

    @staticmethod
    def identity(dim: int) -> "Superoperator":
        return Superoperator(dim, np.eye(dim * dim, dtype=complex))

    @staticmethod
    def zero(dim: int) -> "Superoperator":
        return Superoperator(dim, np.zeros((dim * dim, dim * dim), dtype=complex))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_square(x)
        if x.shape[0] != self.dim:
            raise DimensionMismatch(
                f"operator dim {x.shape[0]} != superoperator dim {self.dim}"
            )
        return unvec(self.mat @ vec(x), self.dim)

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        """Composition ``self after other`` (matrix product of the maps)."""
        if self.dim != other.dim:
            raise DimensionMismatch("composed superoperators must share dim")
        return Superoperator(self.dim, self.mat @ other.mat)

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise DimensionMismatch("summed superoperators must share dim")
        return Superoperator(self.dim, self.mat + other.mat)

    def __mul__(self, scalar) -> "Superoperator":
        return Superoperator(self.dim, self.mat * scalar)

    __rmul__ = __mul__


def commutator_superop(h: np.ndarray) -> Superoperator:
    """Superoperator form of ``X -> H X - X H`` for Hermitian H."""
    h = validate_hermitian(h)
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    return Superoperator(d, np.kron(h, eye) - np.kron(eye, h.T))


def sandwich_superop(a: np.ndarray) -> Superoperator:
    """Superoperator form of ``X -> A X A`` for Hermitian A."""
    a = validate_hermitian(a)
    return Superoperator(a.shape[0], np.kron(a, a.T))


def expm(s: Superoperator, t: float) -> Superoperator:
    """exp(t S) as a superoperator; t = 0 short-circuits to the identity."""
    import scipy.linalg  # only here, so that importing the package skips scipy

    if not np.isfinite(t):
        raise InvariantViolation("propagation time must be finite")
    if t == 0.0:
        return Superoperator.identity(s.dim)
    out = scipy.linalg.expm(t * s.mat)
    if not np.all(np.isfinite(out.view(float))):
        raise InvariantViolation("matrix exponential produced non-finite entries")
    return Superoperator(s.dim, out)


def apply_superop(s: Superoperator, x: np.ndarray) -> np.ndarray:
    """devec(S @ vec(X)); linear in X."""
    return s.apply(x)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (tensor embedding of subsystem operators)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def eigh(a: np.ndarray):
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Raises if the input is not Hermitian.
    """
    a = validate_hermitian(a, atol=1e-10)
    return np.linalg.eigh(a)
