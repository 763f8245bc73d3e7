"""Dense complex-matrix primitives: states, Hermitian operators, POVMs, the
(d^2, d^2) matrices of superoperators acting on vectorized density matrices,
and the real coordinates of all of these in an orthonormal Hermitian basis.

Vectorization convention
------------------------
Public operators are flattened row-major (C order): ``vec(X) =
X.reshape(-1)``.  Under this convention ``vec(A X B) = (A kron B^T) vec(X)``,
so the commutator map ``X -> H X - X H`` has the matrix ``H kron 1 - 1 kron
H^T`` and the sandwich map ``X -> A X A`` (Hermitian A) has the matrix
``A kron A^T``.  :func:`commutator_superop` and ``build_liouvillian`` return
matrices in this convention; do not mix in column stacking.

Hermitian-basis coordinates
---------------------------
Propagation and the control gradients run in the real coordinates ``r_j =
Tr(B_j X)`` of an orthonormal Hermitian basis ``B_0 = 1/sqrt(d), B_1, ...,
B_{d^2-1}`` (:func:`hermitian_basis`).  With ``T`` the unitary whose column j
is ``vec(B_j)``, ``vec(X) = T r`` and a superoperator S acts on coordinates
as ``T^dagger S T``.  Every generator ``-i[H, .]`` plus dephasing maps
Hermitian matrices to Hermitian ones, so in this basis it is a real matrix,
and so are the states, the POVM effects, the propagators and the costates.
``Tr X = sqrt(d) r_0``, and a trace-preserving map keeps row 0 equal to e_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatch, InvariantViolation

__all__ = [
    "I2",
    "SX",
    "SY",
    "SZ",
    "PAULIS",
    "Povm",
    "basis_coords",
    "basis_operators",
    "basis_superop",
    "commutator_superop",
    "dag",
    "hermitian_basis",
    "kron",
    "validate_density_matrix",
    "validate_hermitian",
    "vec",
]

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_EIG_FLOOR = -1e-10
# the most multiply-adds of a 2-D float64 product seen to keep OpenBLAS serial
BLAS_SERIAL_MACS = 262144

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

    @cached_property
    def factors(self) -> np.ndarray:
        """The (n, d, d) stack of ``M_y`` with ``E_y = M_y^dagger M_y``:
        ``sqrt(mu) W^dagger`` from the spectrum of each effect."""
        mu, w = np.linalg.eigh(np.stack(self.effects))
        return np.sqrt(np.clip(mu, 0.0, None))[..., None] * np.conj(w.swapaxes(1, 2))

    @cached_property
    def coords(self) -> np.ndarray:
        """The read-only (n, d^2) real coordinates ``e_y`` of the effects in
        :func:`hermitian_basis`, so that ``p_y = e_y . r`` for a state of
        coordinates r."""
        coords = basis_coords(np.stack(self.effects))
        coords.flags.writeable = False
        return coords

    def __len__(self) -> int:
        return len(self.effects)

    @staticmethod
    def projective(labels, states) -> "Povm":
        """Build a projective POVM from an orthonormal family of kets."""
        effects = tuple(np.outer(s, np.conj(s)) for s in states)
        return Povm(labels=tuple(labels), effects=effects)


def _ad(h: np.ndarray) -> np.ndarray:
    # the (d^2, d^2) matrix of X -> H X - X H, for an already checked H
    eye = np.eye(h.shape[0], dtype=complex)
    return np.kron(h, eye) - np.kron(eye, h.T)


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """The (d^2, d^2) matrix of ``X -> H X - X H`` for Hermitian H."""
    return _ad(validate_hermitian(h))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (tensor embedding of subsystem operators)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@cache
def hermitian_basis(d: int) -> np.ndarray:
    """A read-only (d^2, d, d) orthonormal Hermitian basis, ``Tr(B_i B_j) =
    delta_ij``, with ``B_0 = 1/sqrt(d)`` first.

    For d = 2^n the n-fold tensor products of ``(1, sigma_1, sigma_2,
    sigma_3)`` over ``sqrt(d)``; for d = 4^n their entries are exact in
    floating point, so the basis change is exactly unitary and a rounded
    basis adds no coherent drift to long products of transfer matrices.
    Otherwise the generalized Gell-Mann matrices: the off-diagonal pairs
    ``(E_jk + E_kj)/sqrt 2`` and ``-i(E_jk - E_kj)/sqrt 2`` for j < k, then
    the traceless diagonals ``(sum_{i<l} E_ii - l E_ll) / sqrt(l (l + 1))``
    for l = 1..d-1.
    """
    n = d.bit_length() - 1
    if d == 1 << n:
        basis = np.ones((1, 1, 1), dtype=complex)
        for _ in range(n):
            basis = np.stack([np.kron(b, s) for b in basis for s in (I2,) + PAULIS])
        basis = basis / np.sqrt(d)
    else:
        basis = np.zeros((d * d, d, d), dtype=complex)
        basis[0] = np.eye(d) / np.sqrt(d)
        i = 1
        for j in range(d):
            for k in range(j + 1, d):
                basis[i, j, k] = basis[i, k, j] = 1 / np.sqrt(2)
                basis[i + 1, j, k], basis[i + 1, k, j] = -1j / np.sqrt(2), 1j / np.sqrt(2)
                i += 2
        for l in range(1, d):
            basis[i, range(l), range(l)] = 1.0
            basis[i, l, l] = -l
            basis[i] /= np.sqrt(l * (l + 1))
            i += 1
    basis.flags.writeable = False
    return basis


def _basis_rows(d: int) -> np.ndarray:
    # (d^2, d^2): row j is vec(B_j), so T = rows^T and T^dagger = conj(rows)
    return hermitian_basis(d).reshape(d * d, d * d)


@cache
def _basis_real(d: int) -> np.ndarray:
    # (2 d^2, d^2) real: rows 2q and 2q+1 hold Re and Im of entry q of every
    # vec(B_j), so a complex (.., d^2) vector viewed as interleaved floats
    # times it gives Re(T^dagger vec), and coordinates times its transpose
    # give T r as interleaved floats
    rows = _basis_rows(d)
    g = np.stack([rows.real.T, rows.imag.T], axis=1).reshape(2 * d * d, d * d)
    g.flags.writeable = False
    return g


def _blocked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a @ b for 2-D float64 a and b, in blocks of rows sized to b: each
    # block's product stays at or below BLAS_SERIAL_MACS multiply-adds
    rows = max(1, BLAS_SERIAL_MACS // b.size)
    out = np.empty((len(a), b.shape[1]))
    for lo in range(0, len(a), rows):
        np.matmul(a[lo:lo + rows], b, out=out[lo:lo + rows])
    return out


def basis_coords(x: np.ndarray) -> np.ndarray:
    """Real coordinates ``Re Tr(B_j X)`` of a (..., d, d) stack, (..., d^2).

    Exact for Hermitian X; for any X they are the coordinates of its
    Hermitian part ``(X + X^dagger)/2``.
    """
    d = x.shape[-1]
    flat = np.ascontiguousarray(x, dtype=complex).reshape(-1, d * d).view(float)
    return _blocked(flat, _basis_real(d)).reshape(x.shape[:-2] + (d * d,))


def basis_operators(r: np.ndarray) -> np.ndarray:
    """The (..., d, d) Hermitian operators ``sum_j r_j B_j`` of real
    coordinates r, (..., d^2)."""
    d2 = r.shape[-1]
    d = round(np.sqrt(d2))
    flat = _blocked(np.reshape(r, (-1, d2)), _basis_real(d).T)
    return flat.view(complex).reshape(r.shape[:-1] + (d, d))


def basis_superop(s: np.ndarray) -> np.ndarray:
    """``Re(T^dagger S T)``: a (..., d^2, d^2) stack of row-major superoperator
    matrices acting on basis coordinates.  Exact for maps that send Hermitian
    matrices to Hermitian ones."""
    rows = _basis_rows(round(np.sqrt(s.shape[-1])))
    return (np.conj(rows) @ s @ rows.T).real
