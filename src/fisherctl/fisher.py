"""Classical and quantum Fisher information matrices and the scalar
objectives built from them.

The classical matrix is assembled from outcome probabilities and their
parameter derivatives; the quantum matrix from the state and its parameter
derivatives via symmetric logarithmic derivatives in the state's eigenbasis.
``tr_inv`` is the total-variance precision limit and treats a singular matrix
as genuinely divergent (+inf), not as an error.  :data:`OBJECTIVES` holds each
objective's value and its derivative ``dphi/dF``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, SingularContribution
from .operators import dag, validate_density_matrix

__all__ = [
    "EPS_P",
    "OBJECTIVES",
    "FisherMatrix",
    "cfim",
    "objective_f0",
    "objective_fcle",
    "qfim",
    "tr_inv",
    "usable_outcomes",
]

# Outcomes with probability at or below this are excluded from classical
# Fisher sums; a simultaneous non-negligible derivative is flagged instead of
# silently dropped (0/0 contributions occur at symmetry points).
EPS_P = 1e-12


@dataclass(frozen=True)
class FisherMatrix:
    """Finite real symmetric PSD information matrix, classical or quantum."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"information matrix must be square, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise InvariantViolation("information matrix has non-finite entries")
        if np.max(np.abs(mat - mat.T)) > 1e-10:
            raise InvariantViolation("information matrix is not symmetric")
        if mat.shape[0] and np.min(np.linalg.eigvalsh(mat)) < -1e-8:
            raise InvariantViolation("information matrix is not PSD within tolerance")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _as_matrix(f) -> np.ndarray:
    return f.matrix if isinstance(f, FisherMatrix) else np.asarray(f, dtype=float)


def usable_outcomes(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """The mask ``p > EPS_P`` of the outcomes in classical Fisher sums; an
    excluded outcome with a derivative above ``sqrt(EPS_P)`` raises
    :class:`SingularContribution`, since its contribution diverges."""
    usable = p > EPS_P
    for y in np.flatnonzero(~usable):
        worst = np.max(np.abs(dp[:, y]))
        if worst > math.sqrt(EPS_P):
            raise SingularContribution(f"outcome {y} has probability {p[y]:.3e} but derivative "
                                       f"{worst:.3e}; its Fisher contribution diverges")
    return usable


def cfim(p: np.ndarray, dp: np.ndarray) -> FisherMatrix:
    """Classical Fisher information matrix from probabilities and derivatives.

    Parameters
    ----------
    p : (n_outcomes,) array
        Outcome probabilities (clamped, summing to one).
    dp : (n_params, n_outcomes) array
        ``dp[a, y]`` is the derivative of ``p[y]`` w.r.t. parameter a.
    """
    p = np.asarray(p, dtype=float)
    dp = np.atleast_2d(np.asarray(dp, dtype=float))
    if dp.shape[1] != p.shape[0]:
        raise DimensionMismatch("dp columns must match the number of outcomes")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(dp))):
        raise InvariantViolation("probabilities or their derivatives are not finite")
    if np.min(p) < -EPS_P or np.max(p) > 1 + 1e-12:
        raise InvariantViolation("probabilities outside [0, 1]")
    if abs(p.sum() - 1.0) > 1e-9:
        raise InvariantViolation(f"probabilities sum to {p.sum():.12f}, not 1")

    n_par = dp.shape[0]
    f = np.zeros((n_par, n_par))
    for y in np.flatnonzero(usable_outcomes(p, dp)):
        f += np.outer(dp[:, y], dp[:, y]) / p[y]
    return FisherMatrix(0.5 * (f + f.T))


def qfim(rho: np.ndarray, drho) -> FisherMatrix:
    """Quantum Fisher information matrix via symmetric logarithmic derivatives.

    ``drho`` is the ``(n_params, d, d)`` stack of state derivatives (or a
    sequence of them).  In the eigenbasis of ``rho``, ``(L_a)_{mn} = 2
    (drho_a)_{mn} / (lam_m + lam_n)`` on the support (eigenvalue-pair sums
    above ``1e-10 * Tr rho``), zero elsewhere; then ``F_ab = Re Tr(rho (L_a
    L_b + L_b L_a)) / 2``.
    """
    rho = validate_density_matrix(rho, name="state")
    drho = np.asarray(drho, dtype=complex)
    if drho.ndim != 3 or drho.shape[1:] != rho.shape:
        raise DimensionMismatch(f"state derivatives must be a (n, {rho.shape[0]}, "
                                f"{rho.shape[0]}) stack, got shape {drho.shape}")
    if not np.all(np.isfinite(drho)):
        raise InvariantViolation("state derivative contains non-finite entries")
    if np.max(np.abs(drho - drho.conj().transpose(0, 2, 1)), initial=0.0) > 1e-8:
        raise InvariantViolation("state derivative is not Hermitian within 1e-08")
    if np.max(np.abs(np.trace(drho, axis1=1, axis2=2)), initial=0.0) > 1e-8:
        raise InvariantViolation("state derivative is not traceless")

    lam, v = np.linalg.eigh(rho)
    eps_lam = 1e-10 * np.trace(rho).real
    pair_sums = lam[:, None] + lam[None, :]
    support = pair_sums > eps_lam
    slds = np.where(support, 2.0 * (dag(v) @ drho @ v) / np.where(support, pair_sums, 1.0), 0.0)

    # sum_m lam_m (L_a L_b)_mm = sum_mk lam_m (L_a)_mk (L_b)_km
    n_par = slds.shape[0]
    left = (slds * lam[:, None]).reshape(n_par, -1)
    x = (left @ slds.transpose(0, 2, 1).reshape(n_par, -1).T).real
    return FisherMatrix(0.5 * (x + x.T))


def _eig_floor(values: np.ndarray) -> float:
    return max(1e-10 * float(np.max(values, initial=0.0)), 1e-14)


def tr_inv(f) -> float:
    """Total-variance precision limit ``Tr F^{-1}``; +inf when F is singular."""
    mat = _as_matrix(f)
    if np.max(np.abs(mat - mat.T)) > 1e-10:
        raise InvariantViolation("tr_inv needs a symmetric matrix")
    evals = np.linalg.eigvalsh(mat)
    if np.min(evals) < _eig_floor(evals):
        return math.inf
    return float(np.sum(1.0 / evals))


def objective_f0(f) -> float:
    """Harmonic combination of the diagonal: ``(sum_a 1/F_aa)^{-1}``.

    Returns 0 when any diagonal entry is (numerically) zero.
    """
    diag = np.diag(_as_matrix(f))
    if np.min(diag) < -1e-8:
        raise InvariantViolation("negative diagonal entry in information matrix")
    if np.min(diag) <= _eig_floor(diag):
        return 0.0
    return float(1.0 / np.sum(1.0 / diag))


def objective_fcle(f) -> float:
    """Two-parameter objective ``det F / Tr F`` (0 when the trace vanishes)."""
    mat = _as_matrix(f)
    if mat.shape != (2, 2):
        raise DimensionMismatch("det/trace objective is defined for 2x2 matrices only")
    tr = mat[0, 0] + mat[1, 1]
    if tr <= _eig_floor(np.diag(mat)):
        return 0.0
    return float((mat[0, 0] * mat[1, 1] - mat[0, 1] ** 2) / tr)


def _f0_derivative(f) -> np.ndarray:
    diag = np.diag(_as_matrix(f))
    if np.min(diag) <= 0:
        raise InvariantViolation("harmonic objective gradient needs positive diagonal")
    f0 = 1.0 / np.sum(1.0 / diag)
    return np.diag(f0**2 / diag**2)


def _fcle_derivative(f) -> np.ndarray:
    mat = _as_matrix(f)
    if mat.shape != (2, 2):
        raise DimensionMismatch("det/trace objective needs exactly two parameters")
    trf = mat[0, 0] + mat[1, 1]
    if trf <= 0:
        raise InvariantViolation("det/trace objective gradient needs positive trace")
    off = -mat[0, 1] / trf
    return np.array([[(mat[1, 1] ** 2 + mat[0, 1] ** 2) / trf**2, off],
                     [off, (mat[0, 0] ** 2 + mat[0, 1] ** 2) / trf**2]])


# name -> (value, symmetric dphi/dF[a, b]) of the matrix; a new objective is one entry
OBJECTIVES = {
    "f0": (objective_f0, _f0_derivative),
    "fcle": (objective_fcle, _fcle_derivative),
}
