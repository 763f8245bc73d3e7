"""Closed-form reference expressions for the uncontrolled catalog systems:
outcome probabilities, Fisher matrices and precision limits.

These serve as ground truth for the test suite and as the data source of the
``oracle`` CLI subcommand.  Validity notes:

* coupling models ("zz", "xxz"): the free Hamiltonian commutes with the
  dephasing generators (entrywise decay), so the expressions solve the master
  equation exactly; the "xxz" forms additionally assume equal dephasing rates
  on the two qubits wherever a single rate enters.
* field model ("magfield"): the noisy expressions are built from the
  factorized solution (unitary evolution for time T followed by bare
  dephasing for time T).  Drift and dephasing generators do not commute away
  from the poles, so for theta not in {0, pi} these forms approximate the
  exact master-equation solution; they become exact as gamma -> 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvariantViolation
from .fisher import FisherMatrix

__all__ = [
    "oracle_magfield_bell_probs",
    "oracle_magfield_cfim",
    "oracle_magfield_eigenvalues",
    "oracle_magfield_qfim",
    "oracle_xxz_cfim",
    "oracle_xxz_probs",
    "oracle_xxz_qfim_pure",
    "oracle_xxz_trinv",
    "oracle_zz_probs",
    "oracle_zz_qfim_pure",
]

DENOM_FLOOR = 1e-12


def _t_squared(scale: float, t: float) -> float:
    if not math.isfinite(t2 := scale * t * t):  # the forms' prefactor overflows
        raise InvariantViolation(f"the closed form's T^2 prefactor overflows at time {t!r}")
    return t2


def oracle_magfield_bell_probs(b, theta, phi, gamma, t) -> np.ndarray:
    """Entangled-basis outcome probabilities for the uncontrolled field model.

    Order: (Phi+, Phi-, Psi+, Psi-).
    """
    if gamma < 0 or t < 0:
        raise InvariantViolation("gamma and t must be nonnegative")
    e = math.exp(-gamma * t)
    c2, s2 = math.cos(b * t) ** 2, math.sin(b * t) ** 2
    ct2 = math.cos(theta) ** 2
    st2 = math.sin(theta) ** 2
    return np.array([
        0.5 * ((1 + e) * c2 + (1 - e) * s2 * ct2),
        0.5 * ((1 - e) * c2 + (1 + e) * s2 * ct2),
        0.5 * s2 * st2 * (1 + e * math.cos(2 * phi)),
        0.5 * s2 * st2 * (1 - e * math.cos(2 * phi)),
    ])


def oracle_magfield_cfim(b, theta, phi, gamma, t) -> FisherMatrix:
    """Closed-form classical information matrix for the field model.

    Parameter order (B, theta, phi); the (theta, phi) and (B, phi) entries
    vanish identically.
    """
    e2 = math.exp(-2 * gamma * t)
    s, c = math.sin(b * t), math.cos(b * t)
    s2, c2 = s * s, c * c
    st, ct = math.sin(theta), math.cos(theta)
    st2, ct2 = st * st, ct * ct

    den_pp = 1 - e2 * math.cos(2 * phi) ** 2
    den = (c2 + s2 * ct2) ** 2 - e2 * (c2 - s2 * ct2) ** 2
    if abs(den) <= DENOM_FLOOR or abs(den_pp) <= DENOM_FLOOR:
        raise InvariantViolation(
            "closed-form information matrix hit a removable singularity"
        )

    f_pp = 4 * e2 * s2 * st2 * math.sin(2 * phi) ** 2 / den_pp
    f_tt = 4 * s2 * (
        ct2
        + s2 * st2 * ct2 * ((1 + 3 * e2) * c2 + (1 - e2) * s2 * ct2) / den
    )
    f_bb = _t_squared(4, t) * c2 * (
        st2
        + s2 * (
            (st2 ** 2 + e2 * (1 + ct2) ** 2) * (1 - s2 * st2)
            + 2 * e2 * st2 * (1 + ct2) * (-c2 + s2 * ct2)
        ) / den
    )
    f_bt = t * math.sin(2 * b * t) * math.sin(2 * theta) * (
        1
        + s2 * (
            (1 + e2) * c2 * st2
            + (1 - e2) * s2 * ct2 * st2
            - 2 * e2 * c2 * (1 + ct2)
        ) / den
    )
    mat = np.array([
        [f_bb, f_bt, 0.0],
        [f_bt, f_tt, 0.0],
        [0.0, 0.0, f_pp],
    ])
    return FisherMatrix(mat)


def oracle_magfield_qfim(b, theta, phi, gamma, t) -> FisherMatrix:
    """Closed-form quantum information matrix for the field model."""
    e2 = math.exp(-2 * gamma * t)
    s = math.sin(b * t)
    c = math.cos(b * t)
    st, ct = math.sin(theta), math.cos(theta)
    f_bb = _t_squared(4, t) * (ct * ct * e2 + st * st)
    f_tt = 4 * s * s * (ct * ct + st * st * (e2 * c * c + s * s))
    f_pp = 4 * st * st * s * s * (1 - (1 - e2) * st * st * s * s)
    f_bt = (1 - e2) * t * math.sin(2 * b * t) * math.sin(2 * theta)
    f_bp = -2 * (1 - e2) * t * math.sin(2 * theta) * st * s * s
    f_tp = 2 * (1 - e2) * st ** 3 * math.sin(2 * b * t) * s * s
    mat = np.array([
        [f_bb, f_bt, f_bp],
        [f_bt, f_tt, f_tp],
        [f_bp, f_tp, f_pp],
    ])
    return FisherMatrix(mat)


def oracle_magfield_eigenvalues(gamma, t) -> tuple:
    """Nonzero eigenvalues of the factorized noisy field-model state."""
    e = math.exp(-gamma * t)
    return (0.5 * (1 - e), 0.5 * (1 + e))


def oracle_zz_probs(omega1, omega2, g, gamma1, gamma2, t) -> np.ndarray:
    """Local-measurement probabilities for the uncontrolled diagonal-coupling
    model with probe |++>.

    Order: (++, +-, -+, --).
    """
    e1 = math.exp(-gamma1 * t)
    e2 = math.exp(-gamma2 * t)
    e12 = math.exp(-(gamma1 + gamma2) * t)
    cg = math.cos(2 * g * t)
    c1 = math.cos(2 * omega1 * t)
    c2 = math.cos(2 * omega2 * t)
    return 0.25 * np.array([
        1 + e1 * cg * c1 + e2 * cg * c2 + e12 * c1 * c2,
        1 + e1 * cg * c1 - e2 * cg * c2 - e12 * c1 * c2,
        1 - e1 * cg * c1 + e2 * cg * c2 - e12 * c1 * c2,
        1 - e1 * cg * c1 - e2 * cg * c2 + e12 * c1 * c2,
    ])


def oracle_zz_qfim_pure(z1, z2, zz, t) -> FisherMatrix:
    """Pure-state quantum information matrix for the diagonal-coupling model,
    from the probe expectations of the three commuting generators.

    ``z1``, ``z2``, ``zz`` are the probe expectation values of sigma_3 on
    qubit 1, sigma_3 on qubit 2 and their product.
    """
    t2 = _t_squared(4, t)
    mat = t2 * np.array([
        [1 - z1 * z1, zz - z1 * z2, z2 - z1 * zz],
        [zz - z1 * z2, 1 - z2 * z2, z1 - z2 * zz],
        [z2 - z1 * zz, z1 - z2 * zz, 1 - zz * zz],
    ])
    return FisherMatrix(mat)


def oracle_xxz_probs(x1, x2, gamma1, gamma2, t) -> np.ndarray:
    """Local-measurement probabilities for the uncontrolled exchange model
    with the optimal probe; exact for equal dephasing rates.

    Order: (++, +-, -+, --).
    """
    e1 = math.exp(-gamma1 * t)
    e2 = math.exp(-gamma2 * t)
    s1c2 = math.sin(2 * x1 * t) * math.cos(2 * x2 * t)
    c1s2 = math.cos(2 * x1 * t) * math.sin(2 * x2 * t)
    return 0.25 * np.array([
        1 - s1c2 * e1 + c1s2 * e2,
        1 - s1c2 * e1 - c1s2 * e2,
        1 + s1c2 * e1 + c1s2 * e2,
        1 + s1c2 * e1 - c1s2 * e2,
    ])


def _delta_pm(x1, x2, gamma, t, sign) -> float:
    # c^2 / (e^{2 gamma t} - s^2), written with e^{-2 gamma t} so that it
    # cannot overflow at long times
    arg = 2 * t * (x1 + sign * x2)
    e = math.exp(-2 * gamma * t)
    den = 1 - math.sin(arg) ** 2 * e
    if den <= DENOM_FLOOR:
        raise InvariantViolation("exchange-model denominator hit zero")
    return math.cos(arg) ** 2 * e / den


def oracle_xxz_cfim(x1, x2, gamma, t) -> FisherMatrix:
    """Closed-form classical information matrix for the exchange model under
    equal dephasing rates.
    """
    dp = _delta_pm(x1, x2, gamma, t, +1)
    dm = _delta_pm(x1, x2, gamma, t, -1)
    t2 = _t_squared(2, t)
    mat = t2 * np.array([[dp + dm, dp - dm], [dp - dm, dp + dm]])
    return FisherMatrix(mat)


def oracle_xxz_trinv(x1, x2, gamma, t) -> float:
    """Precision limit ``(1/4T^2)(1/delta_+ + 1/delta_-)``; +inf where either
    coefficient vanishes."""
    dp = _delta_pm(x1, x2, gamma, t, +1)
    dm = _delta_pm(x1, x2, gamma, t, -1)
    if dp <= DENOM_FLOOR or dm <= DENOM_FLOOR:
        return math.inf
    return (1.0 / dp + 1.0 / dm) / _t_squared(4, t)


def oracle_xxz_qfim_pure(zz, xy, t) -> FisherMatrix:
    """Pure-state quantum information matrix for the exchange model from the
    probe expectations ``zz`` of sigma_3 sigma_3 and ``xy`` of
    sigma_1 sigma_1 + sigma_2 sigma_2.
    """
    t2 = _t_squared(4, t)
    f11 = t2 * (2 - 2 * zz - xy * xy)
    f22 = t2 * (1 - zz * zz)
    f12 = -t2 * xy * (1 + zz)
    return FisherMatrix(np.array([[f11, f12], [f12, f22]]))
