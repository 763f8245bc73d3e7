"""Open-system dynamics over a piecewise-constant control grid.

The generator of the evolution is ``L(rho) = -i[H, rho] + sum_c (gamma_c/2)
(A_c rho A_c - rho)`` with involutory Hermitian dephasing bases ``A_c``.  It is
affine in the control amplitudes: step j has ``L_j = L0(x) + sum_k V_k(j) C_k``
with ``L0(x)`` the generator of the free Hamiltonian and ``C_k = -i ad(H_k)``.
All m step generators are built as one ``(m, d^2, d^2)`` stack
(:func:`step_liouvillians`) and exponentiated together by :func:`expm_stack`,
the scaling-and-squaring Pade method of Higham (SIAM J. Matrix Anal. Appl. 26,
1179 (2005)) over fixed-size chunks of the stack.  Noiseless steps take the
spectral form ``exp(dt L) = U kron conj(U)`` from one stacked ``eigh``, and a
grid whose steps are all equal is exponentiated once and broadcast.

The state is advanced step by step as ``rho_j = exp(dt L_j) rho_{j-1}``, and
the parameter derivatives of the state are carried along exactly: the
per-step derivative of the exponential in direction ``dt dL_a`` is the
Frechet derivative of the same Pade approximant (Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 30, 1639 (2009)), computed by :func:`expm_stack` in the
pass that exponentiates the step generators and exact to machine precision
for piecewise-constant generators.  The finite-difference gradient checks
(acceptance criterion C3) compare against these derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    PropagationError,
)
from .operators import (
    Povm,
    Superoperator,
    commutator_superop,
    sandwich_superop,
    validate_density_matrix,
    validate_hermitian,
    vec,
)

__all__ = [
    "ControlGrid",
    "NoiseSpec",
    "Trajectory",
    "build_liouvillian",
    "expm_stack",
    "measure",
    "measure_derivs",
    "propagate",
    "step_hamiltonians",
    "step_liouvillians",
]

TRACE_DRIFT_ABORT = 1e-6
PROB_CLAMP_FLOOR = -1e-12

# Pade coefficients b_0..b_m and the 1-norm bounds theta_m below which the
# degree-m approximant of exp is accurate to unit roundoff (Higham 2005,
# Table 2.3).
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_PADE_THETA_13 = 5.371920351148152e0
# Matrices per kernel pass: bounds the Pade temporaries whatever the stack
# length, and keeps each product small.
EXPM_CHUNK = 16


@dataclass(frozen=True)
class NoiseSpec:
    """Dephasing channels ``(gamma/2)(A rho A - rho)`` with A Hermitian, A^2 = 1."""

    channels: tuple = ()

    def __post_init__(self):
        for a, rate in self.channels:
            if rate < 0:
                raise InvariantViolation(f"negative dephasing rate {rate}")
            a = validate_hermitian(a, atol=1e-10, name="jump basis")
            if np.max(np.abs(a @ a - np.eye(a.shape[0]))) > 1e-10:
                raise InvariantViolation("jump basis is not involutory (A^2 != 1)")

    @staticmethod
    def none() -> "NoiseSpec":
        return NoiseSpec(())

    @staticmethod
    def dephasing(pairs) -> "NoiseSpec":
        """Build from an iterable of (basis operator, rate) pairs."""
        return NoiseSpec(tuple((np.asarray(a, dtype=complex), float(g)) for a, g in pairs))

    def __bool__(self) -> bool:
        return any(rate > 0 for _, rate in self.channels)


@dataclass(frozen=True)
class ControlGrid:
    """Piecewise-constant control amplitudes: ``num_fields`` x ``num_steps``."""

    num_fields: int
    num_steps: int
    total_time: float
    amplitudes: np.ndarray
    amplitude_bound: float | None = None

    def __post_init__(self):
        if self.num_fields < 1 or self.num_steps < 1:
            raise InvariantViolation("control grid needs >= 1 field and >= 1 step")
        if not self.total_time > 0:
            raise InvariantViolation("total_time must be positive")
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.shape != (self.num_fields, self.num_steps):
            raise DimensionMismatch(
                f"amplitudes shape {amps.shape} != ({self.num_fields}, {self.num_steps})"
            )
        if not np.all(np.isfinite(amps)):
            raise InvariantViolation("control amplitudes must be finite")
        if self.amplitude_bound is not None and np.max(np.abs(amps)) > self.amplitude_bound:
            raise InvariantViolation(
                f"amplitudes exceed the configured bound {self.amplitude_bound}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dt(self) -> float:
        return self.total_time / self.num_steps

    @staticmethod
    def zeros(num_fields: int, num_steps: int, total_time: float,
              amplitude_bound: float | None = None) -> "ControlGrid":
        return ControlGrid(num_fields, num_steps, total_time,
                           np.zeros((num_fields, num_steps)), amplitude_bound)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "ControlGrid":
        return ControlGrid(self.num_fields, self.num_steps, self.total_time,
                           amplitudes, self.amplitude_bound)


@dataclass(frozen=True)
class Trajectory:
    """States, per-step propagators and state derivatives along the grid.

    ``states[j]`` is the state after j steps (``states[0]`` is the probe),
    ``segment_propagators[j-1]`` (an (m, d^2, d^2) stack, read-only) maps
    ``states[j-1]`` to ``states[j]``, and
    ``param_derivs[a][j]`` is the derivative of ``states[j]`` with respect to
    the a-th model parameter (None when derivatives were not requested).
    """

    model: object
    x: np.ndarray
    controls: ControlGrid
    states: tuple
    segment_propagators: np.ndarray
    param_derivs: np.ndarray | None
    deriv_method: str | None
    dt: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dt", self.controls.dt)

    @property
    def num_steps(self) -> int:
        return len(self.segment_propagators)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_derivs(self) -> np.ndarray:
        if self.param_derivs is None:
            raise InvariantViolation("trajectory was propagated without derivatives")
        return self.param_derivs[:, -1]


def build_liouvillian(h: np.ndarray, noise: NoiseSpec) -> Superoperator:
    """Generator ``rho -> -i[H, rho] + sum_c (gamma_c/2)(A_c rho A_c - rho)``."""
    h = validate_hermitian(h, atol=1e-10, name="Hamiltonian")
    d = h.shape[0]
    lmat = -1j * commutator_superop(h).mat
    eye = np.eye(d * d, dtype=complex)
    for a, rate in noise.channels:
        if a.shape[0] != d:
            raise DimensionMismatch("jump basis dimension does not match Hamiltonian")
        lmat = lmat + 0.5 * rate * (sandwich_superop(a).mat - eye)
    return Superoperator(d, lmat)


def _check_fields(model, controls: ControlGrid) -> None:
    if controls.num_fields != len(model.control_hams):
        raise DimensionMismatch(
            f"{controls.num_fields} control fields vs "
            f"{len(model.control_hams)} control Hamiltonians"
        )


def step_hamiltonians(model, x, controls: ControlGrid) -> np.ndarray:
    """Total Hamiltonians ``H0(x) + sum_k V_k(j) H_k`` as one (m, d, d) stack."""
    _check_fields(model, controls)
    h0 = model.h0(np.asarray(x, dtype=float))
    hams = np.broadcast_to(h0, (controls.num_steps,) + h0.shape)
    for amps, hk in zip(controls.amplitudes, model.control_hams):
        hams = hams + amps[:, None, None] * hk
    return hams


def step_liouvillians(model, x, controls: ControlGrid) -> np.ndarray:
    """Step generators ``L_j = L0(x) + sum_k V_k(j) C_k`` as one (m, d^2, d^2) stack.

    ``L0(x)`` is :func:`build_liouvillian` of the free Hamiltonian, built (and
    validated) once per call; ``C_k = -i ad(H_k)`` is the direction of control
    field k.
    """
    _check_fields(model, controls)
    l0 = build_liouvillian(model.h0(np.asarray(x, dtype=float)), model.noise).mat
    gens = np.broadcast_to(l0, (controls.num_steps,) + l0.shape)
    for amps, ck in zip(controls.amplitudes, model.control_comms):
        gens = gens + amps[:, None, None] * (-1j * ck)
    return gens


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # X_a @ Y_i for every block of x = [X_1 | ... | X_p] (..., n, p*n)
    n = y.shape[-1]
    return (x.reshape(x.shape[:-2] + (-1, n)) @ y).reshape(len(y), n, -1)


def _expm_chunk(a: np.ndarray, e: np.ndarray | None = None):
    # One scaling-and-squaring pass over a (k, n, n) chunk: the lowest Pade
    # degree whose theta bounds the chunk's largest 1-norm, else degree 13
    # after scaling by 2^-s, then s squarings.  Given directions side by side,
    # e = [E_1 | ... | E_p] (n, p*n), the Frechet derivatives L(A_i, E_a) of
    # the same approximant are carried along, side by side as well (Al-Mohy &
    # Higham 2009, Alg. 6.4): mX is the derivative of the power aX and lw/lu/lv
    # those of w/u/v.  They never change the operations that produce exp(A_i).
    eta = float(np.abs(a).sum(axis=-2).max())
    if not np.isfinite(eta):
        raise PropagationError("matrix exponential of a non-finite generator")
    m = next((m for m, theta in _PADE_THETA if eta <= theta), 13)
    b = _PADE_COEFFS[m]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    s = 0
    if m == 13:
        s = max(0, int(np.ceil(np.log2(eta / _PADE_THETA_13))))
        a = a * 2.0**-s
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        w1 = b[13] * a6 + b[11] * a4 + b[9] * a2
        w = a6 @ w1 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        u = a @ w
        z1 = b[12] * a6 + b[10] * a4 + b[8] * a2
        v = a6 @ z1 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        if e is not None:
            e = e * 2.0**-s
            m2 = a @ e + _times(e, a)
            m4 = a2 @ m2 + _times(m2, a2)
            m6 = a4 @ m2 + _times(m4, a2)
            lw = (a6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2) + _times(m6, w1)
                  + b[7] * m6 + b[5] * m4 + b[3] * m2)
            lu = a @ lw + _times(e, w)
            lv = (a6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + _times(m6, z1)
                  + b[6] * m6 + b[4] * m4 + b[2] * m2)
    else:
        a2 = a @ a
        power = a2
        u = b[1] * eye + b[3] * a2
        v = b[0] * eye + b[2] * a2
        if e is not None:
            m2 = a @ e + _times(e, a)
            mpow = m2
            lw = b[3] * m2
            lv = b[2] * m2
        for i in range(4, m + 1, 2):
            if e is not None:
                mpow = power @ m2 + _times(mpow, a2)
                lw = lw + b[i + 1] * mpow
                lv = lv + b[i] * mpow
            power = power @ a2
            u = u + b[i + 1] * power
            v = v + b[i] * power
        if e is not None:
            lu = a @ lw + _times(e, u)
        u = a @ u
    r = np.linalg.solve(v - u, v + u)
    if e is None:
        for _ in range(s):
            r = r @ r
        return r
    # one solve with V - U for all directions: their right-hand sides sit
    # side by side
    lmat = np.linalg.solve(v - u, (lu + lv) + _times(lu - lv, r))
    for _ in range(s):
        lmat = r @ lmat + _times(lmat, r)
        r = r @ r
    return r, lmat


def expm_stack(a: np.ndarray, directions: np.ndarray | None = None):
    """``exp(A_i)`` for every matrix of a ``(k, n, n)`` stack.

    Scaling-and-squaring Pade method of Higham (SIAM J. Matrix Anal. Appl. 26,
    1179 (2005)) over chunks of :data:`EXPM_CHUNK` matrices, each chunk in a
    few stacked ``matmul``/``solve`` calls.  Given a ``(p, n, n)`` stack of
    ``directions`` E_a, it returns ``(exp(A_i), L(A_i, E_a))``, the second of
    shape ``(k, p, n, n)``: the Frechet derivatives of the same approximant
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639 (2009)), computed
    in the same pass, with the exponentials bit-identical to the call without
    directions.
    """
    a = np.asarray(a, dtype=complex)
    k, n = a.shape[:2]
    out = np.empty(a.shape, dtype=complex)
    if directions is None:
        for lo in range(0, k, EXPM_CHUNK):
            out[lo:lo + EXPM_CHUNK] = _expm_chunk(a[lo:lo + EXPM_CHUNK])
        return out
    e = np.asarray(directions, dtype=complex)
    p = len(e)
    side = e.transpose(1, 0, 2).reshape(n, p * n)
    frechet = np.empty((k, p, n, n), dtype=complex)
    for lo in range(0, k, EXPM_CHUNK):
        out[lo:lo + EXPM_CHUNK], lmat = _expm_chunk(a[lo:lo + EXPM_CHUNK], side)
        frechet[lo:lo + EXPM_CHUNK] = lmat.reshape(-1, n, p, n).transpose(0, 2, 1, 3)
    return out, frechet


def _spectral_propagators(hams: np.ndarray, tau: float) -> np.ndarray:
    # Exponential of a purely Hamiltonian (normal) generator for each step:
    # exp(tau L) = U kron conj(U) with U = exp(-i tau H).
    evals, evecs = np.linalg.eigh(hams)
    u = (evecs * np.exp(-1j * tau * evals)[:, None, :]) @ np.conj(evecs.swapaxes(1, 2))
    k, d = u.shape[:2]
    kron = u[:, :, None, :, None] * np.conj(u)[:, None, :, None, :]
    return kron.reshape(k, d * d, d * d)


def _distinct_steps(controls: ControlGrid) -> ControlGrid:
    """The grid itself, or its first step alone when all steps are equal.

    Propagators of a uniform grid are computed once and broadcast.
    """
    amps = controls.amplitudes
    if controls.num_steps > 1 and np.all(amps == amps[:, :1]):
        return ControlGrid(controls.num_fields, 1, controls.dt, amps[:, :1])
    return controls


def _step_propagators(model, x, steps: ControlGrid, tau: float) -> np.ndarray:
    """``exp(tau L_j)`` for every step of ``steps`` as one stack."""
    if not model.noise:
        return _spectral_propagators(step_hamiltonians(model, x, steps), tau)
    return expm_stack(tau * step_liouvillians(model, x, steps))


def propagate(model, x, controls: ControlGrid, probe: np.ndarray | None = None,
              deriv_method: str | None = "exact") -> Trajectory:
    """Evolve the probe through every control step, tracking derivatives.

    Parameters
    ----------
    model : ParametricModel
        Supplies ``h0``, ``dh0``, ``control_hams`` and ``noise``.
    x : array_like
        Parameter point at which the dynamics is linearized.
    controls : ControlGrid
    probe : ndarray, optional
        Initial state; defaults to the model's probe.
    deriv_method : {"exact", None}
        Whether parameter derivatives of the state are propagated (None skips
        them entirely).
    """
    if deriv_method not in ("exact", None):
        raise InvariantViolation(f"unknown deriv_method {deriv_method!r}")
    x = np.asarray(x, dtype=float)
    if probe is None:
        probe = model.default_probe
    probe = validate_density_matrix(probe, name="probe")
    if probe.shape[0] != model.dim:
        raise DimensionMismatch("probe dimension does not match the model")

    d = model.dim
    dt = controls.dt
    m = controls.num_steps
    n_par = len(model.param_names)
    derivs_wanted = deriv_method is not None

    steps = _distinct_steps(controls)
    if derivs_wanted:
        # the step exponentials and their exact parameter derivatives
        # L(dt L_j, dt dL_a) come from one kernel pass; noiseless steps keep
        # their spectral exponentials
        dl_mats = np.stack([-1j * commutator_superop(dh).mat for dh in model.dh0(x)])
        segs, dsegs = expm_stack(dt * step_liouvillians(model, x, steps), dt * dl_mats)
        if not model.noise:
            segs = _spectral_propagators(step_hamiltonians(model, x, steps), dt)
        dsegs = np.broadcast_to(dsegs, (m,) + dsegs.shape[1:])
    else:
        segs = _step_propagators(model, x, steps, dt)
    if not np.all(np.isfinite(segs)):
        raise PropagationError(f"step propagators are not finite (dt={dt:.3g})")
    segs = np.broadcast_to(segs, (m,) + segs.shape[1:])

    rho_v = vec(probe)
    states = [probe]
    drho_v = np.zeros((n_par, d * d), dtype=complex) if derivs_wanted else None
    derivs = [np.zeros((n_par, d, d), dtype=complex)] if derivs_wanted else None

    for j in range(m):
        prev_v = rho_v
        rho_v = segs[j] @ rho_v
        tr = np.sum(rho_v.reshape(d, d).diagonal())
        if not np.isfinite(tr.real) or abs(tr - 1.0) > TRACE_DRIFT_ABORT:
            raise PropagationError(
                f"trace drifted to {tr:.6g} at step {j + 1} of {m} "
                f"(dt={dt:.3g}); propagation aborted"
            )
        states.append(rho_v.reshape(d, d))
        if derivs_wanted:
            drho_v = drho_v @ segs[j].T + dsegs[j] @ prev_v
            derivs.append(drho_v.reshape(n_par, d, d))

    param_derivs = np.stack(derivs, axis=1) if derivs_wanted else None
    return Trajectory(
        model=model,
        x=x,
        controls=controls,
        states=tuple(states),
        segment_propagators=segs,
        param_derivs=param_derivs,
        deriv_method=deriv_method,
    )


def measure(rho: np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome probabilities ``p_y = Tr(rho E_y)``, clamped to [0, 1]."""
    if rho.shape[0] != povm.dim:
        raise DimensionMismatch("state and POVM dimensions differ")
    p = np.array([np.trace(rho @ e).real for e in povm.effects])
    if np.min(p) < PROB_CLAMP_FLOOR:
        raise PropagationError(
            f"probability {np.min(p):.3e} below clamp floor; propagation is broken"
        )
    p = np.clip(p, 0.0, 1.0)
    if abs(np.sum(p) - 1.0) > 1e-9:
        raise InvariantViolation(f"probabilities sum to {np.sum(p):.12f}, not 1")
    return p


def measure_derivs(trajectory: Trajectory, povm: Povm):
    """Final-state probabilities and their parameter derivatives.

    Returns ``(p, dp)`` with ``dp[a, y] = Tr(drho_a E_y)``.
    """
    p = measure(trajectory.final_state, povm)
    drho = trajectory.final_derivs
    dp = np.array([[np.trace(dr @ e).real for e in povm.effects] for dr in drho])
    if np.max(np.abs(dp.sum(axis=1))) > 1e-8:
        raise InvariantViolation("probability derivatives do not sum to zero")
    return p, dp
