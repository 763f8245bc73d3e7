"""Open-system dynamics over a piecewise-constant control grid.

The generator of the evolution is ``L(rho) = -i[H, rho] + sum_c (gamma_c/2)
(A_c rho A_c - rho)`` with involutory Hermitian dephasing bases ``A_c``.  It is
affine in the control amplitudes: step j has ``L_j = L0(x) + sum_k V_k(j) C_k``
with ``L0(x)`` the generator of the free Hamiltonian and ``C_k = -i ad(H_k)``.

Propagation runs in the real coordinates of the orthonormal Hermitian basis
of :func:`~fisherctl.operators.hermitian_basis`: every generator, propagator
and state below is a real array, and only :func:`build_liouvillian` (public,
row-major ``vec``) and the ``states``/``param_derivs`` of a
:class:`Trajectory` are complex.  All m step generators are built as one
real ``(m, d^2, d^2)`` stack (:func:`step_liouvillians`) and exponentiated
together by :func:`expm_stack`, the scaling-and-squaring Pade method of
Higham (SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) over fixed-size chunks of
the stack.  Noiseless steps take the spectral form ``exp(dt L) = U kron
conj(U)`` from one stacked ``eigh``, changed to the basis once per step, and a
grid whose steps are all equal is exponentiated once and broadcast.

The state is advanced step by step as ``rho_j = exp(dt L_j) rho_{j-1}``, and
the parameter derivatives of the state are carried along exactly as
``drho_j = exp(dt L_j) drho_{j-1} + f_j``.  The source ``f_j`` is the
derivative of step j's exponential in direction ``dt dL_a`` applied to
``rho_{j-1}``; it is computed as an action on the stored states, never as a
per-step derivative matrix.  Noisy steps apply the Frechet derivative of the
same Pade approximant (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639
(2009)) to the states (:func:`_frechet_action`).  Noiseless steps
differentiate ``U = exp(-i dt H)`` by the Daleckii-Krein formula on the
spectral decomposition that already gives U (:func:`_daleckii_krein`).  Both
are exact to machine precision for piecewise-constant generators, and the
finite-difference gradient checks (acceptance criterion C3) compare against
them.
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
    _ad,
    basis_coords,
    basis_operators,
    hermitian_basis,
    validate_density_matrix,
    validate_hermitian,
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
# Eigenvalues of a propagated state at or below this are rounding (at most
# 1.5e-14 on the catalog models after 5000 noiseless steps) and carry no
# probability.
STATE_EIG_FLOOR = 1e-13

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
# length, and keeps each product small (below OpenBLAS's threading threshold
# of 65536 multiply-adds for 16 x 16 generators).
EXPM_CHUNK = 16


@dataclass(frozen=True)
class NoiseSpec:
    """Dephasing channels ``(gamma/2)(A rho A - rho)`` with A Hermitian, A^2 = 1."""

    channels: tuple = ()

    def __post_init__(self):
        for a, rate in self.channels:
            if not np.isfinite(rate):
                raise InvariantViolation(f"non-finite dephasing rate {rate}")
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


def check_probe(probe, dim: int) -> np.ndarray:
    """Check a probe state: a density matrix of dimension ``dim``."""
    probe = validate_density_matrix(probe, name="probe")
    if probe.shape[0] != dim:
        raise DimensionMismatch("probe dimension does not match the model")
    return probe


def check_amplitude_bound(bound: float | None) -> None:
    """Refuse an amplitude bound that is not None, positive and finite."""
    if bound is not None and not 0 < bound < np.inf:
        raise InvariantViolation(f"amplitude_bound must be positive and finite, got {bound}")


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
        check_amplitude_bound(self.amplitude_bound)
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

    ``coords`` is the read-only (m+1, d^2) real stack of state coordinates in
    the Hermitian basis (:func:`~fisherctl.operators.hermitian_basis`):
    ``coords[j]`` is the state after j steps (``coords[0]`` is the probe).
    ``segment_propagators[j-1]`` (an (m, d^2, d^2) real stack, read-only) maps
    ``coords[j-1]`` to ``coords[j]``, and ``deriv_coords[a][j]`` is the
    derivative of ``coords[j]`` with respect to the a-th model parameter
    (None when derivatives were not requested).  ``states`` and
    ``param_derivs`` are the same as read-only (..., d, d) complex Hermitian
    matrices, built from the coordinates by one product each.
    """

    model: object
    x: np.ndarray
    controls: ControlGrid
    coords: np.ndarray
    segment_propagators: np.ndarray
    deriv_coords: np.ndarray | None
    states: np.ndarray
    param_derivs: np.ndarray | None
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


def build_liouvillian(h: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """The (d^2, d^2) row-major ``vec`` matrix of the generator ``rho -> -i[H,
    rho] + sum_c (gamma_c/2)(A_c rho A_c - rho)``."""
    return _liouvillian(validate_hermitian(h), noise)


def _liouvillian(h: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    # build_liouvillian for an already checked H (NoiseSpec checks its bases)
    lmat = -1j * _ad(h)
    d = h.shape[0]
    eye = np.eye(d * d, dtype=complex)
    for a, rate in noise.channels:
        if a.shape[0] != d:
            raise DimensionMismatch("jump basis dimension does not match Hamiltonian")
        lmat = lmat + 0.5 * rate * (np.kron(a, a.T) - eye)
    return lmat


def _step_stack(free: np.ndarray, directions: np.ndarray, controls: ControlGrid) -> np.ndarray:
    """``free + sum_k V_k(j) directions_k`` for every step j as one (m, ...) stack.

    One ``(k, p+1) @ (p+1, size)`` product per :data:`EXPM_CHUNK` steps, with
    ``free`` as the row of a unit coefficient.
    """
    if controls.num_fields != len(directions):
        raise DimensionMismatch(
            f"{controls.num_fields} control fields vs {len(directions)} control Hamiltonians"
        )
    m = controls.num_steps
    ops = np.concatenate([free.reshape(1, -1), directions.reshape(len(directions), -1)])
    coeffs = np.concatenate([np.ones((m, 1)), controls.amplitudes.T], axis=1)
    stack = np.empty((m, ops.shape[1]), dtype=ops.dtype)
    for lo in range(0, m, EXPM_CHUNK):
        np.matmul(coeffs[lo:lo + EXPM_CHUNK], ops, out=stack[lo:lo + EXPM_CHUNK])
    return stack.reshape((m,) + free.shape)


def step_hamiltonians(model, x, controls: ControlGrid) -> np.ndarray:
    """Total Hamiltonians ``H0(x) + sum_k V_k(j) H_k`` as one (m, d, d) stack."""
    return _step_stack(model.at(x).h0, model.control_stack, controls)


def step_liouvillians(model, x, controls: ControlGrid) -> np.ndarray:
    """Step generators ``L_j = L0(x) + sum_k V_k(j) C_k`` as one real
    (m, d^2, d^2) stack in the Hermitian basis.

    ``L0(x)`` is :func:`build_liouvillian` of the free Hamiltonian and ``C_k =
    -i ad(H_k)`` the direction of control field k, both kept by the model in
    the basis (per point and per model).
    """
    return _step_stack(model.at(x).l0, model.control_dirs, controls)


def _pade_order(a: np.ndarray):
    # The lowest Pade degree m whose theta bounds the largest 1-norm eta of a
    # (k, n, n) chunk, else degree 13 after scaling by 2^-s; returns (m, s).
    eta = float(np.abs(a).sum(axis=-2).max())
    if not np.isfinite(eta):
        raise PropagationError("matrix exponential of a non-finite generator")
    m = next((m for m, theta in _PADE_THETA if eta <= theta), 13)
    if m < 13:
        return m, 0
    return m, max(0, int(np.ceil(np.log2(eta / _PADE_THETA_13))))


def _pade(a: np.ndarray, m: int, s: int):
    # Numerator parts of the degree-m approximant of a (k, n, n) stack scaled
    # by 2^-s: returns (b, scaled a, u, v) with r(a) = (v - u)^-1 (v + u)
    # and exp(A_i) ~ r(a_i)^(2^s).
    b = _PADE_COEFFS[m]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    if m == 13:
        a = a * 2.0**-s
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        w1 = b[13] * a6 + b[11] * a4 + b[9] * a2
        u = a @ (a6 @ w1 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        z1 = b[12] * a6 + b[10] * a4 + b[8] * a2
        v = a6 @ z1 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        return b, a, u, v
    a2 = a @ a
    power = a2
    u = b[1] * eye + b[3] * a2
    v = b[0] * eye + b[2] * a2
    for i in range(4, m + 1, 2):
        power = power @ a2
        u = u + b[i + 1] * power
        v = v + b[i] * power
    return b, a, a @ u, v


def _expm_chunk(a: np.ndarray) -> np.ndarray:
    # One scaling-and-squaring pass over a (k, n, n) chunk.
    m, s = _pade_order(a)
    _, a, u, v = _pade(a, m, s)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def expm_stack(a: np.ndarray) -> np.ndarray:
    """``exp(A_i)`` for every matrix of a ``(k, n, n)`` stack.

    Scaling-and-squaring Pade method of Higham (SIAM J. Matrix Anal. Appl. 26,
    1179 (2005)) over chunks of :data:`EXPM_CHUNK` matrices, each chunk in a
    few stacked ``matmul``/``solve`` calls.  A real stack stays real and a
    complex one complex.  Derivatives of the exponentials are never formed as
    matrices: :func:`propagate` applies them to the states
    (:func:`_frechet_action`).
    """
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        a = a.astype(float, copy=False)
    out = np.empty(a.shape, dtype=a.dtype)
    for lo in range(0, len(a), EXPM_CHUNK):
        out[lo:lo + EXPM_CHUNK] = _expm_chunk(a[lo:lo + EXPM_CHUNK])
    return out


def _frechet_action_chunk(a, e, w, ew):
    # L(A_i, E_a) w_i for one chunk of generators, or for the one generator
    # of a uniform grid shared by every state: the Frechet derivative of the
    # approximant that exp(A_i) took, applied to vectors (Al-Mohy & Higham
    # 2009 for the algebra).  w and ew = exp(A_i) w_i are (k, n); returns
    # (k, p, n).  Every product is a stack of small per-step ones, none large
    # enough to wake OpenBLAS's worker threads.
    deg, s = _pade_order(a)
    b, a, u, v = _pade(a, deg, s)
    w, ew = w[..., None], ew[..., None]
    if s:
        # exp(A) ~ r^N, N = 2^s: L(A, E) w = sum_i r^(N-1-i) L_r(a, E/N) z_i
        # over the sub-step vectors z_i = r^i w, side by side
        e = e * 2.0**-s
        r = np.linalg.solve(v - u, v + u)
        z = [w]
        for _ in range(2**s):
            z.append(r @ z[-1])
        w, ew = np.concatenate(z[:-1], axis=-1), np.concatenate(z[1:], axis=-1)
    # With r = (v - u)^-1 (v + u) and ew = r w:  L_r w = (v - u)^-1 (dU y+ +
    # dV y-), y+- = w +- ew, the odd Pade terms on y+ and the even on y-.
    # The derivative of sum_i b_i a^i applied to Y_i is sum_l a^l E q_l with
    # q_{l-1} = a q_l + b_l Y_l, q_{m-1} = b_m Y_m: one descending pass, which
    # applies [a; E_1; ...; E_p] to q_l and sums g = a g + E q_l.
    k, n, cols = w.shape
    p = len(e)
    y = (w + ew, w - ew)
    # rows (i, a) of the E part: its product is g's (n, p*cols) layout as is
    ops = np.concatenate([a, np.broadcast_to(e.transpose(1, 0, 2).reshape(n * p, n),
                                             (len(a), n * p, n))], axis=1)
    q = b[deg] * y[(deg + 1) % 2]
    for l in range(deg - 1, -1, -1):
        both = ops @ q
        eq = both[:, n:].reshape(k, n, p * cols)
        g = eq if l == deg - 1 else a @ g + eq
        q = both[:, :n] + b[l] * y[(l + 1) % 2]
    # a generator shared by every state (a uniform grid) is inverted once
    g = np.linalg.inv(v - u) @ g if len(a) < k else np.linalg.solve(v - u, g)
    if s:
        subs = g.reshape(k, n, p, cols)
        g = subs[..., 0]
        for i in range(1, cols):
            g = r @ g + subs[..., i]
    return g.reshape(k, n, p).transpose(0, 2, 1)


def _frechet_action(a: np.ndarray, directions: np.ndarray, w: np.ndarray,
                    ew: np.ndarray) -> np.ndarray:
    """``L(A_j, E_a) w_j`` for every state w_j, never forming ``L(A_j, E_a)``.

    The Frechet derivative of the same Pade approximant as :func:`expm_stack`,
    applied to vectors (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639
    (2009)), chunk by chunk with the same degree and scaling.  ``a`` is the
    ``(m, n, n)`` stack of generators, or ``(1, n, n)`` for a uniform grid
    whose states all share one step; ``w`` and ``ew = exp(A_j) w_j`` are
    ``(m, n)``.  Returns ``(m, p, n)`` for the ``(p, n, n)`` directions.
    """
    e = np.asarray(directions)
    out = np.empty((len(w), len(e), w.shape[1]), dtype=np.result_type(a, e, w, float))
    shared = len(a) == 1
    # a shared generator takes its states in blocks that bound the temporaries
    step = EXPM_CHUNK * EXPM_CHUNK if shared else EXPM_CHUNK
    for lo in range(0, len(w), step):
        rows = slice(lo, lo + step)
        out[rows] = _frechet_action_chunk(a if shared else a[rows], e, w[rows], ew[rows])
    return out


def _unitaries(hams: np.ndarray, tau: float):
    # U = exp(-i tau H) = V e^{-i tau Lambda} V^dagger for every step from one
    # stacked eigh; returns (U, Lambda, V).
    evals, evecs = np.linalg.eigh(hams)
    u = (evecs * np.exp(-1j * tau * evals)[:, None, :]) @ np.conj(evecs.swapaxes(1, 2))
    return u, evals, evecs


def _transfer(u: np.ndarray) -> np.ndarray:
    """``R_ij = Tr(B_i U B_j U^dagger)`` for every unitary of a (k, d, d)
    stack: the real transfer matrix of ``rho -> U rho U^dagger`` in the basis.

    Per chunk of :data:`EXPM_CHUNK` steps: ``U B_j`` for every j as one
    product, times ``U^dagger`` step by step, then the coordinates of every
    column ``U B_j U^dagger`` as one product.  Three quarters of the flops of
    ``T^dagger (U kron conj(U)) T``, with no Kronecker product formed.
    """
    k, d = u.shape[:2]
    d2 = d * d
    # bcat[b, (j, c)] = B_j[b, c]
    bcat = hermitian_basis(d).transpose(1, 0, 2).reshape(d, d2 * d)
    out = np.empty((k, d2, d2))
    for lo in range(0, k, EXPM_CHUNK):
        uc = u[lo:lo + EXPM_CHUNK]
        c = len(uc)
        ub = (uc.reshape(c * d, d) @ bcat).reshape(c, d * d2, d)  # [., (a, j), c]
        cols = (ub @ np.conj(uc.swapaxes(1, 2))).reshape(c, d, d2, d)  # [., a, j, e]
        # [., j, (a, e)] = U B_j U^dagger, to coordinates [., j, i]
        coords = basis_coords(cols.transpose(0, 2, 1, 3))
        out[lo:lo + c] = coords.swapaxes(1, 2)
    return out


def _daleckii_krein(evals: np.ndarray, evecs: np.ndarray, tau: float,
                    dhams: np.ndarray) -> np.ndarray:
    """``dU`` of ``U = exp(-i tau H)`` in each direction ``dH_a``, (k, p, d, d).

    Daleckii-Krein (Higham, *Functions of Matrices*, SIAM 2008, Thm 3.11):
    ``dU = V (G o (V^dagger (-i tau dH) V)) V^dagger`` with the divided
    differences of exp over ``-i tau lambda`` in the stable form
    ``G_ij = exp(-i tau (l_i + l_j)/2) sinc(tau (l_i - l_j)/2)``, exact for
    coincident eigenvalues without a degeneracy threshold.
    """
    half = 0.5 * tau * (evals[:, :, None] - evals[:, None, :])
    gamma = np.exp(-0.5j * tau * (evals[:, :, None] + evals[:, None, :])) * np.sinc(half / np.pi)
    vh = np.conj(evecs.swapaxes(1, 2))[:, None]
    inner = vh @ (-1j * tau * np.asarray(dhams, dtype=complex)) @ evecs[:, None]
    return evecs[:, None] @ (gamma[:, None] * inner) @ vh


def _distinct_steps(controls: ControlGrid) -> ControlGrid:
    """The grid itself, or its first step alone when all steps are equal.

    Propagators of a uniform grid are computed once and broadcast.
    """
    amps = controls.amplitudes
    if controls.num_steps > 1 and np.all(amps == amps[:, :1]):
        return ControlGrid(controls.num_fields, 1, controls.dt, amps[:, :1])
    return controls


def _step_propagators(model, x, steps: ControlGrid, tau: float) -> np.ndarray:
    """``exp(tau L_j)`` for every step of ``steps`` as one real stack."""
    if not model.noise:
        return _transfer(_unitaries(step_hamiltonians(model, x, steps), tau)[0])
    return expm_stack(tau * step_liouvillians(model, x, steps))


def propagate(model, x, controls: ControlGrid, probe: np.ndarray | None = None,
              deriv_method: str | None = "exact") -> Trajectory:
    """Evolve the probe through every control step, tracking derivatives.

    Parameters
    ----------
    model : ParametricModel
        Supplies its checked operators at x (:meth:`ParametricModel.at`), its
        control stacks and ``noise``.
    x : array_like
        Parameter point at which the dynamics is linearized.
    controls : ControlGrid
    probe : ndarray, optional
        Initial state; defaults to the model's probe, checked once per model.
    deriv_method : {"exact", None}
        Whether parameter derivatives of the state are propagated (None skips
        them entirely).
    """
    if deriv_method not in ("exact", None):
        raise InvariantViolation(f"unknown deriv_method {deriv_method!r}")
    x = np.asarray(x, dtype=float)
    probe = model.probe if probe is None else check_probe(probe, model.dim)

    d = model.dim
    dt = controls.dt
    m = controls.num_steps

    steps = _distinct_steps(controls)
    if model.noise:
        gens = dt * step_liouvillians(model, x, steps)
        segs = expm_stack(gens)
    else:
        u, evals, evecs = _unitaries(step_hamiltonians(model, x, steps), dt)
        segs = _transfer(u)
    if not np.all(np.isfinite(segs)):
        raise PropagationError(f"step propagators are not finite (dt={dt:.3g})")
    segs = np.broadcast_to(segs, (m,) + segs.shape[1:])

    r = np.empty((m + 1, d * d))
    r[0] = basis_coords(probe)
    for j in range(m):
        r[j + 1] = segs[j] @ r[j]
    r.flags.writeable = False
    tr = np.sqrt(d) * r[1:, 0]
    drift = ~np.isfinite(tr) | (np.abs(tr - 1.0) > TRACE_DRIFT_ABORT)
    if drift.any():
        j = int(np.argmax(drift))
        raise PropagationError(
            f"trace drifted to {tr[j]:.6g} at step {j + 1} of {m} "
            f"(dt={dt:.3g}); propagation aborted"
        )
    states = basis_operators(r)
    states.flags.writeable = False

    drho = param_derivs = None
    if deriv_method is not None:
        # src[j, a] = d exp(dt L_j)/dx_a rho_{j-1}: the derivative of each
        # step's own exponential, applied to the state it acts on; a uniform
        # grid has one step matrix for all states
        if model.noise:
            src = _frechet_action(gens, dt * model.at(x).dh0_dirs, r[:-1], r[1:])
        else:
            du = _daleckii_krein(evals, evecs, dt, model.at(x).dh0)
            act = du @ (states[:-1] @ np.conj(u.swapaxes(1, 2)))[:, None]
            src = 2.0 * basis_coords(act)  # the coordinates of act + act^dagger
        drho = np.zeros((src.shape[1], m + 1, d * d))
        segs_t = segs.swapaxes(1, 2)
        for j in range(m):
            drho[:, j + 1] = drho[:, j] @ segs_t[j] + src[j]
        param_derivs = basis_operators(drho)
        drho.flags.writeable = param_derivs.flags.writeable = False
    return Trajectory(
        model=model,
        x=x,
        controls=controls,
        coords=r,
        segment_propagators=segs,
        deriv_coords=drho,
        states=states,
        param_derivs=param_derivs,
    )


def measure(rho: np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome probabilities ``p_y = Tr(rho E_y)``, clamped to [0, 1].

    Taken from the spectrum of rho as ``p_y = sum_k lambda_k |M_y v_k|^2``
    with ``E_y = M_y^dagger M_y`` (:attr:`Povm.factors`), leaving out the
    eigenvalues at or below :data:`STATE_EIG_FLOOR`.  Each term is the
    squared norm of an amplitude, so the small probabilities of a pure state
    keep their relative accuracy, where ``Tr(rho E_y)`` carries the absolute
    rounding of rho's entries and ``dp^2 / p`` amplifies it.  A state with an
    eigenvalue below :data:`PROB_CLAMP_FLOOR` raises.
    """
    if rho.shape[0] != povm.dim:
        raise DimensionMismatch("state and POVM dimensions differ")
    evals, evecs = np.linalg.eigh(rho)
    if evals[0] < PROB_CLAMP_FLOOR:
        raise PropagationError(
            f"state eigenvalue {evals[0]:.3e} below clamp floor; propagation is broken"
        )
    keep = evals > STATE_EIG_FLOOR
    amps = povm.factors @ evecs[:, keep]  # (n_out, d, kept)
    p = np.clip((np.abs(amps) ** 2).sum(axis=1) @ evals[keep], 0.0, 1.0)
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
