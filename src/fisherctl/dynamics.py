"""Open-system dynamics over a piecewise-constant control grid.

The generator of the evolution is ``L(rho) = -i[H, rho] + sum_c (gamma_c/2)
(A_c rho A_c - rho)`` with involutory Hermitian dephasing bases ``A_c``.  It is
affine in the control amplitudes: step j has ``L_j = L0(x) + sum_k V_k(j) C_k``
with ``L0(x)`` the generator of the free Hamiltonian and ``C_k = -i ad(H_k)``.

Propagation runs in the real coordinates of the orthonormal Hermitian basis
of :func:`~fisherctl.operators.hermitian_basis`: every generator, propagator
and state below is a real array, and a :class:`Trajectory` stores only these.
Its complex ``states`` and ``param_derivs`` are built from the coordinates
when read, as is the public row-major ``vec`` matrix of
:func:`build_liouvillian`.  All m step generators, noisy or noiseless, are
built as one real ``(m, d^2, d^2)`` stack (:func:`step_liouvillians`) and
exponentiated together by :func:`expm_stack`, a scaled and squared Taylor
polynomial evaluated by matrix products alone, in passes over runs of steps
of one degree.

The state obeys ``rho_j = exp(dt L_j) rho_{j-1}``, and the parameter
derivatives of the state are carried along exactly as ``drho_j = exp(dt L_j)
drho_{j-1} + f_j``.  The source ``f_j`` is the derivative of step j's
exponential in direction ``dt dL_a`` applied to ``rho_{j-1}``: the Frechet
derivative of the same Taylor polynomial, applied to the state coordinates
(:func:`_frechet_action`), never a per-step derivative matrix.  It is the
exact derivative of the propagated polynomial, so gradients agree with the
objective, and the finite-difference gradient checks (acceptance criterion
C3) compare against it.  As a derivative of exp it is one term less exact:
theta_m bounds exp's tail sum_{k>m}, the derivative's is sum_{k>=m}, which
reaches 3.5e-13 relative at theta_4 on a contrived rank-one generator and
at most 6e-16 on the catalog's.  Both recurrences, like the gradient sweeps
of :mod:`fisherctl.grape`, are evaluated by :func:`_scan`, a blocked prefix
scan over the within-block products of the step stack, built once per
stack and direction and shared by its scans (:func:`_scan_layout`).  Outcome
probabilities derive in
the same coordinates: ``dp_y = e_y . drho`` with ``e_y`` the coordinates of
effect y (:attr:`Povm.coords`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    PropagationError,
)
from .operators import (
    BLAS_SERIAL_MACS,
    Povm,
    _ad,
    basis_coords,
    basis_operators,
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

# Taylor degrees m and theta_m, the largest 1-norm eta with sum_{k>m} eta^k/k!
# <= 2^-53: up to it the degree-m polynomial of exp is exact to unit roundoff.
_TAYLOR_THETA = ((4, 1.6783942982781046e-3), (6, 1.7764527083684662e-2),
                 (8, 6.993278480782539e-2), (10, 1.7378872324748368e-1),
                 (12, 3.3521368782861477e-1), (18, 1.14329611222606))
_INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(19))
# Steps that share a Taylor degree and scaling, and the most steps of one
# kernel pass over chunks that share them: a bound on its buffers.
EXPM_CHUNK = 16
EXPM_PASS = 64


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
    if bound is not None and not (is_finite_real(bound) and bound > 0):
        raise InvariantViolation(f"amplitude_bound must be positive and finite, got {bound!r}")


def is_integer(value) -> bool:
    """An int or numpy integer; not a bool, although Python counts it as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A real number, numpy's included, that a float holds as a finite value;
    not a bool, although Python counts it as one."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class ControlGrid:
    """Piecewise-constant control amplitudes: ``num_fields`` x ``num_steps``."""

    num_fields: int
    num_steps: int
    total_time: float
    amplitudes: np.ndarray
    amplitude_bound: float | None = None

    def __post_init__(self):
        if not (is_integer(self.num_fields) and is_integer(self.num_steps)):
            raise InvariantViolation(f"field and step counts must be integers, got "
                                     f"{self.num_fields!r} and {self.num_steps!r}")
        if self.num_fields < 1 or self.num_steps < 1:
            raise InvariantViolation("control grid needs >= 1 field and >= 1 step")
        if not (is_finite_real(self.total_time) and self.total_time > 0):
            raise InvariantViolation(
                f"total_time must be positive and finite, got {self.total_time!r}")
        if np.iscomplexobj(self.amplitudes):
            raise InvariantViolation("control amplitudes must be real")
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
                f"amplitudes exceed the configured bound {self.amplitude_bound}")
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
    """State coordinates, step propagators and state derivatives on the grid.

    ``coords`` is the read-only (m+1, d^2) real stack of state coordinates in
    the Hermitian basis (:func:`~fisherctl.operators.hermitian_basis`):
    ``coords[j]`` is the state after j steps (``coords[0]`` is the probe).
    ``segment_propagators[j-1]`` (an (m, d^2, d^2) real stack, read-only) maps
    ``coords[j-1]`` to ``coords[j]``, and ``deriv_coords[a][j]`` is the
    derivative of ``coords[j]`` with respect to the a-th model parameter
    (None when derivatives were not requested).  These are all it stores.
    ``states``, ``param_derivs`` and their last slices ``final_state`` and
    ``final_derivs`` are the same as (..., d, d) complex Hermitian matrices,
    converted from the coordinates on every read.
    """

    model: object
    x: np.ndarray
    controls: ControlGrid
    coords: np.ndarray
    segment_propagators: np.ndarray
    deriv_coords: np.ndarray | None

    @property
    def dt(self) -> float:
        return self.controls.dt

    @property
    def num_steps(self) -> int:
        return len(self.segment_propagators)

    def _derivs(self) -> np.ndarray:
        if self.deriv_coords is None:
            raise InvariantViolation("trajectory was propagated without derivatives")
        return self.deriv_coords

    @property
    def states(self) -> np.ndarray:
        return basis_operators(self.coords)

    @property
    def param_derivs(self) -> np.ndarray | None:
        return None if self.deriv_coords is None else basis_operators(self.deriv_coords)

    @property
    def final_state(self) -> np.ndarray:
        # from the last two rows: a one-row product takes BLAS's matrix-vector
        # kernel, whose rounding differs from the stack's, and an objective
        # near a vanishing probability amplifies that to ~1e-12
        return basis_operators(self.coords[-2:])[-1]

    @property
    def final_derivs(self) -> np.ndarray:
        return basis_operators(self._derivs()[:, -1])


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

    One ``(k, p+1) @ (p+1, size)`` product per :data:`EXPM_PASS` steps (serial
    in OpenBLAS on the catalog), with ``free`` as the row of a unit coefficient.
    """
    if controls.num_fields != len(directions):
        raise DimensionMismatch(f"{controls.num_fields} control fields vs "
                                f"{len(directions)} control Hamiltonians")
    m = controls.num_steps
    ops = np.concatenate([free.reshape(1, -1), directions.reshape(len(directions), -1)])
    coeffs = np.concatenate([np.ones((m, 1)), controls.amplitudes.T], axis=1)
    stack = np.empty((m, ops.shape[1]), dtype=ops.dtype)
    for lo in range(0, m, EXPM_PASS):
        np.matmul(coeffs[lo:lo + EXPM_PASS], ops, out=stack[lo:lo + EXPM_PASS])
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


def _taylor_passes(a: np.ndarray) -> list:
    # The kernel passes (lo, hi, m, s) over a (k, n, n) stack: every
    # EXPM_CHUNK steps take the lowest degree m whose theta bounds their
    # largest 1-norm eta, else the top one after scaling by 2^-s, and runs of
    # chunks that share (m, s) go in passes of up to EXPM_PASS steps.  |a| is
    # laid out rows first: the column sums are n - 1 adds over all steps.
    n = a.shape[-1]
    rows = np.abs(a.transpose(1, 0, 2), out=np.empty((a.shape[-2], len(a), n)))
    sums = rows.reshape(len(rows), -1).sum(axis=0)
    etas = np.maximum.reduceat(sums, range(0, sums.size, EXPM_CHUNK * n)).tolist()
    passes = []
    for lo, eta in zip(range(0, len(a), EXPM_CHUNK), etas):
        if not np.isfinite(eta):
            raise PropagationError("matrix exponential of a non-finite generator")
        m, theta = next((mt for mt in _TAYLOR_THETA if eta <= mt[1]), _TAYLOR_THETA[-1])
        order = (m, 0 if eta <= theta else int(np.ceil(np.log2(eta / theta))))
        hi = min(lo + EXPM_CHUNK, len(a))
        if passes and passes[-1][2:] == order and lo - passes[-1][0] < EXPM_PASS:
            lo = passes.pop()[0]
        passes.append((lo, hi) + order)
    return passes


def _taylor_blocks(m: int) -> np.ndarray:
    # Paterson-Stockmeyer blocks of the degree-m Taylor polynomial: row i holds
    # c_{iq+j} = 1/(iq+j)!, q = ceil(sqrt(m)), for j < q, the last row to c_m.
    q = math.isqrt(m - 1) + 1
    rows = -(-m // q)
    out = np.zeros((rows, q + 1))
    for k in range(m + 1):
        i = min(k // q, rows - 1)
        out[i, k - i * q] = _INV_FACTORIAL[k]
    return out


_TAYLOR_BLOCKS = {m: _taylor_blocks(m) for m, _ in _TAYLOR_THETA}


def _taylor(a: np.ndarray, m: int, work: np.ndarray | None = None) -> np.ndarray:
    # The degree-m Taylor polynomial of exp at every matrix of a (k, n, n)
    # stack by Paterson-Stockmeyer: sum_i B_i (a^q)^i by Horner over a^q, the
    # blocks B_i = sum_j c_{iq+j} a^j as serial products of their coefficients
    # with the powers I, a, ..., a^q.  4 matrix products in all at degree 8.
    # Returns a view into work, a buffer of (rows + q + 1) a.size or more.
    coeffs = _TAYLOR_BLOCKS[m]
    q, size = coeffs.shape[1] - 1, sum(coeffs.shape) * a.size
    stacks = (np.empty(size, a.dtype) if work is None else work[:size]).reshape((-1,) + a.shape)
    pows, blocks = stacks[:q + 1], stacks[q + 1:]
    pows[0], pows[1] = np.eye(a.shape[-1]), a
    for j in range(2, q + 1):
        np.matmul(pows[j - 1], a, out=pows[j])
    flat, out = pows.reshape(q + 1, -1), blocks.reshape(len(coeffs), -1)
    cols = BLAS_SERIAL_MACS // coeffs.size
    for lo in range(0, flat.shape[1], cols):
        np.matmul(coeffs, flat[:, lo:lo + cols], out=out[:, lo:lo + cols])
    r = blocks[-1]
    for block in blocks[-2::-1]:  # each product into the spent identity power
        np.matmul(r, pows[q], out=pows[0])
        r = np.add(pows[0], block, out=block)
    return r


def expm_stack(a: np.ndarray, passes: list | None = None) -> np.ndarray:
    """``exp(A_i)`` for every matrix of a ``(k, n, n)`` stack.

    Scaling and squaring of a truncated Taylor series: every chunk of
    :data:`EXPM_CHUNK` matrices takes the lowest degree m whose bound theta_m
    covers its largest 1-norm, which keeps the truncation below unit
    roundoff, and a norm above the top bound is scaled by 2^-s and squared s
    times.  A pass runs over up to :data:`EXPM_PASS` matrices of chunks that
    share (m, s), every matrix with the products of its chunk alone, by
    Paterson-Stockmeyer (SIAM J. Comput. 2, 60 (1973)) in stacked ``matmul``
    calls only.  A real stack stays real, a complex one complex.  ``passes``,
    :func:`_taylor_passes` of ``a``, is shared with :func:`_frechet_action`.
    """
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        a = a.astype(float, copy=False)
    out = np.empty(a.shape, dtype=a.dtype)
    passes = _taylor_passes(a) if passes is None else passes
    work = np.empty(max((sum(_TAYLOR_BLOCKS[m].shape) * (hi - lo) for lo, hi, m, _ in passes),
                        default=0) * math.prod(a.shape[1:]), dtype=a.dtype)  # all passes
    for lo, hi, m, s in passes:
        r = _taylor(a[lo:hi] * 2.0**-s if s else a[lo:hi], m, work)
        for _ in range(s):
            r = r @ r
        out[lo:hi] = r
    return out


def _taylor_frechet(ops, x, m):
    # The derivative of the degree-m Taylor polynomial at a in every
    # direction E_b, applied to the columns of x (k, n, c): sum_l a^l E q_l
    # with q_{m-1} = c_m x and q_{l-1} = a q_l + c_l x, one descending pass
    # that applies ops = [a; E] (k, n + p n, n; E's row (i, b) is E_b[i]) to
    # q_l and sums g = a g + E q_l.  Returns g (k, n, p*c), g[:, i, (b, col)].
    k, (n, c) = len(ops), x.shape[-2:]
    a, pc = ops[:, :n], (ops.shape[1] - n) // n * c
    q = _INV_FACTORIAL[m] * x
    for l in range(m - 1, 0, -1):
        both = ops @ q
        eq = both[:, n:].reshape(k, n, pc)
        g = eq if l == m - 1 else a @ g + eq
        q = both[:, :n] + _INV_FACTORIAL[l] * x
    return a @ g + (ops[:, n:] @ q).reshape(k, n, pc)


def _frechet_action(a: np.ndarray, directions: np.ndarray, w: np.ndarray,
                    passes: list | None = None) -> np.ndarray:
    """``L(A_j, E_b) w_j`` for every state w_j, never forming ``L(A_j, E_b)``.

    The Frechet derivative of the Taylor polynomial of :func:`expm_stack`, in
    its passes, applied to vectors by products only.  ``a`` is the ``(m, n,
    n)`` stack of generators and ``w`` the ``(m, n)`` states.  Returns ``(m,
    p, n)`` for the ``(p, n, n)`` directions.  A scaled pass takes the Frechet
    matrices of its polynomial (on identity columns) through the squarings,
    ``L <- r L + L r, r <- r^2``, then to the states: no cost grows with 2^s.
    """
    e = np.asarray(directions)
    p, n = e.shape[:2]
    out = np.empty((len(w), p, n), dtype=np.result_type(a, e, w, float))
    passes = _taylor_passes(a) if passes is None else passes
    ops, filled = np.empty((min(len(a), EXPM_PASS), n + n * p, n), np.result_type(a, e)), None
    for lo, hi, m, s in passes:
        k, cols = hi - lo, w[lo:hi, :, None]
        if s != filled:
            ops[:, n:], filled = e.transpose(1, 0, 2).reshape(n * p, n) * 2.0**-s, s
        ops[:k, :n] = a[lo:hi] * 2.0**-s if s else a[lo:hi]
        if not s:
            g = _taylor_frechet(ops[:k], cols, m)
        else:
            g = _taylor_frechet(ops[:k], np.broadcast_to(np.eye(n), (k, n, n)), m)
            r = _taylor(ops[:k, :n], m)
            for _ in range(s):
                g = r @ g + (g.reshape(k, n * p, n) @ r).reshape(g.shape)
                r = r @ r
            g = g.reshape(k, n * p, n) @ cols
        out[lo:hi] = g.reshape(k, n, p).transpose(0, 2, 1)
    return out


def _positions(a: np.ndarray, b: int, blocks: int) -> np.ndarray:
    # the (m, ...) stack a in blocks of b steps, laid out position-major and
    # contiguous: out[i, k] = a[k b + i], zero past the end of a
    full = len(a) // b
    out = np.zeros((b, blocks) + a.shape[1:], dtype=a.dtype)
    out[:, :full] = a[:full * b].reshape((full, b) + a.shape[1:]).swapaxes(0, 1)
    out[:len(a) - full * b, full:] = a[full * b:, None]
    return out


def _scan_layout(mats: np.ndarray) -> tuple:
    """``(m, raw, prods)``, the layout of an ``(m, n, n)`` step stack (any
    strides) that every :func:`_scan` over it shares: in blocks of b =
    isqrt(m) steps, ``raw[i, k] = mats[kb + i]`` and ``prods[i, k] =
    mats[kb] @ ... @ mats[kb + i]``, position-major and zero past the end."""
    m = len(mats)
    b = math.isqrt(m)
    raw = _positions(mats, b, -(-m // b))
    prods = np.empty_like(raw)
    prods[0] = raw[0]
    for i in range(1, b):
        np.matmul(prods[i - 1], raw[i], out=prods[i])
    return m, raw, prods


def _scan(x0: np.ndarray, layout: tuple, src: np.ndarray | None = None) -> np.ndarray:
    """``x[j+1] = x[j] @ mats[j] + src[j]`` for every step of a
    :func:`_scan_layout`, as one ``(m+1, rows, n)`` stack with ``x[0] = x0``.

    A blocked prefix scan (Blelloch, CMU-CS-90-190): the source sums within
    every block, batched over the blocks (b - 1 stacked products); the carry
    across the blocks in turn; then every step from its block's carry and
    prefix product in one stacked product.  About 2 sqrt(m) numpy calls where
    a loop makes m.  ``src`` is ``(m, rows, n)`` or None.
    """
    m, raw, prods = layout
    b, blocks = prods.shape[:2]
    sums = None if src is None else _positions(src, b, blocks)
    for i in range(1, 0 if src is None else b):
        sums[i] += sums[i - 1] @ raw[i]
    carry = np.empty((blocks,) + x0.shape, dtype=np.result_type(x0, prods))
    carry[0] = x0
    for k in range(blocks - 1):
        carry[k + 1] = carry[k] @ prods[-1, k]
        if sums is not None:
            carry[k + 1] += sums[-1, k]
    # every step from its block's carry, written straight into out: rows 1
    # onward hold the blocks in turn (the last one padded to b steps)
    out = np.empty((blocks * b + 1,) + x0.shape, dtype=carry.dtype)
    out[0] = x0
    steps = out[1:].reshape((blocks, b) + x0.shape).swapaxes(0, 1)
    np.matmul(carry, prods, out=steps)
    if sums is not None:
        steps += sums
    return out[:m + 1]


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
    return _propagate(model, x, controls, probe, deriv_method)[0]


def _propagate(model, x, controls: ControlGrid, probe, deriv_method) -> tuple:
    """:func:`propagate`, and the :func:`_scan_layout` its scans share."""
    if deriv_method not in ("exact", None):
        raise InvariantViolation(f"unknown deriv_method {deriv_method!r}")
    x = np.asarray(x, dtype=float)
    probe = model.probe if probe is None else check_probe(probe, model.dim)

    d, dt, m = model.dim, controls.dt, controls.num_steps
    gens = dt * step_liouvillians(model, x, controls)
    passes = _taylor_passes(gens)
    segs = expm_stack(gens, passes)
    if not np.all(np.isfinite(segs)):
        raise PropagationError(f"step propagators are not finite (dt={dt:.3g})")
    segs.flags.writeable = False
    layout = _scan_layout(segs.swapaxes(1, 2))

    # rho_j = exp(dt L_j) rho_{j-1}, as rows: rho_j^T = rho_{j-1}^T exp(dt L_j)^T
    r = _scan(basis_coords(probe)[None], layout)[:, 0]
    r.flags.writeable = False
    tr = np.sqrt(d) * r[1:, 0]
    drift = ~np.isfinite(tr) | (np.abs(tr - 1.0) > TRACE_DRIFT_ABORT)
    if drift.any():
        j = int(np.argmax(drift))
        raise PropagationError(f"trace drifted to {tr[j]:.6g} at step {j + 1} of {m} "
                               f"(dt={dt:.3g}); propagation aborted")

    drho = None
    if deriv_method is not None:
        # src[j, a] = d exp(dt L_j)/dx_a rho_{j-1}, in the exponentials' passes
        src = _frechet_action(gens, dt * model.at(x).dh0_dirs, r[:-1], passes)
        drho = _scan(np.zeros(src.shape[1:]), layout, src).swapaxes(0, 1)
        drho.flags.writeable = False
    return Trajectory(model=model, x=x, controls=controls, coords=r,
                      segment_propagators=segs, deriv_coords=drho), layout


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
        raise PropagationError(f"state eigenvalue {evals[0]:.3e} below clamp floor; "
                               "propagation is broken")
    keep = evals > STATE_EIG_FLOOR
    amps = povm.factors @ evecs[:, keep]  # (n_out, d, kept)
    p = np.clip((np.abs(amps) ** 2).sum(axis=1) @ evals[keep], 0.0, 1.0)
    if abs(np.sum(p) - 1.0) > 1e-9:
        raise InvariantViolation(f"probabilities sum to {np.sum(p):.12f}, not 1")
    return p


def measure_derivs(trajectory: Trajectory, povm: Povm):
    """Final-state probabilities and their parameter derivatives ``dp[a, y] = Tr(drho_a E_y)``."""
    return _final_probs(trajectory.final_state, trajectory._derivs()[:, -1], povm)


def _final_probs(rho: np.ndarray, drho: np.ndarray, povm: Povm):
    """:func:`measure_derivs` of a final state ``rho`` and its derivative
    coordinates ``drho`` (n, d^2), however the derivatives were taken."""
    p, dp = measure(rho, povm), drho @ povm.coords.T
    if np.max(np.abs(dp.sum(axis=1))) > 1e-8:
        raise InvariantViolation("probability derivatives do not sum to zero")
    return p, dp
