"""Analytic control gradients of the classical information matrix and the
gradient-ascent pulse loop.

Response structure
------------------
Writing ``D_a^b`` for the propagator product over steps a..b (identity when
a > b) and ``J_X(j)`` for the within-step insertion of a generator direction
X into step j (see Rules), the responses behind the gradients are

* probability:       ``R1_{k,j}   = D_{j+1}^m J_k(j) rho_{j-1}``,
* past insertions:   ``R2_{a,k,j} = D_{j+1}^m J_k(j) w_{a,j-1}``,
* future insertions: ``R3_{a,k,j} = G_{a,j} J_k(j) rho_{j-1}``,
* same-step mix:     ``RX_{a,k,j} = D_{j+1}^m (dJ_a(j)/dV_k(j)) rho_{j-1}``,

with the running sums ``w_{a,j} = sum_{i<=j} D_{i+1}^j J_a(i) rho_{i-1}`` and
``G_{a,j} = sum_{i>j} D_{i+1}^m J_a(i) D_{j+1}^{i-1}`` (empty, hence zero, at
j = m).  Then ``dp_y/dV_k(j) = Tr[E_y R1]`` and ``d(d_a p_y)/dV_k(j) =
Tr[E_y (R2 + R3 + RX)]``.

Adjoint contraction
-------------------
Every response is read only through an effect trace and is linear in it, so
the left factors ``D_{j+1}^m`` and ``G_{a,j}`` are never formed as matrices
and any weighted sum over outcomes costs one pass.  As in GRAPE (Khaneja et
al., J. Magn. Reson. 172, 296 (2005)), a forward state sweep (``rho_j`` and
``w_{a,j}``) meets a backward costate sweep.  Every sweep is a linear
recurrence over the steps and is evaluated as a blocked prefix scan
(:func:`~fisherctl.dynamics._scan`), the backward ones over the reversed
steps; the scans over one stack and direction share its
:func:`~fisherctl.dynamics._scan_layout`.  A weight row ``W`` asks for
``sum_{b<n, y} W[b, y] d(d_b p_y)/dV + sum_y W[n, y] dp_y/dV``; its effect
covectors are folded before the sweep:

* ``lam_{b,j} = (sum_y W[b, y] e_y) D_{j+1}^m`` for b = 0..n, with
  ``lam_{j-1} = lam_j E_j``;
* one ``mu_j = sum_{b<n} (sum_y W[b, y] e_y) G_{b,j}``, with ``mu_{j-1} =
  mu_j E_j + sum_b lam_{b,j} J_b(j)`` and ``mu_m = 0``.

One chain rule turns symmetric information-matrix weights ``G`` into a row:
with the scores ``s1[a, y] = d_a p_y / p_y``, ``sum_ab G_ab dF_ab/dV`` takes
``W[b, y] = 2 sum_a G_ab s1[a, y]`` and ``W[n, y] = -sum_ab G_ab s1[a, y]
s1[b, y]``.  A scalar objective takes ``G = dphi/dF`` and is backpropagated
directly (de Fouquieres et al., J. Magn. Reson. 212, 412 (2011)) in one row.
Identity weights, one row per outcome and per (parameter, outcome) pair,
give the per-outcome grids ``dprob[y, k, j]`` and ``ddprob[y, a, k, j]``
that the per-index gradients slice; the ``(n, n, p, m)`` information-matrix
grid weights them by the symmetric unit matrices.

Each term of a response is ``L C_k R``: a costate covector ``L`` and a
forward vector ``R`` of step j around ``C_k = -i ad(H_k)``, the generator
direction of control k.  The pairs of one step are summed into ``S_j =
sum_t L_t^T R_t`` (d^2 x d^2), and the weighted gradient is ``sum(C_k *
S_j)``, one 2-D product over all steps and weight rows in row blocks that
stay on one thread (:func:`~fisherctl.operators._blocked`), as are the
products by ``D_a``: O(r n m d^4) flops for r weight rows, with no p x n x m
x d^2 intermediate.

Real coordinates
----------------
All of it runs in the real coordinates of the Hermitian basis that
:func:`~fisherctl.dynamics.propagate` uses
(:func:`~fisherctl.operators.hermitian_basis`): the propagators, the
directions ``C_k`` and ``D_a = -i ad(dH0_a)``, the states, the effect
covectors ``e_y`` (``p_y = e_y . rho``) and hence every costate, forward sum
and grid are float64, with the ``-i`` of each insertion inside its direction
and the rules' weights real.

Rules
-----
The trajectory chooses ``J_X(j)``, step j's propagator derivative along
``dt X``.  With state derivatives (propagate with derivatives to get the
exact gradient) it is exact: step j is the Taylor polynomial P of
:func:`~fisherctl.dynamics.expm_stack` at the block-triangular generator
``A~_j`` (Van Loan, IEEE TAC 23, 395 (1978)) of ``w_j = x_j = (d_1 rho_j,
..., d_n rho_j, rho_j)``: ``dt L_j`` on every slot, ``dt D_b`` from rho
into slot b.  So ``S_j = dt sum_{l+r<q} c_{l+r+1} (lam~_j A~_j^l)^T
(A~_j^r x_{j-1})``, c_i = 1/i!, q the degree, ``lam~_j = (lam_{b,j},
lam_{n,j} + mu_j)``; a pass scaled by 2^-s costs 2^s sub-steps.  Without
them (:func:`optimize`'s trial points) it is the trapezoid rule ``(dt/2)(X
E_j + E_j X)``, bias second order in dt.

Entry points
------------
:class:`GradientContext` is the one per-entry API: ``prob_gradient``,
``dprob_gradient``, ``cfim_entry_gradient``, ``cfim_gradient_grid`` and
``objective_gradient`` follow its trajectory's rule; :func:`gradient_objective`
builds one, :func:`optimize` trapezoid ones.  A new objective is one entry,
its value and ``dphi/dF``, in :data:`fisherctl.fisher.OBJECTIVES`.

Ascent loop
-----------
Every iteration runs one trial-step loop along its ascent direction: clip the
step to the amplitude bound, evaluate the trial point, then accept or halve.
A fixed step is one trial accepted without a test; backtracking gradient
ascent starts at twice the last accepted step, BFGS at unit step.  A trial's
:class:`GradientContext` builds its information matrix once and, when
accepted, supplies the next gradient.

Quasi-Newton update
-------------------
The "bfgs" rule never forms the (p m) x (p m) inverse Hessian.  It keeps the
accepted secant pairs ``(s_i, y_i, 1/s_i.y_i)`` since the last reset and
applies the BFGS matrix they build from ``H_0 = gamma_k I`` to the gradient
by the two-loop recursion (Nocedal, Math. Comp. 35, 773 (1980)) over every
pair, at O(k p m) work and memory for k stored pairs.  ``gamma_k = s_k.y_k /
y_k.y_k`` of the newest pair is chosen again at every iteration, as in
L-BFGS (Liu & Nocedal, Math. Prog. 45, 503 (1989)), so the unit step is in
the controls' units and the direction does not change when the objective is
rescaled.  With no pair stored the direction is the gradient.  Every
operation acts on length-(p m) vectors, too small to wake a BLAS worker
thread; stacking the pairs into one (k, p m) matrix product would reach that
threshold again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .dynamics import (
    _INV_FACTORIAL,
    ControlGrid,
    Trajectory,
    _propagate,
    _scan,
    _scan_layout,
    _taylor_passes,
    check_amplitude_bound,
    is_finite_real,
    is_integer,
    measure,
    measure_derivs,
    propagate,
    step_liouvillians,
)
from .errors import (
    DimensionMismatch,
    FisherctlError,
    InvariantViolation,
    PropagationError,
    SingularContribution,
)
from .fisher import OBJECTIVES, FisherMatrix, cfim, tr_inv, usable_outcomes
from .operators import Povm, _blocked

__all__ = [
    "GradientContext",
    "GrapeConfig",
    "GrapeResult",
    "gradient_objective",
    "num_steps",
    "optimize",
]

MAX_BACKTRACKS = 30
# iterations over which the relative objective change is tested for convergence
CONVERGENCE_WINDOW = 5


@dataclass(frozen=True)
class GrapeConfig:
    """Knobs of the ascent loop.

    ``init_scheme`` is one of "zeros", "random" (uniform in
    [-init_amplitude, init_amplitude], seeded) or "user" (``user_controls``
    supplies the p x m amplitude grid).  ``update_rule`` is "gradient"
    (backtracking gradient ascent; plain fixed-step when ``fixed_step``) or
    "bfgs" (quasi-Newton over the flattened control vector: BFGS from every
    secant pair since the last reset and the scaled identity of the newest,
    applied by the two-loop recursion, with a backtracking line search from
    unit step).
    """

    step_size: float = 0.01
    max_iters: int = 1000
    convergence_tol: float = 1e-6
    init_scheme: str = "random"
    init_seed: int = 0
    init_amplitude: float = 0.1
    user_controls: np.ndarray | None = None
    update_rule: str = "gradient"
    amplitude_bound: float | None = None
    fixed_step: bool = False
    steps_per_unit: int = 100

    def __post_init__(self):
        for name, low in (("max_iters", 1), ("steps_per_unit", 1), ("init_seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                raise InvariantViolation(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("step_size", "convergence_tol"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value > 0):
                raise InvariantViolation(f"{name} must be positive and finite, got {value!r}")
        if not (is_finite_real(self.init_amplitude) and self.init_amplitude >= 0):
            raise InvariantViolation(f"init_amplitude must be nonnegative and finite, "
                                     f"got {self.init_amplitude!r}")
        check_amplitude_bound(self.amplitude_bound)
        if not isinstance(self.fixed_step, bool):
            raise InvariantViolation(f"fixed_step must be a bool, got {self.fixed_step!r}")
        if self.init_scheme not in ("zeros", "random", "user"):
            raise InvariantViolation(f"unknown init_scheme {self.init_scheme!r}")
        if self.update_rule not in ("gradient", "bfgs"):
            raise InvariantViolation(f"unknown update_rule {self.update_rule!r}")
        if (self.init_scheme == "user") != (self.user_controls is not None):
            raise InvariantViolation("user_controls goes with init_scheme 'user' and only with it")
        if self.fixed_step and self.update_rule != "gradient":
            raise InvariantViolation("fixed_step needs update_rule 'gradient'")


def num_steps(t: float, steps_per_unit: int) -> int:
    """Control steps of a grid of duration t at the given density."""
    if not (is_finite_real(t) and 0 < steps_per_unit * float(t) < np.iinfo(np.intp).max):
        raise InvariantViolation(f"duration must be positive, finite and short enough to grid "
                                 f"at {steps_per_unit} steps per unit, got {t!r}")
    return max(1, round(steps_per_unit * t))


@dataclass(frozen=True)
class GrapeResult:
    """Outcome of one ascent run."""

    final_controls: ControlGrid
    objective_history: tuple
    final_cfim: FisherMatrix
    final_tr_inv: float
    iterations_used: int
    evaluations: int  # objective evaluations, rejected and failed trial points included
    # why the loop stopped: "converged", "max_iters", "line_search_stall" or
    # "numerical_failure" (a fixed step, or every trial of the last line
    # search, raised)
    termination: str
    objective: str
    final_objective: float

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


# Floats of one batch of the exact rule: merged passes, kept sub-step vectors
_BATCH_FLOATS = 2**18


def _taylor_pairs(gens, passes, dt, dirs, lefts, rights):
    """``lefts[j-1] P(A~_j)`` and the exact rule's ``S_j`` (see Rules) for
    covectors ``lefts`` (m, rows, n+1, d^2) and vectors ``rights`` (m, n+1,
    d^2), in the ``passes`` of ``gens`` (``A_j``), ``dirs`` the ``dt D_b``.
    Sub-step i < 2^s of a scaled pass pairs ``lefts Q^(2^s-1-i)`` with ``Q^i
    rights``, Q = P(A~)^(2^-s) its unscaled polynomial."""
    m, rows, slots, d2 = lefts.shape
    n = slots - 1
    ends, pairs = np.empty(lefts.shape), np.empty((m, rows, d2, d2))
    runs = []  # consecutive passes of one (q, s), within the float budget
    for lo, hi, q, s in passes:
        if runs and runs[-1][2:] == (q, s) and \
                (hi - runs[-1][0]) * rows * (q + 1) * slots * d2 <= _BATCH_FLOATS:
            lo = runs.pop()[0]
        runs.append((lo, hi, q, s))
    for lo, hi, q, s in runs:
        k, h, subs = hi - lo, 2.0**-s, 2**s
        a = gens[lo:hi] * h
        e_rows, e_cols = h * dirs.reshape(n * d2, d2), h * dirs.transpose(2, 0, 1).reshape(d2, -1)
        coef = np.array(_INV_FACTORIAL[:q + 1])
        hankel = np.array([np.append(coef[l + 1:], np.zeros(l)) for l in range(q)]) * (dt * h)

        def krylov(x, terms, covector):  # x, x A~, ... or A~ x, ... (as rows)
            seq = np.empty((terms,) + x.shape)
            seq[0] = x
            for prev, out in zip(seq, seq[1:]):
                if covector:
                    np.matmul(prev.reshape(k, -1, d2), a, out=out.reshape(k, -1, d2))
                    if n:
                        out[:, :, n] += _blocked(prev[:, :, :n].reshape(-1, n * d2),
                                                 e_rows).reshape(k, -1, d2)
                else:
                    np.matmul(prev, a.swapaxes(1, 2), out=out)
                    if n:
                        out[:, :n] += _blocked(prev[:, n], e_cols).reshape(k, n, d2)
            return seq

        def advance(x, _=None):  # Q x
            return (coef @ krylov(x, q + 1, False).reshape(q + 1, -1)).reshape(x.shape)

        block = subs if subs * k * slots * d2 <= _BATCH_FLOATS else 2**((s + 1) // 2)
        marks = islice(  # Q^i rights for i = 0, block, 2 block, ...; a block from each
            accumulate(range(subs - block), advance, initial=rights[lo:hi]), 0, None, block)
        y, acc = lefts[lo:hi], 0.0
        for mark in reversed(list(marks)):
            for x in reversed(list(accumulate(range(block - 1), advance, initial=mark))):
                ys = krylov(y, q + 1, True)
                hx = hankel @ krylov(x, q, False).reshape(q, -1)
                hx = hx.reshape(q, k, slots * d2).swapaxes(0, 1).reshape(k, 1, q * slots, d2)
                acc = acc + ys[:q].transpose(1, 2, 4, 0, 3).reshape(k, rows, d2, -1) @ hx
                y = (coef @ ys.reshape(q + 1, -1)).reshape(y.shape)
        ends[lo:hi], pairs[lo:hi] = y, acc
    return ends, pairs


class GradientContext:
    """Per-trajectory workspace for the analytic control gradients, by its
    trajectory's rule (see Rules).  The trapezoid rule's forward insertion
    sums are built eagerly, the backward sweeps on first use.  It reads the
    trajectory's coordinates and propagators and the POVM's effect
    coordinates (:attr:`Povm.coords`, the array ``measure_derivs`` reads) and
    keeps neither object.  Step indices ``j`` are 1-based, matching control
    grid columns ``amplitudes[:, j-1]``.  ``_layout`` hands over the
    trajectory's :func:`~fisherctl.dynamics._scan_layout`.
    """

    def __init__(self, trajectory: Trajectory, povm: Povm, *, _layout: tuple | None = None):
        model = trajectory.model
        if povm.dim != model.dim:
            raise DimensionMismatch("POVM dimension does not match the model")
        self.dt = dt = trajectory.dt
        self.num_steps = m = trajectory.num_steps
        d2 = model.dim**2
        self.num_fields = len(model.control_hams)
        self.num_params = n = model.num_params

        self.segs = trajectory.segment_propagators
        self.rvecs = trajectory.coords
        self.ctrl_dirs = model.control_dirs
        self.dh0_dirs = model.at(trajectory.x).dh0_dirs
        self.effect_coords = povm.coords
        self._backward = self._cfim = None

        if trajectory.deriv_coords is not None:
            # the exact rule: propagation's A_j and Taylor passes, and x_{j-1}
            self._gens = dt * step_liouvillians(model, trajectory.x, trajectory.controls)
            self._passes = _taylor_passes(self._gens)
            self._xvecs = np.concatenate([trajectory.deriv_coords[:, :-1].swapaxes(0, 1),
                                          self.rvecs[:-1, None]], axis=1)
            self.p, self.dp = measure_derivs(trajectory, povm)
            return
        self._gens = None
        # (d^2, n d^2): a row vector times it applies every direction D_a =
        # -i[dH0_a, .] at once
        dh_cols = self.dh0_dirs.transpose(2, 0, 1).reshape(d2, n * d2)
        dhr = _blocked(self.rvecs, dh_cols).reshape(m + 1, n, d2)  # D_a rho_j

        # Forward insertion sums w[j, a] = sum_{i<=j} D_{i+1}^j J_a(i) rho_{i-1}
        # obey w_j = E_j z_j + src_j with z_j = w_{j-1} + coef D_a rho_{j-1};
        # z and ez = E_j z_j are what the gradients read.
        self._coef = 0.5 * dt
        src = self._coef * dhr[1:]
        cjd = self._coef * dhr[:-1]
        # as rows, w_j = w_{j-1} E_j^T + (cjd_j E_j^T + src_j)
        segs_t = self.segs.swapaxes(1, 2)
        layout = _scan_layout(segs_t) if _layout is None else _layout
        w = _scan(np.zeros((n, d2)), layout, cjd @ segs_t + src)
        self._z = w[:-1] + cjd
        self._ez = w[1:] - src
        # w[m] is the discretized derivative of the final state
        self.p, self.dp = measure(trajectory.final_state, povm), w[m] @ povm.coords.T

    # -- backward costate sweep -----------------------------------------------

    def _costates(self, weights: np.ndarray):
        """``lam[j, r, b] = (sum_y weights[r, b, y] e_y) D_{j+1}^m``, ``mu[j, r]``
        (j = 0..m), ``S_j``; b < n weights ``d(d_b p_y)/dV``, b = n ``dp_y/dV``."""
        m, n, segs = self.num_steps, self.num_params, self.segs
        rows, d2 = weights.shape[0], segs.shape[-1]

        # lam_{j-1} = lam_j E_j and mu_{j-1} = mu_j E_j + src_j: scans from
        # j = m down, over one layout of the reversed steps
        back = _scan_layout(segs[::-1])
        lam = _scan((weights @ self.effect_coords).reshape(-1, d2), back)[::-1]
        lam = lam.reshape(m + 1, rows, n + 1, d2)
        lam_b = lam[:, :, :n]
        if self._gens is None:
            # src_j = sum_b lam_{b,j} J_b(j), using lam_{b,j} E_j = lam_{b,j-1}
            dh = self.dh0_dirs.reshape(n * d2, d2)
            ld = _blocked(lam_b.reshape(-1, n * d2), dh).reshape(m + 1, rows, d2)
            src = (ld[1:] @ segs + ld[:-1]) * self._coef
        else:  # src_j is the state slot of (lam_{b,j}, 0) P(A~_j)
            left = np.concatenate([lam_b[1:], np.zeros_like(lam[1:, :, n:])], axis=2)
            ends, s = _taylor_pairs(self._gens, self._passes, self.dt, self.dt * self.dh0_dirs,
                                    left, self._xvecs)
            src = ends[:, :, n]
        mu = _scan(np.zeros((rows, d2)), back, src[::-1])[::-1]
        if self._gens is not None:  # the rest of lam~'s state slot pairs with the states
            s += _taylor_pairs(self._gens, self._passes, self.dt, self.dh0_dirs[:0],
                               (lam[1:, :, n] + mu[1:])[:, :, None], self.rvecs[:-1, None])[1]
            return lam, mu, s

        # trapezoid: the pairs with forward vector rho_j or rho_{j-1} share a costate
        coef, rvecs = self._coef, self.rvecs
        shared = mu[1:] + lam[1:, :, n] + coef * ld[1:]
        left = [shared[:, :, None], (shared @ segs)[:, :, None], lam_b[1:], lam_b[:-1]]
        right = [coef * rvecs[1:, None], coef * rvecs[:-1, None],
                 coef * self._ez, coef * self._z]
        pairs_l = np.concatenate(left, axis=2)  # (m, rows, T, d^2)
        pairs_r = np.concatenate(right, axis=1)  # (m, T, d^2)
        return lam, mu, pairs_l.swapaxes(2, 3) @ pairs_r[:, None]

    # -- gradient grids -----------------------------------------------------------

    def _check_indices(self, k: int, j: int, *params: int):
        if not all(map(is_integer, (k, j, *params))):
            raise DimensionMismatch(f"indices must be integers, got {(k, j, *params)}")
        if not 0 <= k < self.num_fields:
            raise DimensionMismatch(f"field index {k} out of range")
        if not 1 <= j <= self.num_steps:
            raise DimensionMismatch(f"step index {j} out of range (1..{self.num_steps})")
        if not all(0 <= a < self.num_params for a in params):
            raise DimensionMismatch(f"parameter index out of range in {params}")

    def _grid(self, weights: np.ndarray) -> np.ndarray:
        """``grid[r, k, j-1] = sum(C_k * S_j)`` for the effect weights
        ``weights[r]`` (:meth:`_costates`): the one pass behind every gradient."""
        s = self._costates(weights)[2]
        m, rows, d2 = s.shape[:3]
        ctrl = self.ctrl_dirs.reshape(len(self.ctrl_dirs), d2 * d2)
        grid = _blocked(s.reshape(m * rows, d2 * d2), ctrl.T)  # (m rows, p)
        return grid.reshape(m, rows, -1).transpose(1, 2, 0)

    def _weights(self, gs: np.ndarray) -> np.ndarray:
        """Effect weights ``(r, n+1, n_out)`` for ``sum_ab gs[r, a, b] dF_ab/dV``,
        ``gs`` symmetric: ``2 gs s1`` and ``-s1^T gs s1`` with the scores ``s1[a,
        y] = d_a p_y / p_y``, zero where :func:`usable_outcomes` is False."""
        usable = usable_outcomes(self.p, self.dp)
        p_safe = np.where(usable, self.p, 1.0)
        s1 = np.where(usable, self.dp / p_safe, 0.0)
        gs1 = gs @ s1
        return np.concatenate([2.0 * gs1, -np.sum(s1 * gs1, axis=1)[:, None]], axis=1)

    def _ensure_backward(self) -> np.ndarray:
        """Identity-weight grids, cached: one weight row per outcome y for
        ``dp_y`` and per (parameter, outcome) pair for ``d_a p_y``."""
        if self._backward is None:
            n, n_out = self.num_params, len(self.effect_coords)
            rows = (n + 1) * n_out
            self._backward = self._grid(np.eye(rows).reshape(rows, n + 1, n_out))
        return self._backward

    def _gradient_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """``dprob[y, k, j-1] = dp_y/dV_k(j)`` and ``ddprob[y, a, k, j-1] =
        d(d_a p_y)/dV_k(j)``."""
        n, n_out = self.num_params, len(self.effect_coords)
        grid = self._ensure_backward().reshape(n + 1, n_out, self.num_fields, self.num_steps)
        return grid[n], grid[:n].swapaxes(0, 1)

    # -- public gradients ------------------------------------------------------------

    def prob_gradient(self, k: int, j: int) -> np.ndarray:
        self._check_indices(k, j)
        return self._gradient_grids()[0][:, k, j - 1].copy()

    def dprob_gradient(self, a: int, k: int, j: int) -> np.ndarray:
        self._check_indices(k, j, a)
        return self._gradient_grids()[1][:, a, k, j - 1].copy()

    def cfim_entry_gradient(self, a: int, b: int, k: int, j: int) -> float:
        self._check_indices(k, j, a, b)
        return float(self.cfim_gradient_grid()[a, b, k, j - 1])

    def cfim_gradient_grid(self) -> np.ndarray:
        """All entry gradients at once: shape (n_par, n_par, p, m), the
        identity-weight grids weighted by the symmetric unit matrices."""
        n = self.num_params
        units = np.eye(n * n).reshape(n * n, n, n)  # e_a e_b^T, row a n + b
        weights = self._weights(0.5 * (units + units.swapaxes(1, 2))).reshape(n * n, -1)
        grid = self._ensure_backward()
        return (weights @ grid.reshape(len(grid), -1)).reshape(
            n, n, self.num_fields, self.num_steps)

    def objective_gradient(self, objective: str) -> np.ndarray:
        """Gradient grid (num_fields x num_steps) of a scalar objective of the
        information matrix, by one reverse pass with the chain rule folded
        into the effect covectors."""
        g = _objective(objective)[1](self.current_cfim())
        return self._grid(self._weights(g[None]))[0]

    def current_cfim(self) -> FisherMatrix:
        """The classical information matrix of the final state, built once."""
        if self._cfim is None:
            self._cfim = cfim(self.p, self.dp)
        return self._cfim


def _objective(name: str) -> tuple:
    """The ``(value, dphi/dF)`` pair of :data:`~fisherctl.fisher.OBJECTIVES`."""
    if not isinstance(name, str) or name not in OBJECTIVES:
        raise FisherctlError(f"unknown objective {name!r}; expected one of {tuple(OBJECTIVES)}")
    return OBJECTIVES[name]


def gradient_objective(trajectory: Trajectory, povm: Povm, objective: str) -> np.ndarray:
    """Chain-rule gradient grid (num_fields x num_steps) of a scalar objective."""
    return GradientContext(trajectory, povm).objective_gradient(objective)


# -- ascent loop ----------------------------------------------------------------------


def _clip(amps: np.ndarray, bound: float | None) -> np.ndarray:
    return amps if bound is None else np.clip(amps, -bound, bound)


def _initial_controls(model, t: float, m: int, config: GrapeConfig) -> ControlGrid:
    p = len(model.control_hams)
    if config.init_scheme == "zeros":
        amps = np.zeros((p, m))
    elif config.init_scheme == "random":
        rng = np.random.default_rng(config.init_seed)
        amps = rng.uniform(-config.init_amplitude, config.init_amplitude, size=(p, m))
    else:
        amps = np.asarray(config.user_controls, dtype=float)
        if amps.shape != (p, m):
            raise DimensionMismatch(f"user controls shape {amps.shape} != ({p}, {m})")
    return ControlGrid(p, m, t, _clip(amps, config.amplitude_bound), config.amplitude_bound)


def _bfgs_direction(pairs: list, g: np.ndarray) -> np.ndarray:
    """``H g`` for the BFGS inverse Hessian that the secant pairs ``(s, y,
    1/s.y)``, oldest first, build from ``H_0 = gamma I`` with ``gamma =
    s.y / y.y`` of the newest pair: the two-loop recursion."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q


def optimize(model, x_true, probe, povm, t: float, config: GrapeConfig,
             objective: str | None = None) -> GrapeResult:
    """Run gradient-ascent pulse engineering at a fixed parameter point.

    Iterates propagate -> objective -> gradient -> update until the relative
    objective change stays below ``config.convergence_tol`` over
    :data:`CONVERGENCE_WINDOW` iterations or ``config.max_iters`` is hit.
    With backtracking enabled (the default) the recorded objective history is
    non-decreasing.  The reported information matrix and precision limit are
    re-evaluated at the final controls with exact state derivatives.
    ``probe``, ``povm`` and ``objective`` default to the model's (None).
    """
    if povm is None:
        povm = model.default_povm
    if objective is None:
        objective = model.default_objective
    value_of = _objective(objective)[0]
    x_true = np.asarray(x_true, dtype=float)
    m = num_steps(t, config.steps_per_unit)
    controls = _initial_controls(model, t, m, config)

    evaluations = 0

    def evaluate(grid: ControlGrid):
        nonlocal evaluations
        evaluations += 1
        traj, layout = _propagate(model, x_true, grid, probe, None)
        ctx = GradientContext(traj, povm, _layout=layout)
        val = value_of(ctx.current_cfim())
        if not math.isfinite(val):
            raise PropagationError(f"objective became non-finite ({val})")
        return val, ctx

    obj, ctx = evaluate(controls)
    history = [obj]
    pairs = []  # BFGS secant pairs (s, y, 1/s.y) since the last reset
    grad_flat = ctx.objective_gradient(objective).reshape(-1)
    termination = "max_iters"
    iterations = 0
    # a fixed step is one trial, accepted without an ascent test
    fixed = config.fixed_step
    step_memory = config.step_size  # grows/shrinks with accepted steps

    for iterations in range(1, config.max_iters + 1):
        if config.update_rule == "bfgs":
            direction = _bfgs_direction(pairs, grad_flat)
            if float(direction @ grad_flat) <= 0:
                pairs.clear()  # reset a non-ascent approximation
                direction = grad_flat
            step = 1.0
        else:
            direction = grad_flat
            step = config.step_size if fixed else 2.0 * step_memory
        direction = direction.reshape(controls.num_fields, m)

        # the line search: halve the step until a trial point ascends
        accepted = evaluated = False
        for _ in range(1 if fixed else MAX_BACKTRACKS + 1):
            candidate = controls.with_amplitudes(
                _clip(controls.amplitudes + step * direction, config.amplitude_bound))
            try:
                new_obj, new_ctx = evaluate(candidate)
            except (PropagationError, SingularContribution):
                step *= 0.5
                continue
            evaluated = True
            if fixed or new_obj > obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # no ascent at line-search resolution
            termination = "line_search_stall" if evaluated else "numerical_failure"
            break
        step_memory = step

        new_grad = new_ctx.objective_gradient(objective).reshape(-1)
        if config.update_rule == "bfgs":
            s = (candidate.amplitudes - controls.amplitudes).reshape(-1)
            y = -(new_grad - grad_flat)  # gradients of the minimized (-objective)
            sy = float(s @ y)
            # a pair that fails the curvature test keeps the old approximation
            if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
                pairs.append((s, y, 1.0 / sy))

        controls, obj, grad_flat = candidate, new_obj, new_grad
        history.append(obj)

        if len(history) > CONVERGENCE_WINDOW:
            change = abs(history[-1] - history[-1 - CONVERGENCE_WINDOW])
            if change <= config.convergence_tol * max(abs(history[-1]), 1e-30):
                termination = "converged"
                break

    final_traj = propagate(model, x_true, controls, probe, deriv_method="exact")
    final_cfim = cfim(*measure_derivs(final_traj, povm))
    return GrapeResult(
        final_controls=controls,
        objective_history=tuple(history),
        final_cfim=final_cfim,
        final_tr_inv=tr_inv(final_cfim),
        iterations_used=iterations,
        evaluations=evaluations,
        termination=termination,
        objective=objective,
        final_objective=value_of(final_cfim),
    )
