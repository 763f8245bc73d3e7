"""Analytic control gradients of the classical information matrix and the
gradient-ascent pulse loop.

Response structure
------------------
Writing ``D_a^b`` for the propagator product over steps a..b (identity when
a > b) and ``J_X(j)`` for the within-step insertion of a generator direction
X into step j, the responses behind the gradients are

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
``w_{a,j}``) meets a backward costate sweep.  A weight row ``W`` asks for
``sum_{b<n, y} W[b, y] d(d_b p_y)/dV + sum_y W[n, y] dp_y/dV``; its effect
covectors are folded before the sweep:

* ``lam_{b,j} = (sum_y W[b, y] e_y) D_{j+1}^m`` for b = 0..n, with
  ``lam_{j-1} = lam_j E_j``;
* one ``mu_j = sum_{b<n} (sum_y W[b, y] e_y) G_{b,j}``, with ``mu_{j-1} =
  mu_j E_j + sum_b lam_{b,j} J_b(j)`` and ``mu_m = 0``.

The scalar objective ``phi(F)`` needs a single row: with ``G =
dphi/dF`` and the scores ``s1[a, y] = d_a p_y / p_y``, ``W[b, y] = 2 sum_a
G_ab s1[a, y]`` and ``W[n, y] = -sum_ab G_ab s1[a, y] s1[b, y]``.  Its
gradient is thus backpropagated directly (de Fouquieres et al., J. Magn.
Reson. 212, 412 (2011)) with n + 1 ``lam`` rows and one ``mu`` row, where
the per-outcome responses carry n_out ``lam`` and n_out n ``mu`` rows; the
``(n, n, p, m)`` information-matrix grid is never formed.  Identity weights
(one row per outcome and per (parameter, outcome) pair) give the per-outcome
grids ``dprob[y, k, j]`` and ``ddprob[y, a, k, j]``; every public
per-index gradient is a slice of them, and the information-matrix grid is
their score-weighted sum over outcomes.

Each term of a response is ``L C_k R``: a costate covector ``L`` and a
forward vector ``R`` of step j around ``C_k = -i ad(H_k)``, the generator
direction of control k.  The pairs of one step are summed into ``S_j =
sum_t L_t^T R_t`` (d^2 x d^2), and the weighted gradient is ``sum(C_k *
S_j)``, so every contraction is a batched matrix product over the steps,
each product small enough to stay on one thread: O(r n m d^4) flops for r
weight rows, with no p x n x m x d^2 intermediate.

Real coordinates
----------------
All of it runs in the real coordinates of the Hermitian basis that
:func:`~fisherctl.dynamics.propagate` uses
(:func:`~fisherctl.operators.hermitian_basis`): the propagators, the
directions ``C_k`` and ``D_a = -i ad(dH0_a)``, the states, the effect
covectors ``e_y`` (``p_y = e_y . rho``) and hence every costate, forward sum
and grid are float64, with the ``-i`` of each insertion inside its direction
and the quadrature weights real.

Quadrature
----------
The insertion ``J_X(j)`` discretizes the within-step integral
``int_0^dt exp((dt-s) L_j) X exp(s L_j) ds`` by quadrature: "simpson"
(default for the standalone gradient functions; bias is fourth order in dt)
or "trapezoid" (used inside the ascent loop where per-iteration cost
matters; bias is second order).  The textbook end-point form of these
gradients is first order in dt and misses finite-difference checks at
practical grid densities, which is why the refined quadratures are used.

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
applies the BFGS matrix they build from ``H_0 = I`` to the gradient by the
two-loop recursion (Nocedal, Math. Comp. 35, 773 (1980)) over every pair.
With no memory cap this is the same matrix as the dense update, at O(k p m)
work and memory for k stored pairs.  Every operation acts on length-(p m)
vectors, too small to wake a BLAS worker thread; stacking the pairs into one
(k, p m) matrix product would reach that threshold again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ControlGrid,
    Trajectory,
    _distinct_steps,
    _step_propagators,
    check_amplitude_bound,
    measure,
    measure_derivs,
    propagate,
)
from .errors import (
    DimensionMismatch,
    FisherctlError,
    InvariantViolation,
    PropagationError,
    SingularContribution,
)
from .fisher import EPS_P, FisherMatrix, cfim, objective_f0, objective_fcle, tr_inv
from .operators import Povm, basis_coords

__all__ = [
    "GradientContext",
    "GrapeConfig",
    "GrapeResult",
    "gradient_cfim_entry",
    "gradient_dprob",
    "gradient_objective",
    "gradient_prob",
    "num_steps",
    "optimize",
]

OBJECTIVES = ("f0", "fcle")
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
    "bfgs" (quasi-Newton over the flattened control vector: exact BFGS from
    every secant pair since the last reset, applied by the two-loop
    recursion, with a backtracking line search from unit step).
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
        if not self.step_size > 0:
            raise InvariantViolation("step_size must be positive")
        if self.max_iters < 1:
            raise InvariantViolation("max_iters must be >= 1")
        if self.steps_per_unit < 1:
            raise InvariantViolation("steps_per_unit must be >= 1")
        if self.init_seed < 0:
            raise InvariantViolation("init_seed must be nonnegative")
        check_amplitude_bound(self.amplitude_bound)
        if not self.convergence_tol > 0:
            raise InvariantViolation("convergence_tol must be positive")
        if self.init_scheme not in ("zeros", "random", "user"):
            raise InvariantViolation(f"unknown init_scheme {self.init_scheme!r}")
        if self.update_rule not in ("gradient", "bfgs"):
            raise InvariantViolation(f"unknown update_rule {self.update_rule!r}")
        if self.init_scheme == "user" and self.user_controls is None:
            raise InvariantViolation("init_scheme 'user' requires user_controls")
        if self.fixed_step and self.update_rule != "gradient":
            raise InvariantViolation("fixed_step needs update_rule 'gradient'")


def num_steps(t: float, steps_per_unit: int) -> int:
    """Control steps of a grid of duration t at the given density."""
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


def _half_step_propagators(trajectory: Trajectory) -> np.ndarray:
    """exp(dt/2 L_j) for every step, reusing the uniform-grid shortcut."""
    controls = trajectory.controls
    halves = _step_propagators(trajectory.model, trajectory.x,
                               _distinct_steps(controls), 0.5 * trajectory.dt)
    return np.broadcast_to(halves, (controls.num_steps,) + halves.shape[1:])


class GradientContext:
    """Per-trajectory workspace for the analytic control gradients.

    The forward insertion sums (enough for probabilities, their parameter
    derivatives and hence the objective value) are built eagerly; the
    backward sweeps needed for control gradients are built on first use.
    Step indices ``j`` are 1-based, matching control grid columns
    ``amplitudes[:, j-1]``.
    """

    def __init__(self, trajectory: Trajectory, povm: Povm, insertion: str = "simpson"):
        model = trajectory.model
        if povm.dim != model.dim:
            raise DimensionMismatch("POVM dimension does not match the model")
        if insertion not in ("simpson", "trapezoid"):
            raise InvariantViolation(f"unknown insertion rule {insertion!r}")
        self.trajectory = trajectory
        self.povm = povm
        self.insertion = insertion
        dt = trajectory.dt
        self.dt = dt
        m = trajectory.num_steps
        d2 = model.dim**2
        self.num_steps = m
        self.num_fields = len(model.control_hams)
        self.num_params = n = model.num_params

        self.segs = trajectory.segment_propagators
        self.rvecs = trajectory.coords

        self.ctrl_dirs = model.control_dirs
        self.dh0_dirs = model.at(trajectory.x).dh0_dirs
        # (d^2, n d^2): a row vector times it applies every direction D_a =
        # -i[dH0_a, .] at once; products stay one small matrix per step, below
        # OpenBLAS's threading threshold
        dh_cols = self.dh0_dirs.transpose(2, 0, 1).reshape(d2, n * d2)
        dhr = (self.rvecs[:, None] @ dh_cols).reshape(m + 1, n, d2)  # D_a rho_j

        # Forward insertion sums w[j, a] = sum_{i<=j} D_{i+1}^j J_a(i) rho_{i-1}
        # obey w_j = E_j z_j + src_j with z_j = w_{j-1} + coef D_a rho_{j-1};
        # z and ez = E_j z_j are what the gradients read.
        if insertion == "simpson":
            self._coef = dt / 6.0
            self.halves = _half_step_propagators(trajectory)
            # hvecs[j-1] = exp(dt/2 L_j) rho_{j-1}, dhh[j-1, a] = D_a hvecs[j-1]
            # and hdhh[j-1, a] = exp(dt/2 L_j) dhh[j-1, a]
            self.hvecs = (self.halves @ self.rvecs[:-1, :, None])[..., 0]
            self._dhh = (self.hvecs[:, None] @ dh_cols).reshape(m, n, d2)
            self._hdhh = self._dhh @ self.halves.swapaxes(1, 2)
            src = self._coef * (dhr[1:] + 4.0 * self._hdhh)
        else:
            self._coef = 0.5 * dt
            self.halves = self.hvecs = None
            src = self._coef * dhr[1:]
        cjd = self._coef * dhr[:-1]
        w = np.zeros((m + 1, n, d2))
        ez = np.empty((m, n, d2))
        segs_t = self.segs.swapaxes(1, 2)
        for j in range(m):
            ez[j] = (w[j] + cjd[j]) @ segs_t[j]
            w[j + 1] = ez[j] + src[j]
        self._z = w[:-1] + cjd
        self._ez = ez

        # Measurement data.  Derivatives follow the trajectory when present;
        # otherwise w[m] is the discretized derivative of the final state.
        self.p = measure(trajectory.final_state, povm)
        drho = w[m] if trajectory.deriv_coords is None else trajectory.deriv_coords[:, -1]
        # p_y = e_y . rho in coordinates
        self.effect_coords = basis_coords(np.stack(povm.effects))
        self.dp = drho @ self.effect_coords.T

        self._active = self.p > EPS_P
        self._backward = self._grids = self._cfim = None

    # -- backward costate sweep -----------------------------------------------

    def _costates(self, weights: np.ndarray):
        """Backward sweep of the weighted effect covectors.

        ``weights[r, b, y]`` weights ``d(d_b p_y)/dV`` for b < n and
        ``dp_y/dV`` for b = n.  Returns ``lam[j, r, b] = (sum_y weights[r, b, y]
        e_y) D_{j+1}^m`` and ``mu[j, r]``, indexed by step j = 0..m, followed by
        the products the contraction reuses: ``ld[j, r] = sum_b lam[j, r, b]
        D_b`` and, for simpson (else None), ``lamh = lam_b exp(dt/2 L_j)``,
        ``lhd = sum_b lamh_b D_b`` and ``lhdh = lhd exp(dt/2 L_j)`` for j =
        1..m, with ``D_b = -i[dH0_b, .]``.
        """
        m, n = self.num_steps, self.num_params
        segs, halves = self.segs, self.halves
        rows, d2 = weights.shape[0], segs.shape[-1]
        dh = self.dh0_dirs.reshape(n * d2, d2)

        lam = np.empty((m + 1, rows * (n + 1), d2))
        lam[m] = (weights @ self.effect_coords).reshape(-1, d2)
        for j in range(m, 0, -1):
            lam[j - 1] = lam[j] @ segs[j - 1]
        lam = lam.reshape(m + 1, rows, n + 1, d2)
        lam_b = lam[:, :, :n]

        # ins[j-1, r] = sum_b lam_{b,j} J_b(j), using lam_{b,j} E_j = lam_{b,j-1}
        ld = lam_b.reshape(m + 1, rows, n * d2) @ dh
        ins = ld[1:] @ segs + ld[:-1]
        lamh = lhd = lhdh = None
        if self.insertion == "simpson":
            lamh = (lam_b[1:].reshape(m, rows * n, d2) @ halves).reshape(m, rows, n, d2)
            lhd = lamh.reshape(m, rows, n * d2) @ dh
            lhdh = lhd @ halves
            ins += 4.0 * lhdh
        ins *= self._coef

        mu = np.zeros((m + 1, rows, d2))
        for j in range(m, 0, -1):
            mu[j - 1] = mu[j] @ segs[j - 1] + ins[j - 1]
        return lam, mu, ld, lamh, lhd, lhdh

    def _ensure_backward(self):
        """Identity-weight costates, cached: one weight row per outcome y for
        ``dp_y`` and per (parameter, outcome) pair for ``d_a p_y``, as the
        per-outcome grids read them."""
        if self._backward is None:
            n, n_out = self.num_params, len(self.effect_coords)
            rows = (n + 1) * n_out
            self._backward = self._costates(np.eye(rows).reshape(rows, n + 1, n_out))
        return self._backward

    # -- gradient grids -----------------------------------------------------------

    def _check_indices(self, k: int, j: int):
        if not 0 <= k < self.num_fields:
            raise DimensionMismatch(f"field index {k} out of range")
        if not 1 <= j <= self.num_steps:
            raise DimensionMismatch(f"step index {j} out of range (1..{self.num_steps})")

    def _contract(self, lam, mu, ld, lamh, lhd, lhdh) -> np.ndarray:
        """``grid[r, k, j-1]``: the weighted response sums of weight row r.

        Each step pairs the costates (left) with forward vectors (right);
        ``S_j = sum_t L_t^T R_t`` and ``grid[r, k, j-1] = sum(C_k * S_j)``.
        """
        m, n = self.num_steps, self.num_params
        coef, segs, rvecs = self._coef, self.segs, self.rvecs
        rows, d2 = mu.shape[1], mu.shape[2]
        lam_b = lam[:, :, :n]
        # every pair whose forward vector is rho_j, rho_{j-1} or (simpson)
        # exp(dt/2 L_j) rho_{j-1} shares one costate
        shared = mu[1:] + lam[1:, :, n] + coef * ld[1:]
        shared_e = shared @ segs
        if self.insertion == "simpson":
            c4 = 0.25 * self.dt  # trapezoid insert over the half step
            shared_e += 4.0 * c4 * lhdh
            shared_h = shared @ self.halves + c4 * lhd
            left = [shared[:, :, None], shared_e[:, :, None], shared_h[:, :, None],
                    lam_b[1:], lamh, lam_b[:-1]]
            right = [coef * rvecs[1:, None], coef * rvecs[:-1, None],
                     4.0 * coef * self.hvecs[:, None],
                     coef * (self._ez + 4.0 * c4 * self._hdhh),
                     4.0 * coef * (self._z @ self.halves.swapaxes(1, 2) + c4 * self._dhh),
                     coef * self._z]
        else:
            left = [shared[:, :, None], shared_e[:, :, None], lam_b[1:], lam_b[:-1]]
            right = [coef * rvecs[1:, None], coef * rvecs[:-1, None],
                     coef * self._ez, coef * self._z]
        pairs_l = np.concatenate(left, axis=2)  # (m, rows, T, d^2)
        pairs_r = np.concatenate(right, axis=1)  # (m, T, d^2)
        s = pairs_l.swapaxes(2, 3) @ pairs_r[:, None]  # (m, rows, d^2, d^2)
        ctrl = self.ctrl_dirs.reshape(len(self.ctrl_dirs), d2 * d2)
        grid = s.reshape(m, rows, d2 * d2) @ ctrl.T  # (m, rows, p)
        return grid.transpose(1, 2, 0)

    def _gradient_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``dprob[y, k, j-1] = dp_y/dV_k(j)`` and
        ``ddprob[y, a, k, j-1] = d(d_a p_y)/dV_k(j)``."""
        if self._grids is None:
            n, n_out = self.num_params, len(self.effect_coords)
            grid = self._contract(*self._ensure_backward())
            grid = grid.reshape(n + 1, n_out, self.num_fields, self.num_steps)
            self._grids = grid[n], grid[:n].swapaxes(0, 1)
        return self._grids

    def _scores(self) -> tuple[np.ndarray, np.ndarray]:
        """``s1[a, y] = d_a p_y / p_y`` and ``s2[a, b, y] = d_a p_y d_b p_y /
        p_y^2``, zero on inactive outcomes."""
        p_safe = np.where(self._active, self.p, 1.0)
        s1 = np.where(self._active, self.dp / p_safe, 0.0)
        s2 = np.where(self._active, self.dp[:, None] * self.dp[None] / p_safe**2, 0.0)
        return s1, s2

    # -- public gradients ------------------------------------------------------------

    def prob_gradient(self, k: int, j: int) -> np.ndarray:
        self._check_indices(k, j)
        return self._gradient_grids()[0][:, k, j - 1].copy()

    def dprob_gradient(self, a: int, k: int, j: int) -> np.ndarray:
        self._check_indices(k, j)
        return self._gradient_grids()[1][:, a, k, j - 1].copy()

    def cfim_entry_gradient(self, a: int, b: int, k: int, j: int) -> float:
        self._check_indices(k, j)
        return float(self.cfim_gradient_grid()[a, b, k, j - 1])

    def cfim_gradient_grid(self) -> np.ndarray:
        """All entry gradients at once: shape (n_par, n_par, p, m).

        The entry (a, b) is ``sum_y s1[a, y] ddprob[y, b] + s1[b, y]
        ddprob[y, a] - s2[a, b, y] dprob[y]``.
        """
        dprob, ddprob = self._gradient_grids()
        s1, s2 = self._scores()
        n_out = len(dprob)
        t = sum(s1[:, y, None, None, None] * ddprob[y] for y in range(n_out))
        # summed outcome by outcome so the grid is symmetric in (a, b) bit for bit
        pair = sum(s2[:, :, y, None, None] * dprob[y] for y in range(n_out))
        return t + t.transpose(1, 0, 2, 3) - pair

    def objective_gradient(self, objective: str) -> np.ndarray:
        """Gradient grid (num_fields x num_steps) of a scalar objective of the
        information matrix, by one reverse pass with the chain rule folded
        into the effect covectors."""
        g = _objective_derivative(objective, self.current_cfim().matrix)
        s1, _ = self._scores()
        gs1 = g @ s1
        # one weight row: 2 G s1 on d(d_b p_y) and -s1^T G s1 on dp_y
        weights = np.concatenate([2.0 * gs1, -np.sum(s1 * gs1, axis=0)[None]])
        return self._contract(*self._costates(weights[None]))[0]

    def current_cfim(self) -> FisherMatrix:
        """The classical information matrix of the final state, built once."""
        if self._cfim is None:
            self._cfim = cfim(self.p, self.dp)
        return self._cfim


def gradient_prob(trajectory: Trajectory, povm: Povm, k: int, j: int) -> np.ndarray:
    """Per-outcome gradient of the outcome probabilities w.r.t. ``V_k(j)``.

    ``j`` is 1-based (step index); returns one value per POVM outcome.
    """
    return GradientContext(trajectory, povm).prob_gradient(k, j)


def gradient_dprob(trajectory: Trajectory, povm: Povm, a: int, k: int, j: int) -> np.ndarray:
    """Per-outcome gradient of the probability derivative ``d_a p`` w.r.t. ``V_k(j)``."""
    return GradientContext(trajectory, povm).dprob_gradient(a, k, j)


def gradient_cfim_entry(trajectory: Trajectory, povm: Povm, a: int, b: int,
                        k: int, j: int) -> float:
    """Gradient of the classical information-matrix entry (a, b) w.r.t.
    ``V_k(j)``; symmetric in (a, b) by construction."""
    return GradientContext(trajectory, povm).cfim_entry_gradient(a, b, k, j)


def _objective_value(objective: str, f: FisherMatrix) -> float:
    if objective == "f0":
        return objective_f0(f)
    if objective == "fcle":
        return objective_fcle(f)
    raise FisherctlError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")


def _objective_derivative(objective: str, fmat: np.ndarray) -> np.ndarray:
    """``G[a, b] = d objective / d F[a, b]``, symmetric, at the matrix ``fmat``."""
    if objective == "f0":
        diag = np.diag(fmat)
        if np.min(diag) <= 0:
            raise InvariantViolation("harmonic objective gradient needs positive diagonal")
        f0 = 1.0 / np.sum(1.0 / diag)
        return np.diag(f0**2 / diag**2)
    if objective == "fcle":
        if fmat.shape != (2, 2):
            raise DimensionMismatch("det/trace objective needs exactly two parameters")
        trf = fmat[0, 0] + fmat[1, 1]
        if trf <= 0:
            raise InvariantViolation("det/trace objective gradient needs positive trace")
        off = -fmat[0, 1] / trf
        return np.array([[(fmat[1, 1] ** 2 + fmat[0, 1] ** 2) / trf**2, off],
                         [off, (fmat[0, 0] ** 2 + fmat[0, 1] ** 2) / trf**2]])
    raise FisherctlError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")


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
    1/s.y)``, oldest first, build from ``H_0 = I``: the two-loop recursion."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
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
    x_true = np.asarray(x_true, dtype=float)
    m = num_steps(t, config.steps_per_unit)
    controls = _initial_controls(model, t, m, config)

    evaluations = 0

    def evaluate(grid: ControlGrid):
        nonlocal evaluations
        evaluations += 1
        traj = propagate(model, x_true, grid, probe, deriv_method=None)
        ctx = GradientContext(traj, povm, insertion="trapezoid")
        val = _objective_value(objective, ctx.current_cfim())
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
        final_objective=_objective_value(objective, final_cfim),
    )
