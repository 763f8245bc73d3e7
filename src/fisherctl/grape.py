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
Every response is read only through an effect trace, so the left factors
``D_{j+1}^m`` and ``G_{a,j}`` are never formed as matrices.  As in GRAPE
(Khaneja et al., J. Magn. Reson. 172, 296 (2005)), a forward state sweep
(``rho_j`` and ``w_{a,j}``) meets a backward costate sweep that carries the
effect covectors ``e_y`` instead:

* ``lam_{y,j}  = e_y D_{j+1}^m``,  with ``lam_{j-1} = lam_j E_j``;
* ``mu_{y,a,j} = e_y G_{a,j}``,    with ``mu_{a,j-1} = mu_{a,j} E_j +
  lam_j J_a(j)`` and ``mu_{a,m} = 0``.

The backward sweep costs O(n_out n m d^4) flops and O(n_out n m d^2) memory,
against O(n m d^6) and O(n m d^4) for sweeping the matrices themselves.  One
grid builder contracts the forward insertions with these covectors into two
real grids, ``dprob[y, k, j]`` and ``ddprob[y, a, k, j]``; every public
gradient is a slice of them, and the information-matrix entry gradients are
their score-weighted sums over outcomes.

Quadrature
----------
The insertion ``J_X(j)`` discretizes the within-step integral
``int_0^dt exp((dt-s) L_j) X exp(s L_j) ds`` by quadrature: "simpson"
(default for the standalone gradient functions; bias is fourth order in dt)
or "trapezoid" (used inside the ascent loop where per-iteration cost
matters; bias is second order).  The textbook end-point form of these
gradients is first order in dt and misses finite-difference checks at
practical grid densities, which is why the refined quadratures are used.
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
from .operators import Povm, commutator_superop, vec

__all__ = [
    "GradientContext",
    "GrapeConfig",
    "GrapeResult",
    "gradient_cfim_entry",
    "gradient_dprob",
    "gradient_objective",
    "gradient_prob",
    "optimize",
]

OBJECTIVES = ("f0", "fcle")
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class GrapeConfig:
    """Knobs of the ascent loop.

    ``init_scheme`` is one of "zeros", "random" (uniform in
    [-init_amplitude, init_amplitude], seeded) or "user" (``user_controls``
    supplies the p x m amplitude grid).  ``update_rule`` is "gradient"
    (backtracking gradient ascent; plain fixed-step when ``fixed_step``) or
    "bfgs" (quasi-Newton over the flattened control vector).
    """

    step_size: float = 0.01
    max_iters: int = 1000
    convergence_tol: float = 1e-6
    convergence_window: int = 5
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
        if not self.convergence_tol > 0:
            raise InvariantViolation("convergence_tol must be positive")
        if self.init_scheme not in ("zeros", "random", "user"):
            raise InvariantViolation(f"unknown init_scheme {self.init_scheme!r}")
        if self.update_rule not in ("gradient", "bfgs"):
            raise InvariantViolation(f"unknown update_rule {self.update_rule!r}")
        if self.init_scheme == "user" and self.user_controls is None:
            raise InvariantViolation("init_scheme 'user' requires user_controls")


@dataclass(frozen=True)
class GrapeResult:
    """Outcome of one ascent run."""

    final_controls: ControlGrid
    objective_history: tuple
    final_cfim: FisherMatrix
    final_tr_inv: float
    iterations_used: int
    converged: bool
    objective: str
    final_objective: float


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
        d = model.dim
        self.num_steps = m
        self.num_fields = len(model.control_hams)
        self.num_params = model.num_params

        self.segs = trajectory.segment_propagators
        self.rvecs = np.stack([vec(s) for s in trajectory.states])  # (m+1, d^2)

        self.ctrl_comms = np.stack(
            [commutator_superop(hk).mat for hk in model.control_hams]
        )
        dh0 = model.dh0(trajectory.x)
        self.dh0_comms = np.stack([commutator_superop(dh).mat for dh in dh0])

        if insertion == "simpson":
            self._coef = -1j * dt / 6.0
            self.halves = _half_step_propagators(trajectory)
            # hvecs[j-1] = exp(dt/2 L_j) rho_{j-1}
            self.hvecs = np.einsum("jrs,js->jr", self.halves, self.rvecs[:-1])
        else:
            self._coef = -0.5j * dt
            self.halves = None
            self.hvecs = None

        # Forward insertion sums w[a, j] = sum_{i<=j} D_{i+1}^j J_a(i) rho_{i-1},
        # pre-insertion transports u[a, j] = E_j w[a, j-1] and (simpson only)
        # the half-step transports uh[a, j] = exp(dt/2 L_j) w[a, j-1].
        n = self.num_params
        d2 = d * d
        wsum = np.zeros((n, m + 1, d2), dtype=complex)
        usum = np.zeros_like(wsum)
        uhsum = np.zeros_like(wsum) if insertion == "simpson" else None
        dh_t = self.dh0_comms.transpose(0, 2, 1)
        for j in range(1, m + 1):
            e_j = self.segs[j - 1]
            w_prev = wsum[:, j - 1]
            u = w_prev @ e_j.T
            usum[:, j] = u
            if insertion == "simpson":
                uh = w_prev @ self.halves[j - 1].T
                uhsum[:, j] = uh
                wsum[:, j] = u + self._coef * (
                    self.rvecs[j] @ dh_t
                    + 4.0 * ((self.hvecs[j - 1] @ dh_t) @ self.halves[j - 1].T)
                    + (self.rvecs[j - 1] @ dh_t) @ e_j.T
                )
            else:
                wsum[:, j] = u + self._coef * (
                    self.rvecs[j] @ dh_t + (self.rvecs[j - 1] @ dh_t) @ e_j.T
                )
        self.wsum = wsum
        self.usum = usum
        self.uhsum = uhsum

        # Measurement data.  Derivatives follow the trajectory when present;
        # otherwise w[a, m] is the discretized derivative of the final state.
        self.p = measure(trajectory.final_state, povm)
        if trajectory.param_derivs is not None:
            drho_flat = trajectory.final_derivs.reshape(n, -1)
        else:
            drho_flat = wsum[:, m]
        self.effect_vecs = np.stack([np.conj(vec(e)) for e in povm.effects])
        self.dp = np.real(self.effect_vecs @ drho_flat.T).T

        self._active = self.p > EPS_P
        self._lam = self._mu = self._mu_e = self._mu_h = None
        self._grids = None

    # -- backward costate sweep -----------------------------------------------

    def _ensure_backward(self):
        """Effect covectors, indexed by step j = 0..m along the first axis:
        ``lam[j, y]``, ``mu[j, y, a]``, ``mu_e[j] = mu[j] E_j`` and (simpson)
        ``mu_h[j] = mu[j] exp(dt/2 L_j)``."""
        if self._lam is not None:
            return
        m = self.num_steps
        segs, halves, dh = self.segs, self.halves, self.dh0_comms
        lam = np.empty((m + 1,) + self.effect_vecs.shape, dtype=complex)
        lam[m] = self.effect_vecs
        for j in range(m, 0, -1):
            lam[j - 1] = lam[j] @ segs[j - 1]

        # ins[j-1, y, a] = lam_j J_a(j), using lam_j E_j = lam_{j-1}
        lam_dh = np.einsum("jyr,ars->jyas", lam, dh)
        ins = lam_dh[1:] @ segs[:, None] + lam_dh[:-1]
        if self.insertion == "simpson":
            lam_h = np.einsum("jyr,jrs->jys", lam[1:], halves)
            ins += 4.0 * (np.einsum("jyr,ars->jyas", lam_h, dh) @ halves[:, None])
        ins *= self._coef

        mu = np.zeros((m + 1,) + ins.shape[1:], dtype=complex)
        mu_e = np.zeros_like(mu)
        for j in range(m, 0, -1):
            mu_e[j] = mu[j] @ segs[j - 1]
            mu[j - 1] = mu_e[j] + ins[j - 1]
        if self.insertion == "simpson":
            self._mu_h = np.zeros_like(mu)
            self._mu_h[1:] = mu[1:] @ halves[:, None]
        self._lam, self._mu, self._mu_e = lam, mu, mu_e

    # -- gradient grids -----------------------------------------------------------

    def _check_indices(self, k: int, j: int):
        if not 0 <= k < self.num_fields:
            raise DimensionMismatch(f"field index {k} out of range")
        if not 1 <= j <= self.num_steps:
            raise DimensionMismatch(f"step index {j} out of range (1..{self.num_steps})")

    def _gradient_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``dprob[y, k, j-1] = dp_y/dV_k(j)`` and
        ``ddprob[y, a, k, j-1] = d(d_a p_y)/dV_k(j)``."""
        if self._grids is not None:
            return self._grids
        self._ensure_backward()
        coef = self._coef
        c2 = -0.5j * self.dt
        segs = self.segs
        simpson = self.insertion == "simpson"

        # hr[k, j] = [H_k, rho_j]; ehr[k, j] = E_j [H_k, rho_{j-1}]
        hr = np.einsum("krs,js->kjr", self.ctrl_comms, self.rvecs)
        ehr = np.einsum("jrs,kjs->kjr", segs, hr[:, :-1])
        if simpson:
            hhv = np.einsum("krs,js->kjr", self.ctrl_comms, self.hvecs)
            ehhv = np.einsum("jrs,kjs->kjr", self.halves, hhv)
            ins = coef * (hr[:, 1:] + 4.0 * ehhv + ehr)
        else:
            ins = coef * (hr[:, 1:] + ehr)  # J_k(j) rho_{j-1}, j = 1..m

        # past insertions: J_k(j) w_{a, j-1}
        hu = np.einsum("krs,ajs->akjr", self.ctrl_comms, self.usum[:, 1:])
        hw = np.einsum("krs,ajs->akjr", self.ctrl_comms, self.wsum[:, :-1])
        ehw = np.einsum("jrs,akjs->akjr", segs, hw)
        if simpson:
            huh = np.einsum("krs,ajs->akjr", self.ctrl_comms, self.uhsum[:, 1:])
            ehuh = np.einsum("jrs,akjs->akjr", self.halves, huh)
            ins_past = coef * (hu + 4.0 * ehuh + ehw)
        else:
            ins_past = coef * (hu + ehw)

        # same-step mix dJ_a(j)/dV_k(j) rho_{j-1}: the step propagators inside
        # J_a(j) differentiated in the V_k(j) direction, at the same
        # quadrature order as the main insertions
        jd = np.einsum("ars,js->ajr", self.dh0_comms, self.rvecs[:-1])  # j-1 slot
        ejd = np.einsum("jrs,ajs->ajr", segs, jd)
        hejd = np.einsum("krs,ajs->akjr", self.ctrl_comms, ejd)
        hjd = np.einsum("krs,ajs->akjr", self.ctrl_comms, jd)
        ehjd = np.einsum("jrs,akjs->akjr", segs, hjd)
        if simpson:
            c4 = -0.25j * self.dt  # trapezoid insert over the half step
            halves = self.halves
            # J_k over the full step applied to [dH0_a, rho_{j-1}]
            hhhjd = np.einsum("krs,ajs->akjr", self.ctrl_comms,
                              np.einsum("jrs,ajs->ajr", halves, jd))
            jk_full_jd = coef * (hejd + 4.0 * np.einsum(
                "jrs,akjs->akjr", halves, hhhjd) + ehjd)
            # half-step pieces
            jk_half_rho = c4 * (hhv + np.einsum("jrs,kjs->kjr", halves, hr[:, :-1]))
            xah = np.einsum("ars,js->ajr", self.dh0_comms, self.hvecs)
            hxah = np.einsum("krs,ajs->akjr", self.ctrl_comms,
                             np.einsum("jrs,ajs->ajr", halves, xah))
            ehxah = np.einsum("jrs,akjs->akjr", halves,
                              np.einsum("krs,ajs->akjr", self.ctrl_comms, xah))
            t4a = c4 * (hxah + ehxah)
            t4b = np.einsum("jrs,akjs->akjr", halves,
                            np.einsum("ars,kjs->akjr", self.dh0_comms, jk_half_rho))
            ins_cross = coef * (
                np.einsum("ars,kjs->akjr", self.dh0_comms, ins)
                + 4.0 * (t4a + t4b)
                + jk_full_jd
            )
        else:
            ins_k2 = c2 * (hr[:, 1:] + ehr)
            ins_cross = c2 * (
                np.einsum("ars,kjs->akjr", self.dh0_comms, ins_k2)
                + c2 * (hejd + ehjd)
            )

        # contract with the covectors: lam for R1, R2, RX; mu for R3
        lam = self._lam[1:]
        dprob = np.real(np.einsum("jys,kjs->ykj", lam, ins))
        resp = np.einsum("jys,akjs->yakj", lam, ins_past + ins_cross)
        future = np.einsum("jyas,kjs->yakj", self._mu[1:], hr[:, 1:])
        future += np.einsum("jyas,kjs->yakj", self._mu_e[1:], hr[:, :-1])
        if simpson:
            future += 4.0 * np.einsum("jyas,kjs->yakj", self._mu_h[1:], hhv)
        self._grids = dprob, np.real(resp + coef * future)
        return self._grids

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

        With score weights ``s1[a, y] = d_a p_y / p_y`` and ``s2[a, b, y] =
        s1[a, y] s1[b, y]`` (zero on inactive outcomes) the entry (a, b) is
        ``sum_y s1[a, y] ddprob[y, b] + s1[b, y] ddprob[y, a] - s2[a, b, y]
        dprob[y]``.
        """
        dprob, ddprob = self._gradient_grids()
        p_safe = np.where(self._active, self.p, 1.0)
        s1 = np.where(self._active, self.dp / p_safe, 0.0)
        s2 = np.where(self._active, self.dp[:, None] * self.dp[None] / p_safe**2, 0.0)
        t = np.einsum("ay,ybkj->abkj", s1, ddprob)
        # summed outcome by outcome so the grid is symmetric in (a, b) bit for bit
        pair = sum(s2[:, :, y, None, None] * dprob[y] for y in range(len(dprob)))
        return t + t.transpose(1, 0, 2, 3) - pair

    def current_cfim(self) -> FisherMatrix:
        return cfim(self.p, self.dp)


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


def _objective_gradient_from_grid(objective: str, fmat: np.ndarray,
                                  grid: np.ndarray) -> np.ndarray:
    n = fmat.shape[0]
    if objective == "f0":
        diag = np.diag(fmat)
        if np.min(diag) <= 0:
            raise InvariantViolation("harmonic objective gradient needs positive diagonal")
        f0 = 1.0 / np.sum(1.0 / diag)
        out = np.zeros_like(grid[0, 0])
        for a in range(n):
            out += (f0**2 / diag[a] ** 2) * grid[a, a]
        return out
    if objective == "fcle":
        if n != 2:
            raise DimensionMismatch("det/trace objective needs exactly two parameters")
        trf = fmat[0, 0] + fmat[1, 1]
        if trf <= 0:
            raise InvariantViolation("det/trace objective gradient needs positive trace")
        out = (fmat[1, 1] ** 2 + fmat[0, 1] ** 2) / trf**2 * grid[0, 0]
        out += (fmat[0, 0] ** 2 + fmat[0, 1] ** 2) / trf**2 * grid[1, 1]
        out -= (2 * fmat[0, 1] / trf) * grid[0, 1]
        return out
    raise FisherctlError(f"unknown objective {objective!r}")


def gradient_objective(trajectory: Trajectory, povm: Povm, objective: str) -> np.ndarray:
    """Chain-rule gradient grid (num_fields x num_steps) of a scalar objective."""
    ctx = GradientContext(trajectory, povm)
    fmat = ctx.current_cfim().matrix
    return _objective_gradient_from_grid(objective, fmat, ctx.cfim_gradient_grid())


# -- ascent loop ----------------------------------------------------------------------


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
    if config.amplitude_bound is not None:
        amps = np.clip(amps, -config.amplitude_bound, config.amplitude_bound)
    return ControlGrid(p, m, t, amps, config.amplitude_bound)


def _bfgs_update(hinv: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    sy = float(s @ y)
    if sy <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
        return hinv  # curvature condition failed; keep the old approximation
    rho = 1.0 / sy
    hy = hinv @ y
    yhy = float(y @ hy)
    term = np.outer(s, hy)
    return hinv - rho * (term + term.T) + rho**2 * (yhy + sy) * np.outer(s, s)


def optimize(model, x_true, probe, povm, t: float, config: GrapeConfig,
             objective: str | None = None) -> GrapeResult:
    """Run gradient-ascent pulse engineering at a fixed parameter point.

    Iterates propagate -> objective -> gradient -> update until the relative
    objective change stays below ``config.convergence_tol`` over
    ``config.convergence_window`` iterations or ``config.max_iters`` is hit.
    With backtracking enabled (the default) the recorded objective history is
    non-decreasing.  The reported information matrix and precision limit are
    re-evaluated at the final controls with exact state derivatives.
    """
    if probe is None:
        probe = model.default_probe
    if povm is None:
        povm = model.default_povm
    if objective is None:
        objective = model.default_objective
    x_true = np.asarray(x_true, dtype=float)
    m = max(1, round(config.steps_per_unit * t))
    controls = _initial_controls(model, t, m, config)

    def evaluate(grid: ControlGrid):
        traj = propagate(model, x_true, grid, probe, deriv_method=None)
        ctx = GradientContext(traj, povm, insertion="trapezoid")
        fm = ctx.current_cfim()
        val = _objective_value(objective, fm)
        if not math.isfinite(val):
            raise PropagationError(f"objective became non-finite ({val})")
        return val, fm, ctx

    obj, fmat, ctx = evaluate(controls)
    history = [obj]
    n_ctrl = controls.num_fields * m
    hinv = np.eye(n_ctrl) if config.update_rule == "bfgs" else None
    grad_flat = _objective_gradient_from_grid(
        objective, fmat.matrix, ctx.cfim_gradient_grid()
    ).reshape(-1)
    converged = False
    iterations = 0
    step_memory = config.step_size  # grows/shrinks with accepted steps

    for iterations in range(1, config.max_iters + 1):
        if config.update_rule == "bfgs":
            direction = hinv @ grad_flat
            if float(direction @ grad_flat) <= 0:
                hinv = np.eye(n_ctrl)  # reset a non-ascent approximation
                direction = grad_flat.copy()
            step0 = 1.0
        else:
            direction = grad_flat
            step0 = 2.0 * step_memory

        if config.fixed_step and config.update_rule == "gradient":
            new_amps = controls.amplitudes + config.step_size * direction.reshape(
                controls.num_fields, m
            )
            if config.amplitude_bound is not None:
                new_amps = np.clip(new_amps, -config.amplitude_bound, config.amplitude_bound)
            candidate = controls.with_amplitudes(new_amps)
            try:
                new_obj, new_fmat, new_ctx = evaluate(candidate)
            except (PropagationError, SingularContribution):
                converged = False
                break
            accepted = True
        else:
            accepted = False
            step = step0
            for _ in range(MAX_BACKTRACKS + 1):
                new_amps = controls.amplitudes + step * direction.reshape(
                    controls.num_fields, m
                )
                if config.amplitude_bound is not None:
                    new_amps = np.clip(
                        new_amps, -config.amplitude_bound, config.amplitude_bound
                    )
                candidate = controls.with_amplitudes(new_amps)
                try:
                    new_obj, new_fmat, new_ctx = evaluate(candidate)
                except (PropagationError, SingularContribution):
                    step *= 0.5
                    continue
                if new_obj > obj:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break  # stalled: no ascent at line-search resolution
            if config.update_rule == "gradient":
                step_memory = step

        new_grad = _objective_gradient_from_grid(
            objective, new_fmat.matrix, new_ctx.cfim_gradient_grid()
        ).reshape(-1)
        if config.update_rule == "bfgs":
            s = (candidate.amplitudes - controls.amplitudes).reshape(-1)
            y = -(new_grad - grad_flat)  # gradients of the minimized (-objective)
            hinv = _bfgs_update(hinv, s, y)

        controls, obj, fmat, ctx, grad_flat = candidate, new_obj, new_fmat, new_ctx, new_grad
        history.append(obj)

        w = config.convergence_window
        if len(history) > w:
            change = abs(history[-1] - history[-1 - w])
            if change <= config.convergence_tol * max(abs(history[-1]), 1e-30):
                converged = True
                break

    final_traj = propagate(model, x_true, controls, probe, deriv_method="exact")
    final_cfim = cfim(*measure_derivs(final_traj, povm))
    return GrapeResult(
        final_controls=controls,
        objective_history=tuple(history),
        final_cfim=final_cfim,
        final_tr_inv=tr_inv(final_cfim),
        iterations_used=iterations,
        converged=converged,
        objective=objective,
        final_objective=_objective_value(objective, final_cfim),
    )
