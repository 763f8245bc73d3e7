"""Precision limits for multiparameter estimation under controlled
open-system dynamics, with gradient-ascent pulse synthesis.

Layers
------
``operators``   dense complex-matrix primitives and superoperator matrices
``dynamics``    Liouvillian assembly and piecewise-constant propagation
``fisher``      classical/quantum information matrices and objectives
``grape``       analytic control gradients and the ascent loop
``models``      the two-qubit estimation systems catalog
``oracles``     closed-form reference expressions for the catalog
``cli``         sweep/optimize/oracle/validate command line
"""

from .dynamics import (
    ControlGrid,
    NoiseSpec,
    Trajectory,
    build_liouvillian,
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
from .fisher import FisherMatrix, cfim, objective_f0, objective_fcle, qfim, tr_inv
from .grape import GradientContext, GrapeConfig, GrapeResult, gradient_objective, optimize
from .models import (
    MODEL_NAMES,
    ParametricModel,
    bell_povm,
    get_model,
    model_magnetic_field,
    model_magnetic_field_cartesian,
    model_xxz,
    model_zz,
    pm_povm,
)
from .operators import Povm, commutator_superop, kron

__version__ = "0.1.0"

__all__ = [
    "ControlGrid",
    "DimensionMismatch",
    "FisherMatrix",
    "FisherctlError",
    "GradientContext",
    "GrapeConfig",
    "GrapeResult",
    "InvariantViolation",
    "MODEL_NAMES",
    "NoiseSpec",
    "ParametricModel",
    "Povm",
    "PropagationError",
    "SingularContribution",
    "Trajectory",
    "bell_povm",
    "build_liouvillian",
    "cfim",
    "commutator_superop",
    "get_model",
    "gradient_objective",
    "kron",
    "measure",
    "measure_derivs",
    "model_magnetic_field",
    "model_magnetic_field_cartesian",
    "model_xxz",
    "model_zz",
    "objective_f0",
    "objective_fcle",
    "optimize",
    "pm_povm",
    "propagate",
    "qfim",
    "step_liouvillians",
    "tr_inv",
]
