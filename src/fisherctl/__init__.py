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

The names below load on first use and are never bound here: importing the
package imports no layer, so not numpy (``python -m fisherctl`` chooses the
BLAS thread count first), and every read sees the layer's current binding.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the layer that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "dynamics": "ControlGrid NoiseSpec Trajectory build_liouvillian measure "
                    "measure_derivs propagate step_liouvillians",
        "errors": "DimensionMismatch FisherctlError InvariantViolation PropagationError "
                  "SingularContribution",
        "fisher": "FisherMatrix cfim objective_f0 objective_fcle qfim tr_inv",
        "grape": "GradientContext GrapeConfig GrapeResult gradient_objective optimize",
        "models": "MODEL_NAMES ParametricModel bell_povm get_model model_magnetic_field "
                  "model_magnetic_field_cartesian model_xxz model_zz pm_povm",
        "operators": "Povm commutator_superop kron",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = _EXPORTS[name]  # an imported layer is bound here, as a package attribute
    return getattr(globals().get(layer) or _import_module(f".{layer}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
