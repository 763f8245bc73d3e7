"""Catalog of the two-qubit estimation systems: free Hamiltonians, local
control fields, dephasing channels, probe states, measurements and the
reference parameter values used throughout the test grid.

Basis ordering is fixed to {|00>, |01>, |10>, |11>}; every serialized matrix
uses it.  All three systems share the six local control fields (the three
Pauli operators on each qubit).

A :class:`ParametricModel` owns its checked operators.  The probe and the
control Hamiltonians are checked once per model, and their generator
directions ``-i ad(H_k)`` built once; H0(x) and dH0(x) are checked once per
parameter point, and their directions ``-i ad(dH0/dx_a)`` and the free
generator L0(x) built once (:meth:`ParametricModel.at`).  The directions and
L0 are real matrices in the Hermitian basis of
:func:`~fisherctl.operators.hermitian_basis`, each changed to it by one
``T^dagger M T`` product.  Propagation and the gradients read only these, so
every path refuses the same malformed model and repeated propagation at one
point builds no superoperator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import NoiseSpec, _liouvillian, check_probe
from .errors import DimensionMismatch, FisherctlError
from .operators import I2, SX, SY, SZ, Povm, _ad, basis_superop, kron, validate_hermitian

__all__ = [
    "MODEL_NAMES",
    "ParametricModel",
    "PointOperators",
    "bell_povm",
    "get_model",
    "local_control_hams",
    "model_magnetic_field",
    "model_magnetic_field_cartesian",
    "model_xxz",
    "model_zz",
    "pm_povm",
]

SX1, SY1, SZ1 = (kron(s, I2) for s in (SX, SY, SZ))
SX2, SY2, SZ2 = (kron(I2, s) for s in (SX, SY, SZ))


class PointOperators(NamedTuple):
    """A model's operators at one point x, read-only: H0(x), the (n, d, d)
    stack of dH0/dx_a, and in the Hermitian basis the real (n, d^2, d^2)
    stack of directions ``-i ad(dH0/dx_a)`` and the real generator ``l0`` of
    ``build_liouvillian(H0(x), noise)``."""

    key: bytes
    h0: np.ndarray
    dh0: np.ndarray
    dh0_dirs: np.ndarray
    l0: np.ndarray


def _checked(h, dim: int, name: str) -> np.ndarray:
    h = validate_hermitian(h, name=name)
    if h.shape != (dim, dim):
        raise DimensionMismatch(f"{name} has shape {h.shape}, not ({dim}, {dim})")
    return h


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _directions(hams: np.ndarray) -> np.ndarray:
    # -i ad(H) of every checked H of a stack, in the Hermitian basis
    return basis_superop(-1j * np.stack([_ad(h) for h in hams]))


@dataclass(frozen=True)
class ParametricModel:
    """Bundle describing one parametric estimation system.

    ``h0`` maps a parameter vector to the free Hamiltonian and ``dh0`` maps it
    to the list of partial derivatives of the free Hamiltonian (constant
    operators for the coupling models, point-dependent for the field model).
    ``rates`` holds the dephasing rates the model was built with, one per
    qubit that can dephase, zeros included; ``noise`` keeps only the nonzero
    channels.  The checked operators are :attr:`probe`, :attr:`control_stack`,
    :attr:`control_dirs` and, per point, :meth:`at`.
    """

    name: str
    dim: int
    param_names: tuple
    h0: Callable[[np.ndarray], np.ndarray]
    dh0: Callable[[np.ndarray], list]
    control_hams: tuple
    noise: NoiseSpec
    default_probe: np.ndarray
    default_povm: Povm
    true_values: np.ndarray
    default_objective: str = "f0"
    rates: tuple = ()

    @property
    def num_params(self) -> int:
        return len(self.param_names)

    @cached_property
    def probe(self) -> np.ndarray:
        """``default_probe``, checked once: a density matrix of the model's
        dimension.  A read-only copy, so what was checked is what is used."""
        return _read_only(check_probe(self.default_probe, self.dim).copy())

    @cached_property
    def control_stack(self) -> np.ndarray:
        """The (p, d, d) stack of control Hamiltonians, read-only, each checked
        once: Hermitian and of the model's dimension."""
        return _read_only(np.stack([_checked(hk, self.dim, f"control Hamiltonian {k}")
                                    for k, hk in enumerate(self.control_hams)]))

    @cached_property
    def control_dirs(self) -> np.ndarray:
        """The real (p, d^2, d^2) stack of control directions ``-i ad(H_k)``
        in the Hermitian basis, read-only."""
        return _read_only(_directions(self.control_stack))

    def at(self, x) -> PointOperators:
        """The checked operators at x, one value per parameter, built once per
        point: the last point's entry is kept and served again while x is
        unchanged."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_params,):
            raise DimensionMismatch(f"model {self.name!r} takes {self.num_params} "
                                    f"parameter values, got shape {x.shape}")
        key = x.tobytes()
        # the entry is read and replaced as one object, so threads sharing the
        # model each get their own point's operators
        entry = self.__dict__.get("_point")
        if entry is None or entry.key != key:
            h0 = _checked(self.h0(x), self.dim, "free Hamiltonian")
            dh0 = np.stack([_checked(dh, self.dim, f"dH0/dx_{a}")
                            for a, dh in enumerate(self.dh0(x))])
            # h0 may be the caller's own array: the entry keeps a copy
            entry = PointOperators(key, _read_only(h0.copy()), _read_only(dh0),
                                   _read_only(_directions(dh0)),
                                   _read_only(basis_superop(_liouvillian(h0, self.noise))))
            self.__dict__["_point"] = entry
        return entry


def local_control_hams() -> tuple:
    """Six local control fields: sigma_1..3 on qubit 1, then on qubit 2."""
    return (SX1, SY1, SZ1, SX2, SY2, SZ2)


def _ket(amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex)
    return v / np.linalg.norm(v)


def bell_povm() -> Povm:
    """Projective measurement on the maximally entangled basis."""
    states = [
        _ket([1, 0, 0, 1]),   # Phi+
        _ket([1, 0, 0, -1]),  # Phi-
        _ket([0, 1, 1, 0]),   # Psi+
        _ket([0, 1, -1, 0]),  # Psi-
    ]
    return Povm.projective(("Phi+", "Phi-", "Psi+", "Psi-"), states)


def pm_povm() -> Povm:
    """Local projective measurement onto |+->-product states."""
    plus = _ket([1, 1])
    minus = _ket([1, -1])
    states = [np.kron(a, b) for a in (plus, minus) for b in (plus, minus)]
    return Povm.projective(("++", "+-", "-+", "--"), states)


def _pure(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def _linear(generators: list):
    """``h0`` and ``dh0`` of ``H0 = sum_a x_a G_a``, summed left to right."""

    def h0(x: np.ndarray) -> np.ndarray:
        h = x[0] * generators[0]
        for xa, ga in zip(x[1:], generators[1:]):
            h = h + xa * ga
        return h

    def dh0(x: np.ndarray) -> list:
        return list(generators)

    return h0, dh0


def _catalog_model(name, param_names, h0, dh0, rates, probe, povm, true_values,
                   objective="f0") -> ParametricModel:
    """A catalog model: two qubits, the six local control fields and sigma_3
    dephasing on qubit k at ``rates[k]`` (channels at rate 0 left out)."""
    rates = tuple(float(g) for g in rates)
    noise = NoiseSpec.dephasing([(a, g) for a, g in zip((SZ1, SZ2), rates) if g])
    return ParametricModel(
        name=name, dim=4, param_names=param_names, h0=h0, dh0=dh0,
        control_hams=local_control_hams(), noise=noise, default_probe=probe,
        default_povm=povm, true_values=true_values, default_objective=objective,
        rates=rates,
    )


def model_magnetic_field(dephasing_rate: float = 0.2) -> ParametricModel:
    """Field-sensing qubit plus ancilla.

    Free Hamiltonian ``B n(theta, phi) . sigma`` on qubit 1 with spherical
    parameters ``(B, theta, phi)``; dephasing (rate ``dephasing_rate``) acts on
    qubit 1 along sigma_3; probe is a maximally entangled pair measured in the
    entangled basis.
    """

    def h0(x: np.ndarray) -> np.ndarray:
        b, theta, phi = x
        return b * (
            np.sin(theta) * np.cos(phi) * SX1
            + np.sin(theta) * np.sin(phi) * SY1
            + np.cos(theta) * SZ1
        )

    def dh0(x: np.ndarray) -> list:
        b, theta, phi = x
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        d_b = st * cp * SX1 + st * sp * SY1 + ct * SZ1
        d_theta = b * (ct * cp * SX1 + ct * sp * SY1 - st * SZ1)
        d_phi = b * st * (-sp * SX1 + cp * SY1)
        return [d_b, d_theta, d_phi]

    return _catalog_model("magfield", ("B", "theta", "phi"), h0, dh0, (dephasing_rate,),
                          _pure(_ket([1, 0, 0, 1])), bell_povm(),
                          np.array([1.0, np.pi / 4, np.pi / 4]))


def model_magnetic_field_cartesian(dephasing_rate: float = 0.2) -> ParametricModel:
    """Field-sensing qubit plus ancilla, parameterized by the three Cartesian
    field components ``(B1, B2, B3)``.

    Same physical system, probe and measurement as
    :func:`model_magnetic_field`, linearized at the same field vector.  In
    this parameterization every generator has spectral spread 2, so the
    controlled noiseless optimum of the total variance is ``3/(4 T^2)``; in
    spherical coordinates the angle generators have smaller spread and the
    optimum differs by the Jacobian.
    """
    b, theta, phi = 1.0, np.pi / 4, np.pi / 4
    true_values = np.array([
        b * np.sin(theta) * np.cos(phi),
        b * np.sin(theta) * np.sin(phi),
        b * np.cos(theta),
    ])
    return _catalog_model("magfield-xyz", ("B1", "B2", "B3"), *_linear([SX1, SY1, SZ1]),
                          (dephasing_rate,), _pure(_ket([1, 0, 0, 1])), bell_povm(),
                          true_values)


def model_zz(dephasing_rates=(0.1, 0.1)) -> ParametricModel:
    """Two qubits with diagonal single-spin and coupling terms.

    ``H0 = w1 sigma_3^(1) + w2 sigma_3^(2) + g sigma_3^(1) sigma_3^(2)``; all
    three generators commute.  Probe |++>, local |+->-basis measurement,
    dephasing on both qubits.
    """
    plus = _ket([1, 1])
    g1, g2 = dephasing_rates
    return _catalog_model("zz", ("omega1", "omega2", "g"), *_linear([SZ1, SZ2, SZ1 @ SZ2]),
                          (g1, g2), _pure(np.kron(plus, plus)), pm_povm(),
                          np.array([1.0, 1.2, 0.1]))


def model_xxz(dephasing_rates=(0.1, 0.1)) -> ParametricModel:
    """Two exchange-coupled qubits with anisotropy.

    ``H0 = -x1 (sigma_1 sigma_1 + sigma_2 sigma_2) - x2 sigma_3 sigma_3``; the
    two generators commute.  Probe ``|0>(|0> + i|1>)/sqrt(2)``, local
    |+->-basis measurement, dephasing on both qubits.
    """
    g1, g2 = dephasing_rates
    return _catalog_model("xxz", ("x1", "x2"),
                          *_linear([-(SX1 @ SX2 + SY1 @ SY2), -(SZ1 @ SZ2)]), (g1, g2),
                          _pure(_ket([1, 1j, 0, 0])), pm_povm(), np.array([1.0, 1.2]),
                          objective="fcle")


MODEL_NAMES = ("magfield", "magfield-xyz", "zz", "xxz")
_BUILDERS = dict(zip(MODEL_NAMES, (model_magnetic_field, model_magnetic_field_cartesian,
                                   model_zz, model_xxz)))


def get_model(name: str, noise: bool = True, rates=None) -> ParametricModel:
    """Look up a catalog model by name, optionally overriding noise rates.

    ``noise=False`` builds the noiseless variant; ``rates`` overrides the
    default dephasing rates (one value for "magfield", two for the others).
    The defaults are those of the model's constructor: the model built with
    them is returned as is, or tells how many rates an override takes.
    """
    if name not in MODEL_NAMES:
        raise FisherctlError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    build = _BUILDERS[name]
    model = build()
    if noise and rates is None:
        return model
    count = len(model.rates)
    rates = (0.0,) * count if not noise else tuple(float(r) for r in rates)
    if len(rates) != count:
        raise FisherctlError(f"model {name!r} takes {count} dephasing rate(s), got {len(rates)}")
    return build(rates[0] if count == 1 else rates)
