"""Catalog of the two-qubit estimation systems: free Hamiltonians, local
control fields, dephasing channels, probe states, measurements and the
reference parameter values used throughout the test grid.

Basis ordering is fixed to {|00>, |01>, |10>, |11>}; every serialized matrix
uses it.  All three systems share the six local control fields (the three
Pauli operators on each qubit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dynamics import NoiseSpec
from .errors import FisherctlError
from .operators import I2, SX, SY, SZ, Povm, commutator_superop, kron

__all__ = [
    "MODEL_NAMES",
    "ParametricModel",
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


@dataclass(frozen=True)
class ParametricModel:
    """Bundle describing one parametric estimation system.

    ``h0`` maps a parameter vector to the free Hamiltonian and ``dh0`` maps it
    to the list of partial derivatives of the free Hamiltonian (constant
    operators for the coupling models, point-dependent for the field model).
    ``rates`` holds the dephasing rates the model was built with, one per
    qubit that can dephase, zeros included; ``noise`` keeps only the nonzero
    channels.
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
    def control_comms(self) -> np.ndarray:
        """The (p, d^2, d^2) stack of ``ad(H_k)``, each ``H_k`` validated once."""
        comms = np.stack([commutator_superop(hk) for hk in self.control_hams])
        comms.flags.writeable = False
        return comms

    def dh0_comms(self, x) -> np.ndarray:
        """The (n, d^2, d^2) stack of ``ad(dH0/dx_a)`` at x, read-only.

        Built once per point: the last point's stack is kept and served again
        while x is unchanged.
        """
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        # the (key, stack) pair is read and replaced as one object, so threads
        # sharing the model each get their own point's stack
        cached = self.__dict__.get("_dh0_comms")
        if cached is None or cached[0] != key:
            comms = np.stack([commutator_superop(dh) for dh in self.dh0(x)])
            comms.flags.writeable = False
            cached = (key, comms)
            self.__dict__["_dh0_comms"] = cached
        return cached[1]


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

    probe = np.outer(_ket([1, 0, 0, 1]), _ket([1, 0, 0, 1]).conj())
    noise = NoiseSpec.dephasing([(SZ1, dephasing_rate)]) if dephasing_rate else NoiseSpec.none()
    return ParametricModel(
        name="magfield",
        dim=4,
        param_names=("B", "theta", "phi"),
        h0=h0,
        dh0=dh0,
        control_hams=local_control_hams(),
        noise=noise,
        default_probe=probe,
        default_povm=bell_povm(),
        true_values=np.array([1.0, np.pi / 4, np.pi / 4]),
        default_objective="f0",
        rates=(float(dephasing_rate),),
    )


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
    generators = [SX1, SY1, SZ1]

    def h0(x: np.ndarray) -> np.ndarray:
        return x[0] * generators[0] + x[1] * generators[1] + x[2] * generators[2]

    def dh0(x: np.ndarray) -> list:
        return list(generators)

    probe = np.outer(_ket([1, 0, 0, 1]), _ket([1, 0, 0, 1]).conj())
    noise = NoiseSpec.dephasing([(SZ1, dephasing_rate)]) if dephasing_rate else NoiseSpec.none()
    b, theta, phi = 1.0, np.pi / 4, np.pi / 4
    true_values = np.array([
        b * np.sin(theta) * np.cos(phi),
        b * np.sin(theta) * np.sin(phi),
        b * np.cos(theta),
    ])
    return ParametricModel(
        name="magfield-xyz",
        dim=4,
        param_names=("B1", "B2", "B3"),
        h0=h0,
        dh0=dh0,
        control_hams=local_control_hams(),
        noise=noise,
        default_probe=probe,
        default_povm=bell_povm(),
        true_values=true_values,
        default_objective="f0",
        rates=(float(dephasing_rate),),
    )


def model_zz(dephasing_rates=(0.1, 0.1)) -> ParametricModel:
    """Two qubits with diagonal single-spin and coupling terms.

    ``H0 = w1 sigma_3^(1) + w2 sigma_3^(2) + g sigma_3^(1) sigma_3^(2)``; all
    three generators commute.  Probe |++>, local |+->-basis measurement,
    dephasing on both qubits.
    """
    generators = [SZ1, SZ2, SZ1 @ SZ2]

    def h0(x: np.ndarray) -> np.ndarray:
        return x[0] * generators[0] + x[1] * generators[1] + x[2] * generators[2]

    def dh0(x: np.ndarray) -> list:
        return list(generators)

    plus = _ket([1, 1])
    probe_ket = np.kron(plus, plus)
    probe = np.outer(probe_ket, probe_ket.conj())
    g1, g2 = dephasing_rates
    pairs = [(SZ1, g1), (SZ2, g2)]
    noise = NoiseSpec.dephasing([(a, g) for a, g in pairs if g]) if any(dephasing_rates) \
        else NoiseSpec.none()
    return ParametricModel(
        name="zz",
        dim=4,
        param_names=("omega1", "omega2", "g"),
        h0=h0,
        dh0=dh0,
        control_hams=local_control_hams(),
        noise=noise,
        default_probe=probe,
        default_povm=pm_povm(),
        true_values=np.array([1.0, 1.2, 0.1]),
        default_objective="f0",
        rates=(float(g1), float(g2)),
    )


def model_xxz(dephasing_rates=(0.1, 0.1)) -> ParametricModel:
    """Two exchange-coupled qubits with anisotropy.

    ``H0 = -x1 (sigma_1 sigma_1 + sigma_2 sigma_2) - x2 sigma_3 sigma_3``; the
    two generators commute.  Probe ``|0>(|0> + i|1>)/sqrt(2)``, local
    |+->-basis measurement, dephasing on both qubits.
    """
    gen_xy = -(SX1 @ SX2 + SY1 @ SY2)
    gen_zz = -(SZ1 @ SZ2)
    generators = [gen_xy, gen_zz]

    def h0(x: np.ndarray) -> np.ndarray:
        return x[0] * generators[0] + x[1] * generators[1]

    def dh0(x: np.ndarray) -> list:
        return list(generators)

    probe_ket = _ket([1, 1j, 0, 0])
    probe = np.outer(probe_ket, probe_ket.conj())
    g1, g2 = dephasing_rates
    pairs = [(SZ1, g1), (SZ2, g2)]
    noise = NoiseSpec.dephasing([(a, g) for a, g in pairs if g]) if any(dephasing_rates) \
        else NoiseSpec.none()
    return ParametricModel(
        name="xxz",
        dim=4,
        param_names=("x1", "x2"),
        h0=h0,
        dh0=dh0,
        control_hams=local_control_hams(),
        noise=noise,
        default_probe=probe,
        default_povm=pm_povm(),
        true_values=np.array([1.0, 1.2]),
        default_objective="fcle",
        rates=(float(g1), float(g2)),
    )


MODEL_NAMES = ("magfield", "magfield-xyz", "zz", "xxz")

_DEFAULT_RATES = {
    "magfield": (0.2,),
    "magfield-xyz": (0.2,),
    "zz": (0.1, 0.1),
    "xxz": (0.1, 0.1),
}


def get_model(name: str, noise: bool = True, rates=None) -> ParametricModel:
    """Look up a catalog model by name, optionally overriding noise rates.

    ``noise=False`` builds the noiseless variant; ``rates`` overrides the
    default dephasing rates (one value for "magfield", two for the others).
    """
    if name not in MODEL_NAMES:
        raise FisherctlError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    if not noise:
        rates = tuple(0.0 for _ in _DEFAULT_RATES[name])
    elif rates is None:
        rates = _DEFAULT_RATES[name]
    else:
        rates = tuple(float(r) for r in rates)
        if len(rates) != len(_DEFAULT_RATES[name]):
            raise FisherctlError(
                f"model {name!r} takes {len(_DEFAULT_RATES[name])} dephasing rate(s), "
                f"got {len(rates)}"
            )
    if name == "magfield":
        return model_magnetic_field(rates[0])
    if name == "magfield-xyz":
        return model_magnetic_field_cartesian(rates[0])
    if name == "zz":
        return model_zz(rates)
    return model_xxz(rates)
