"""Hawking channel construction.

The channel acts on a two-qubit Alice-Rob state in the ordered basis
|0_A 0_R>, |0_A 1_R>, |1_A 0_R>, |1_A 1_R> and models the amplification
noise seen by an observer holding position near a black-hole horizon.
It is parameterized by a squeezing angle ``r`` (set by the black-hole
geometry) and a phase ``phi``, and acts only on Rob's factor: the
vacuum component is damped by cos(r) while a particle is created with
amplitude e^{-i phi} sin(r); an occupied mode is blocked from further
excitation, which is what truncates the channel to two Kraus operators.

`kraus_operators` is the one Kraus build, and `kraus_block` the one
production route to every channel output and interference block:
`apply_channel`, `cross_term`, `protocol.measure_channel` and
`protocol.measure_control` all call it.  `oracle.dilation_unitary`
builds the same map independently, as a two-mode unitary on Rob's mode
plus a hidden partner mode followed by a trace over the partner; the
two routes agreeing is the main correctness check of this module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linop

# Allowed deviation of sum_n M_n^dag M_n from the identity.
COMPLETENESS_TOL = 1e-12
_IDENTITY = np.eye(4)
_IDENTITY.flags.writeable = False


class DomainError(ValueError):
    """A parameter outside its domain; ``field`` names the parameter."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def real_number(field: str, value) -> float:
    """``value``, a real number of any type (numpy's included), as a float, where an
    integer beyond the float range reads as infinite; anything else is `DomainError`."""
    if not isinstance(value, (float, numbers.Real)):  # float first: the ABC check is slow
        raise DomainError(field, f"{field} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class BlackHoleGeometry:
    """Schwarzschild geometry seen by a static observer (units G = c = 1).

    Attributes
    ----------
    mass : float
        Black-hole mass; the horizon radius is ``2 * mass``.
    radius : float
        Observer's areal radius, strictly outside the horizon.
    k0 : float
        Frequency of the field mode the observer monitors.
    hbar : float
        Scale of the quantum of action, default 1.
    """

    mass: float
    radius: float
    k0: float
    hbar: float = 1.0

    def __post_init__(self):
        for field in ("mass", "radius", "k0", "hbar"):
            object.__setattr__(self, field, real_number(field, getattr(self, field)))
        for field in ("mass", "k0", "hbar"):
            value = getattr(self, field)
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(field, f"{field} must be positive and finite, got {value}")
        if not math.isfinite(self.surface_gravity):
            raise DomainError("mass", f"surface gravity 1/(4*mass) overflows for mass {self.mass}")
        if not math.isfinite(self.radius):
            raise DomainError("radius", f"radius must be finite, got {self.radius}")
        if not self.radius > 2.0 * self.mass:
            raise DomainError("radius", "observer inside horizon: "
                              f"radius {self.radius} <= 2*mass = {2 * self.mass}")

    @property
    def horizon_radius(self) -> float:
        return 2.0 * self.mass

    @property
    def redshift_factor(self) -> float:
        """f0 = 1 - 2m/R0, the squared gravitational redshift at the observer.

        Evaluated as (R0 - 2m)/R0: near the horizon the subtraction is
        exact (Sterbenz), where the 1 - 2m/R0 form loses ~10 digits.
        """
        return (self.radius - 2.0 * self.mass) / self.radius

    @property
    def surface_gravity(self) -> float:
        """kappa = 1/(4m)."""
        return 1.0 / (4.0 * self.mass)


@dataclass(frozen=True)
class ChannelParams:
    """Squeezing angle ``r`` and phase ``phi`` of one channel, in radians.

    ``r`` must lie in [0, pi/2); geometry-derived values always land in
    [0, pi/4].  Both are stored as floats, ``phi`` reduced into [0, 2*pi).
    """

    r: float
    phi: float = 0.0

    def __post_init__(self):
        r, phi = real_number("r", self.r), real_number("phi", self.phi)
        if not math.isfinite(r):
            raise DomainError("r", f"squeezing r must be finite, got {r}")
        if not 0.0 <= r < math.pi / 2:
            raise DomainError("r", f"squeezing r must be in [0, pi/2), got {r}")
        if not math.isfinite(phi):
            raise DomainError("phi", f"phase phi must be finite, got {phi}")
        phi %= 2.0 * math.pi
        object.__setattr__(self, "r", r)
        # A tiny negative phase reduces to 2*pi - eps, which rounds to 2*pi.
        object.__setattr__(self, "phi", 0.0 if phi == 2.0 * math.pi else phi)


def squeezing_from_geometry(g: BlackHoleGeometry) -> ChannelParams:
    """Map a geometry to its channel parameters (phase 0).

    The squeezing angle satisfies
    ``tan r = exp(-hbar * pi * sqrt(f0) * k0 / kappa)`` with
    ``f0 = 1 - 2m/R0`` and ``kappa = 1/(4m)``, so valid geometries give
    ``0 <= r <= pi/4``: hotter horizons (small mass) and low-frequency
    modes squeeze harder.  The exact ``r`` lies strictly inside, but in
    floating point ``exp`` underflows to 0 for a huge exponent (r = 0.0)
    and rounds to 1 for a tiny one (r = pi/4); both are valid geometries.
    """
    exponent = -g.hbar * math.pi * math.sqrt(g.redshift_factor) * g.k0 / g.surface_gravity
    return ChannelParams(r=math.atan(math.exp(exponent)), phi=0.0)


def kraus_operators(*params: ChannelParams) -> np.ndarray:
    """The ``(m, 2, 4, 4)`` Kraus array of ``m`` channels, ``[i] = (m0, m1)`` of ``params[i]``.

    ``m0`` damps Rob's vacuum by cos(r) and leaves an occupied mode
    alone; ``m1`` creates a particle in Rob's mode with amplitude
    ``exp(-i phi) sin(r)``.  One check over the stack confirms
    ``m0^dag m0 + m1^dag m1 = I`` for every channel.
    """
    if not params:
        raise ValueError("kraus_operators needs at least one channel, got none")
    ks = np.zeros((len(params), 2, 4, 4), dtype=complex)
    for k, p in zip(ks, params):
        k[0, 0, 0] = k[0, 2, 2] = math.cos(p.r)
        k[0, 1, 1] = k[0, 3, 3] = 1.0
        k[1, 1, 0] = k[1, 3, 2] = np.exp(-1j * p.phi) * math.sin(p.r)
    stacked = ks.reshape(-1, 8, 4)  # [m0; m1], so stacked^dag stacked = m0^dag m0 + m1^dag m1
    defect = np.abs(stacked.conj().swapaxes(-1, -2) @ stacked - _IDENTITY).max()
    if defect > COMPLETENESS_TOL:
        raise ValueError(f"Kraus completeness violated by {defect:.3e}")
    return ks


def kraus_block(rho: np.ndarray, left, right) -> np.ndarray:
    """``sum_n L_n rho R_n^dag`` on a 4x4 state the caller has validated or built.

    ``left`` and ``right`` are Kraus arrays of shape ``(..., 2, 4, 4)``
    whose leading axes broadcast; the blocks of every pair come out of
    one stacked matmul.  Nothing is checked here; `cross_term` is the
    entry point that checks its input.
    """
    terms = np.asarray(left) @ rho @ np.asarray(right).conj().swapaxes(-1, -2)
    return terms[..., 0, :, :] + terms[..., 1, :, :]


def apply_channel(rho, k: np.ndarray) -> np.ndarray:
    """Apply the channel ``rho -> m0 rho m0^dag + m1 rho m1^dag``; ``k = (m0, m1)``
    is the ``(2, 4, 4)`` Kraus array of one channel, a row of `kraus_operators`."""
    return linop.check_density_matrix(cross_term(rho, k, k), "channel output")[0]


def cross_term(rho, ki: np.ndarray, kj: np.ndarray) -> np.ndarray:
    """Interference block ``sum_n M_in rho M_jn^dag`` between two channels.

    ``ki`` and ``kj`` are ``(2, 4, 4)`` Kraus arrays, as in `apply_channel`.
    Generally non-Hermitian for ``ki != kj``; its adjoint is the block
    with the channels swapped, and ``ki == kj`` recovers
    `apply_channel`.
    """
    return kraus_block(linop.check_two_qubit(rho, "input state")[0], ki, kj)


def channel_output_closed_form(p: ChannelParams) -> np.ndarray:
    """Closed-form channel output on the shared maximally entangled state.

    Independent of ``phi``; its negativity is ``cos(r)^2 / 2``.
    """
    c, s = math.cos(p.r), math.sin(p.r)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = c * c
    out[1, 1] = s * s
    out[0, 3] = out[3, 0] = c
    out[3, 3] = 1.0
    return out / 2.0
