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
    """A parameter outside its domain: ``field`` names the parameter and ``reason`` says
    what is wrong without naming it; the message is the sentence "<field> <reason>"."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


def real_number(field: str, value) -> float:
    """``value``, a finite real number of any type (numpy's included), as a float with
    an unsigned zero; anything else, NaN, an infinity or an integer beyond the float
    range included, is `DomainError` naming ``field``.  The one finiteness check of
    every real-valued field of `BlackHoleGeometry`, `ChannelParams` and `SweepSpec`."""
    if not isinstance(value, (float, numbers.Real)):  # float first: the ABC check is slow
        raise DomainError(field, f"must be a real number, got {value!r}")
    try:
        number = float(value) + 0.0  # -0.0 + 0.0 is 0.0; any other value keeps its bits
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise DomainError(field, f"must be finite, got {number}")
    return number


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
            if not getattr(self, field) > 0:
                raise DomainError(field, f"must be positive, got {getattr(self, field)}")
        if not 0.0 < self.surface_gravity < math.inf:  # 4*mass overflows, or 1/(4*mass) does
            raise DomainError("mass", f"must give a positive, finite surface gravity, "
                                      f"got 1/(4*{self.mass}) = {self.surface_gravity}")
        if not self.radius > 2.0 * self.mass:
            raise DomainError("radius", f"must be outside the horizon 2*mass = {2 * self.mass}, "
                                        f"got {self.radius}")

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
        r, phi = real_number("r", self.r), real_number("phi", self.phi) % (2.0 * math.pi)
        if not 0.0 <= r < math.pi / 2:
            raise DomainError("r", f"must be a squeezing angle in [0, pi/2), got {r}")
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
    entry point that checks its input, and `protocol` calls this directly
    on the trusted Bell state.
    """
    terms = np.asarray(left) @ rho @ np.asarray(right).conj().swapaxes(-1, -2)
    return terms[..., 0, :, :] + terms[..., 1, :, :]


def apply_channel(rho, p: ChannelParams) -> np.ndarray:
    """Apply the channel ``p``, ``rho -> m0 rho m0^dag + m1 rho m1^dag``."""
    return linop.check_density_matrix(cross_term(rho, p, p), "channel output")[0]


def cross_term(rho, pi: ChannelParams, pj: ChannelParams) -> np.ndarray:
    """Interference block ``sum_n M_in rho M_jn^dag`` between channels ``pi`` and ``pj``.

    The Kraus pairs come from one `kraus_operators` call after the input
    check.  Generally non-Hermitian for ``pi != pj``; its adjoint is the
    block with the channels swapped, and ``pi == pj`` recovers `apply_channel`.
    """
    rho = linop.check_density_matrix(rho, "input state", two_qubit=True)[0]
    return kraus_block(rho, *kraus_operators(pi, pj))


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
