"""Hawking channel construction.

The channel acts on a two-qubit Alice-Rob state in the ordered basis
|0_A 0_R>, |0_A 1_R>, |1_A 0_R>, |1_A 1_R> and models the amplification
noise seen by an observer holding position near a black-hole horizon.
It is parameterized by a squeezing angle ``r`` (set by the black-hole
geometry) and a phase ``phi``, and acts only on Rob's factor: the
vacuum component is damped by cos(r) while a particle is created with
amplitude e^{-i phi} sin(r); an occupied mode is blocked from further
excitation, which is what truncates the channel to two Kraus operators.

Alongside the Kraus route, `dilation_unitary` provides an independent
construction of the same map as a two-mode unitary on Rob's mode plus a
hidden partner mode, followed by a trace over the partner.  The two
routes agreeing is the main correctness oracle for this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linop

# Allowed deviation of sum_n M_n^dag M_n from the identity.
COMPLETENESS_TOL = 1e-12


class DomainError(ValueError):
    """A parameter outside its domain; ``field`` names the parameter."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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
        for field in ("mass", "k0", "hbar"):
            value = getattr(self, field)
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(field, f"{field} must be positive and finite, got {value}")
        if not (math.isfinite(self.radius) and self.radius > 2.0 * self.mass):
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
    (0, pi/4).  ``phi`` is reduced into [0, 2*pi).
    """

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and 0.0 <= self.r < math.pi / 2):
            raise ValueError(f"squeezing r must be in [0, pi/2), got {self.r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phase phi must be finite, got {self.phi}")
        phi = self.phi % (2.0 * math.pi)
        # A tiny negative phase reduces to 2*pi - eps, which rounds to 2*pi.
        object.__setattr__(self, "phi", 0.0 if phi == 2.0 * math.pi else phi)


class KrausPair(NamedTuple):
    """The two 4x4 Kraus operators of one channel."""

    m0: np.ndarray
    m1: np.ndarray


def squeezing_from_geometry(g: BlackHoleGeometry) -> ChannelParams:
    """Map a geometry to its channel parameters (phase 0).

    The squeezing angle satisfies
    ``tan r = exp(-hbar * pi * sqrt(f0) * k0 / kappa)`` with
    ``f0 = 1 - 2m/R0`` and ``kappa = 1/(4m)``, so valid geometries give
    ``0 < r < pi/4``: hotter horizons (small mass) and low-frequency
    modes squeeze harder.
    """
    exponent = -g.hbar * math.pi * math.sqrt(g.redshift_factor) * g.k0 / g.surface_gravity
    return ChannelParams(r=math.atan(math.exp(exponent)), phi=0.0)


def kraus_pair(p: ChannelParams) -> KrausPair:
    """Build the Kraus pair for the given parameters.

    ``m0`` damps Rob's vacuum by cos(r) and leaves an occupied mode
    alone; ``m1`` creates a particle in Rob's mode with amplitude
    ``exp(-i phi) sin(r)``.  Together they satisfy
    ``m0^dag m0 + m1^dag m1 = I``.
    """
    c, s = math.cos(p.r), math.sin(p.r)
    m0 = np.diag([c, 1.0, c, 1.0]).astype(complex)
    m1 = np.zeros((4, 4), dtype=complex)
    amp = np.exp(-1j * p.phi) * s
    m1[1, 0] = amp
    m1[3, 2] = amp
    pair = KrausPair(m0, m1)
    defect = np.abs(m0.conj().T @ m0 + m1.conj().T @ m1 - np.eye(4)).max()
    if defect > COMPLETENESS_TOL:
        raise ValueError(f"Kraus completeness violated by {defect:.3e}")
    return pair


def _kraus_block(rho: np.ndarray, left, right) -> np.ndarray:
    """``sum_n L_n rho R_n^dag`` on a 4x4 state the caller has validated or built.

    ``left`` and ``right`` are Kraus arrays of shape ``(..., 2, 4, 4)`` (a
    `KrausPair` is the ``(2, 4, 4)`` case) whose leading axes broadcast;
    the blocks of every pair come out of one stacked matmul.
    """
    terms = np.asarray(left) @ rho @ np.asarray(right).conj().swapaxes(-1, -2)
    return terms[..., 0, :, :] + terms[..., 1, :, :]


def apply_channel(rho, k: KrausPair) -> np.ndarray:
    """Apply the channel ``rho -> m0 rho m0^dag + m1 rho m1^dag``."""
    return linop.check_density_matrix(cross_term(rho, k, k), "channel output")


def cross_term(rho, ki: KrausPair, kj: KrausPair) -> np.ndarray:
    """Interference block ``sum_n M_in rho M_jn^dag`` between two channels.

    Generally non-Hermitian for ``ki != kj``; its adjoint is the block
    with the channels swapped, and ``ki == kj`` recovers
    `apply_channel`.
    """
    return _kraus_block(linop.check_two_qubit(rho, "input state")[0], ki, kj)


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


def dilation_unitary(p: ChannelParams) -> np.ndarray:
    """Unitary dilation of the channel on (Rob mode) x (partner mode).

    Returns ``U = expm(r * K)`` where the generator ``K`` couples
    |00> <-> |11> with amplitudes ``-exp(-i phi)`` and ``+exp(+i phi)``
    and annihilates |01> and |10>.  The sign of the |00> -> |11>
    amplitude fixes the branch convention; the induced channel (and its
    cross terms) matches the Kraus route regardless, which is what the
    tests assert.
    """
    gen = np.zeros((4, 4), dtype=complex)
    gen[3, 0] = -np.exp(-1j * p.phi)
    gen[0, 3] = np.exp(1j * p.phi)
    return linop.matrix_exponential(p.r * gen)


def _dilated_block(rho, pi: ChannelParams, pj: ChannelParams) -> np.ndarray:
    """Tr_partner[ U(pi) (rho x |0><0|) U(pj)^dag ] on the 8-dim A x R x partner space."""
    arr, _ = linop.check_two_qubit(rho, "input state")
    partner_vacuum = np.zeros((2, 2), dtype=complex)
    partner_vacuum[0, 0] = 1.0
    big = linop.tensor(arr, partner_vacuum)
    ui = linop.tensor(np.eye(2), dilation_unitary(pi))
    uj = linop.tensor(np.eye(2), dilation_unitary(pj))
    return linop.partial_trace(ui @ big @ uj.conj().T, (2, 2, 2), keep=(0, 1))


def apply_channel_dilated(rho, p: ChannelParams) -> np.ndarray:
    """Channel output via the unitary dilation; oracle for `apply_channel`."""
    return linop.check_density_matrix(_dilated_block(rho, p, p), "dilated channel output")


def cross_term_dilated(rho, pi: ChannelParams, pj: ChannelParams) -> np.ndarray:
    """Cross term via the unitary dilation; oracle for `cross_term`."""
    return _dilated_block(rho, pi, pj)
