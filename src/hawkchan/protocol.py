"""Communication protocols built on the Hawking channel.

Three scenarios are implemented for a shared two-qubit maximally
entangled state:

* a single channel acting on Rob's half (`classical_scenario`),
* an equal coherent superposition of two channels correlated with a
  control qubit that is finally measured in the |+>/|-> basis
  (`superposed_state`, `measure_control`),
* the incoherent equal mixture of the same two channels
  (`classical_mixture`), the baseline a stochastic classical field
  would produce.

`phase_protocol` is the superposition of two channels with equal
squeezing and opposite phases, where the closed forms are simplest.

One `measure_control` call builds the branches and the mixture from one
set of interference blocks, taken in one stacked matmul, and validates
them in one call.  States are validated where they leave this module;
the Bell state and the Kraus blocks are trusted in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linop
from .channel import ChannelParams, _kraus_block, kraus_pair

# Below this value of the minus-branch scalar the branch never occurs
# and its posterior state is undefined (the 0/0 guard).
ABSENT_BRANCH_TOL = 1e-14


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of the two superposed channels (equal branch weights)."""

    params1: ChannelParams
    params2: ChannelParams


@dataclass(eq=False)
class BranchStatistics:
    """Outcome of measuring the control qubit in the |+>/|-> basis.

    ``a_scalar``, ``b_scalar`` and ``c_scalar`` are the closed-form
    combinations of the channel parameters that govern the outcome:

        A = 3 + cos r1 cos r2 + cos(phi1 - phi2) sin r1 sin r2
        B = sin((phi1 - phi2)/2)^2 sin r1 sin r2
        C = 1 - cos r1 cos r2 - cos(phi1 - phi2) sin r1 sin r2

    with outcome probabilities ``p_plus = A/4`` and ``p_minus = C/4``.
    ``rho_minus`` is ``None`` when the minus branch cannot occur
    (identical channels, C = 0).  ``rho_mixture`` is the classical
    mixture, the same state with the measurement record discarded:
    ``p_plus rho_plus + p_minus rho_minus``.  ``blocks`` is the
    interference block array the states come from (see
    `superposed_state`); ``blocks[i, i]`` is channel i's output on the
    Bell state, not yet validated.
    """

    a_scalar: float
    b_scalar: float
    c_scalar: float
    p_plus: float
    p_minus: float
    rho_plus: np.ndarray
    rho_minus: Optional[np.ndarray]
    rho_mixture: np.ndarray
    blocks: np.ndarray

    @property
    def branches(self) -> list[tuple[float, Optional[np.ndarray]]]:
        """The ``(probability, state)`` pairs of the plus and minus outcomes."""
        return [(self.p_plus, self.rho_plus), (self.p_minus, self.rho_minus)]


def bell_state() -> np.ndarray:
    """Density matrix of (|00> + |11>)/sqrt(2), the shared resource state."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def classical_scenario(p: ChannelParams) -> np.ndarray:
    """Shared state after a single channel: the definite-geometry case."""
    k = kraus_pair(p)
    return linop.check_density_matrix(_kraus_block(bell_state(), k, k), "channel output")


def _interference_blocks(cfg: ProtocolConfig) -> np.ndarray:
    """The blocks ``xi[i, j]`` of |i><j| on the control, a (2, 2, 4, 4) array.

    ``xi[i, j] = sum_n M_in bell M_jn^dag`` for the channels of
    ``params1`` (i = 0) and ``params2`` (i = 1), from one `_kraus_block`
    over the ``(channel, n, 4, 4)`` Kraus array.  Every state this module
    hands out is derived from one such array.
    """
    ks = np.array([kraus_pair(cfg.params1), kraus_pair(cfg.params2)])
    return _kraus_block(bell_state(), ks[:, None], ks[None, :])


def branch_scalars(cfg: ProtocolConfig) -> tuple[float, float, float]:
    """Closed-form scalars (A, B, C) for the given channel pair.

    C is evaluated as 2 sin^2((r1 - r2)/2) + 2 B, a sum of
    non-negatives; the textbook form 1 - c1 c2 - cos(dphi) s1 s2
    cancels catastrophically for near-identical channels.  A = 4 - C.
    """
    r1, phi1 = cfg.params1.r, cfg.params1.phi
    r2, phi2 = cfg.params2.r, cfg.params2.phi
    dphi = phi1 - phi2
    b = math.sin(dphi / 2.0) ** 2 * math.sin(r1) * math.sin(r2)
    c = 2.0 * math.sin((r1 - r2) / 2.0) ** 2 + 2.0 * b
    return 4.0 - c, b, c


def superposed_state(cfg: ProtocolConfig) -> np.ndarray:
    """Joint Alice-Rob-control state after the coherent superposition.

    The 8x8 state on (A x R) x control is assembled from the four
    interference blocks:

        1/2 [ xi_00 (x) |0><0| + xi_11 (x) |1><1|
              + xi_01 (x) |0><1| + xi_10 (x) |1><0| ].

    Tracing out the control recovers `classical_mixture`.
    """
    xi = _interference_blocks(cfg)
    state = 0.5 * xi.transpose(2, 0, 3, 1).reshape(8, 8)
    return linop.check_density_matrix(state, "superposed state")


def measure_control(cfg: ProtocolConfig) -> BranchStatistics:
    """Posterior Alice-Rob states after measuring the control in |+>/|->.

    The plus branch carries the recovered entanglement; the minus
    branch is always separable.  When the two channels are identical
    the minus branch has probability zero and ``rho_minus`` is ``None``
    rather than a 0/0 artifact.

    The plus branch is assembled numerically from the interference
    blocks (its weight never drops below 1/2).  The minus branch is
    built from its closed form: normalizing the numeric block by a
    probability as small as C/4 would amplify roundoff past the state
    invariants, while the closed form is non-negative diagonal by
    construction for every C.  The classical mixture is the control's
    diagonal, from the same blocks.  The plus branch, the minus branch
    (when it occurs) and the mixture are validated in one call.
    """
    a, b, c = branch_scalars(cfg)
    xi = _interference_blocks(cfg)
    plus_un = 0.25 * (xi[0, 0] + xi[1, 1] + xi[0, 1] + xi[1, 0])
    p_plus = float(plus_un.trace().real)
    states, names = [plus_un / p_plus], ["plus branch"]
    if c >= ABSENT_BRANCH_TOL:
        vac = (math.cos(cfg.params1.r) - math.cos(cfg.params2.r)) ** 2
        excited = (math.sin(cfg.params1.r) - math.sin(cfg.params2.r)) ** 2 + 4.0 * b
        states.append(np.diag([vac, excited, 0.0, 0.0]).astype(complex) / (vac + excited))
        names.append("minus branch")
    states.append(_mixture(xi))
    names.append("classical mixture")
    states = linop.check_density_matrix(np.array(states), names)
    rho_minus = states[1] if len(states) == 3 else None
    return BranchStatistics(a, b, c, p_plus, c / 4.0, states[0], rho_minus, states[-1], xi)


def _mixture(xi: np.ndarray) -> np.ndarray:
    """The control's diagonal: the two channel outputs, equally weighted."""
    return 0.5 * (xi[0, 0] + xi[1, 1])


def classical_mixture(cfg: ProtocolConfig) -> np.ndarray:
    """Equal incoherent mixture of the two channel outputs."""
    return linop.check_density_matrix(_mixture(_interference_blocks(cfg)), "classical mixture")


def phase_protocol(r: float) -> BranchStatistics:
    """Superposition of equal-squeezing channels with opposite phases.

    For phi1 = phi2 + pi and common squeezing ``r`` the plus branch has
    probability (1 + cos(r)^2)/2 and negativity |cos r| / (1 + cos^2 r),
    and the minus branch is the product state |0_A 1_R><0_A 1_R|
    (absent at r = 0).
    """
    return measure_control(ProtocolConfig(ChannelParams(r, 0.0), ChannelParams(r, math.pi)))
