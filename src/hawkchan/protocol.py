"""Communication protocols built on the Hawking channel.

A shared two-qubit maximally entangled state (`BELL_STATE`) sends Rob's
half through an equal coherent superposition of two channels, correlated
with a control qubit that is finally measured in the |+>/|-> basis.
`measure_control` returns both measured branches and, from the same
evaluation, the incoherent equal mixture of the two channels
(`rho_mixture`): the baseline a stochastic classical field would
produce.  `measure_channel` is one channel alone on the Bell state.

The closed forms are simplest for two channels with equal squeezing r
and opposite phases (``hawkchan phase``): the plus branch has
probability (1 + cos^2 r)/2 and negativity |cos r| / (1 + cos^2 r), the
minus branch is the product state |0_A 1_R><0_A 1_R| (absent at r = 0),
and, as a channel's output on the Bell state does not depend on its
phase, the mixture is the single channel's output.

Both functions validate their states where they leave this module (the
Bell state and the Kraus blocks are trusted in between) and check their
measures against the closed forms of `metrics`.  The 8x8 superposed state
is an oracle for the branches (`oracle.superposed_state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics
from .channel import ChannelParams, channel_output_closed_form, kraus_block, kraus_operators
from .metrics import MetricReport, report_for_state, report_for_states

# Below this value of the minus-branch scalar the branch never occurs
# and its posterior state is undefined (the 0/0 guard).
ABSENT_BRANCH_TOL = 1e-14


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
    ``p_plus rho_plus + p_minus rho_minus``.  The three are views of one
    checked ``(k, 4, 4)`` stack, and ``reports`` holds their `MetricReport`s
    in the order plus, minus (when it occurs), mixture.  ``negativity_avg``
    and ``coherent_info_ensemble`` are the averages over the branches that
    occur, ``sum_k p_k report_k``, added as ``0.0 + plus + minus``.  The last
    three are the closed forms of `metrics`, the first two checked.
    """

    a_scalar: float
    b_scalar: float
    c_scalar: float
    p_plus: float
    p_minus: float
    rho_plus: np.ndarray
    rho_minus: Optional[np.ndarray]
    rho_mixture: np.ndarray
    reports: list[MetricReport]
    negativity_avg: float
    coherent_info_ensemble: float
    negativity_avg_closed: float
    negativity_mixture_closed: float
    negativity_convex_avg: float


@dataclass(eq=False)
class ChannelStatistics:
    """One channel on `BELL_STATE`: ``kraus`` = (m0, m1), the ``output_state`` and its
    ``report``, and their closed forms (``negativity_closed_form`` = cos^2 r / 2)."""

    kraus: np.ndarray
    output_state: np.ndarray
    closed_form_state: np.ndarray
    report: MetricReport
    negativity_closed_form: float


_PSI = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
BELL_STATE = np.outer(_PSI, _PSI.conj())
BELL_STATE.flags.writeable = False


def measure_control(params1: ChannelParams, params2: ChannelParams) -> BranchStatistics:
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
    (when it occurs) and the mixture are validated and reported in one call;
    then four closed forms are checked, each by `metrics.check_closed_form`.
    """
    r1, r2, dphi = params1.r, params2.r, params1.phi - params2.phi
    b = math.sin(dphi / 2.0) ** 2 * math.sin(r1) * math.sin(r2)
    # 2 sin^2((r1 - r2)/2) + 2B, a sum of non-negatives: the textbook form of C
    # cancels catastrophically for near-identical channels.
    c = 2.0 * math.sin((r1 - r2) / 2.0) ** 2 + 2.0 * b
    ks = kraus_operators(params1, params2)
    xi = kraus_block(BELL_STATE, ks[:, None], ks[None, :])  # xi[i, j]: |i><j| on the control
    minus = c >= ABSENT_BRANCH_TOL
    states = np.zeros((3 if minus else 2, 4, 4), dtype=complex)
    diagonal = xi[0, 0] + xi[1, 1]  # the control's diagonal
    plus_un = 0.25 * (diagonal + xi[0, 1] + xi[1, 0])
    p_plus = float(plus_un.trace().real)
    np.divide(plus_un, p_plus, out=states[0])
    if minus:
        vac = (math.cos(r1) - math.cos(r2)) ** 2
        excited = (math.sin(r1) - math.sin(r2)) ** 2 + 4.0 * b
        states[1, 0, 0], states[1, 1, 1] = vac, excited
        states[1] /= vac + excited
    np.multiply(diagonal, 0.5, out=states[-1])
    names = ["plus branch"] + ["minus branch"] * minus + ["classical mixture"]
    reports = report_for_states(states, names)
    branches = list(zip((p_plus, c / 4.0), reports[:-1]))
    stats = BranchStatistics(4.0 - c, b, c, p_plus, c / 4.0, states[0],
                             states[1] if minus else None, states[-1], reports,
                             sum((p * r.negativity_numeric for p, r in branches), 0.0),
                             sum((p * r.coherent_information for p, r in branches), 0.0),
                             float(metrics.negativity_avg_closed(r1, r2, dphi)),
                             float(metrics.negativity_mixture_closed(r1, r2)),
                             float(metrics.negativity_convex_avg(r1, r2)))
    ensemble, mixture_info = metrics.coherent_info_closed(r1, r2, dphi)
    check = metrics.check_closed_form
    check("negativity_avg", stats.negativity_avg, stats.negativity_avg_closed)
    check("negativity_mixture", reports[-1].negativity_numeric, stats.negativity_mixture_closed)
    check("coherent_info_ensemble", stats.coherent_info_ensemble, ensemble)
    check("coherent_info_mixture", reports[-1].coherent_information, mixture_info)
    return stats


def measure_channel(params: ChannelParams) -> ChannelStatistics:
    """One channel on `BELL_STATE`, its negativity checked against cos^2 r / 2 under
    the key ``negativity``; `channel.apply_channel` takes any other input state."""
    kraus = kraus_operators(params)[0]
    output = kraus_block(BELL_STATE, kraus, kraus)
    report = report_for_state(output)
    closed = math.cos(params.r) ** 2 / 2.0
    metrics.check_closed_form("negativity", report.negativity_numeric, closed)
    return ChannelStatistics(kraus, output, channel_output_closed_form(params), report, closed)
