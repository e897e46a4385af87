"""Entanglement and information measures for two-qubit states.

Numeric negativity and coherent information sit next to the closed
forms for the protocol scenarios, so every closed form can be checked
against the fully numeric pipeline.  All entropies are in bits.
`report_for_states` is the one numeric route to every measure of a state.
The closed forms take floats or arrays that broadcast together; the
`protocol` functions check their numbers against them (`check_closed_form`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linop

# Numeric negativities this far below zero are roundoff and clip to 0.
NEGATIVITY_CLIP = 1e-12
# A state is PPT when its partial transpose has no eigenvalue below this.
PPT_TOL = -1e-10
# Allowed gap between a closed form and its numeric counterpart.
CLOSED_FORM_TOL = 1e-10
# The smallest positive float: log2 of it is finite, and 0 * log2(_TINY) = 0.
_TINY = 5e-324


@dataclass(frozen=True)
class MetricReport:
    """Entanglement summary of one two-qubit state, B = Rob's side.

    ``negativity_numeric`` is (||rho^T_A||_1 - 1)/2: zero exactly for
    separable states, 1/2 for a maximally entangled pair; values in
    [-1e-12, 0) from roundoff are stored as 0, and a lower one (or NaN) is
    refused.  ``coherent_information``
    is S(B) - S(AB); a positive value lower-bounds the quantum capacity of
    the channel that produced the state from a maximally entangled input
    (+1 bit for a maximally entangled state, -1 bit for a maximally mixed
    one).  ``ppt`` is the positive-partial-transpose test, no eigenvalue
    of rho^T_A below ``PPT_TOL``; for 2x2 systems it is separability.
    """

    negativity_numeric: float
    coherent_information: float
    ppt: bool

    def __post_init__(self):
        if not self.negativity_numeric >= -NEGATIVITY_CLIP:  # NaN fails too
            raise ValueError(f"negativity {self.negativity_numeric} below clip floor")
        object.__setattr__(self, "negativity_numeric", max(self.negativity_numeric, 0.0))


def check_closed_form(name: str, numeric: float, closed: float) -> None:
    """Raise ``ValueError`` naming ``name`` when a closed form and its numeric
    counterpart differ by more than ``CLOSED_FORM_TOL``, or either is NaN or
    both are the same infinity (a NaN gap)."""
    gap = abs(numeric - closed)
    if not gap <= CLOSED_FORM_TOL:
        raise ValueError(f"closed-form {name} differs from numeric by {gap:.3e}")


def negativity(rho) -> float:
    """``report_for_state(rho).negativity_numeric``.

    The benchmark's tracer test (``perfbench/test_perfbench.py``) asserts on
    the ``hawkchan.negativity`` binding, so this stays until that test moves.
    """
    return report_for_state(rho).negativity_numeric


def _plus_branch_terms(r1, r2, dphi):
    """``(|w|^2, c1 + c2)``: the unnormalised plus branch is
    ``(1/8)[(C|00> + 2|11>)(h.c.) + |w|^2 |01><01|]`` with ``C = c1 + c2``."""
    s1, s2 = np.sin(r1), np.sin(r2)
    # |w|^2 >= (s1 - s2)^2, but roundoff can dip below 0 near s1 = s2, dphi = pi.
    w_sq = np.maximum((s1 + s2) ** 2 - 4.0 * s1 * s2 * np.sin(dphi / 2.0) ** 2, 0.0)
    return w_sq, np.cos(r1) + np.cos(r2)


def negativity_avg_closed(r1, r2, dphi=0.0):
    """Average post-measurement negativity of the superposed channels.

    ``(-|w|^2 + sqrt(|w|^4 + 16 (c1 + c2)^2)) / 16`` with
    ``|w|^2 = (s1 + s2)^2 - 4 s1 s2 sin^2(dphi/2)`` and ``dphi = phi1 - phi2``;
    equals `measure_control`'s ``negativity_avg`` (``p_plus`` times the plus
    branch's negativity; the minus branch is separable) within 1e-10.  At r1 = r2 and dphi = pi it is exactly |cos r|/2.
    """
    w_sq, c_sum = _plus_branch_terms(r1, r2, dphi)
    return (-w_sq + np.sqrt(16.0 * c_sum**2 + w_sq**2)) / 16.0


def negativity_mixture_closed(r1, r2):
    """Negativity of the equal classical mixture of the two channel outputs."""
    s_sq = np.sin(r1) ** 2 + np.sin(r2) ** 2
    c_sum = np.cos(r1) + np.cos(r2)
    return (-s_sq + np.sqrt(4.0 * c_sum**2 + s_sq**2)) / 8.0


def negativity_convex_avg(r1, r2):
    """Convex average of the two single-channel negativities: (c1^2 + c2^2)/4."""
    return (np.cos(r1) ** 2 + np.cos(r2) ** 2) / 4.0


def _weight_entropy(*weights):
    """``sum(-x log2 x)`` over non-negative weights, with ``0 log2 0 = 0``."""
    return sum(-x * np.log2(np.maximum(x, _TINY)) for x in weights)


def coherent_info_closed(r1, r2, dphi=0.0):
    """Closed-form coherent information ``(ensemble, mixture)`` of the protocol.

    Every protocol state is an X state: rank 1 on span{|00>, |11>} plus a
    weight on |01>.  The ensemble value ``p_plus I_c(rho_plus)`` (the minus
    branch is a product state) is taken on unnormalised weights, where the
    ``log p_plus`` terms cancel.  The mixture's small eigenvalue is det/big,
    which does not cancel near r1 = r2.
    """
    w_sq, c_sum = _plus_branch_terms(r1, r2, dphi)
    c_sq = c_sum**2
    ensemble = (_weight_entropy(c_sq / 8.0, (4.0 + w_sq) / 8.0)
                - _weight_entropy((c_sq + 4.0) / 8.0, w_sq / 8.0))
    c1, c2 = np.cos(r1), np.cos(r2)
    q, s_sq = c1**2 + c2**2, np.sin(r1) ** 2 + np.sin(r2) ** 2
    big = (q + 2.0 + np.sqrt((q - 2.0) ** 2 + 4.0 * c_sq)) / 8.0
    rob = _weight_entropy(q / 4.0, (2.0 + s_sq) / 4.0)
    return ensemble, rob - _weight_entropy(big, (c1 - c2) ** 2 / 16.0 / big, s_sq / 4.0)


def _entropies(eigs: np.ndarray) -> np.ndarray:
    """``-sum(l log2 l)`` over the last axis of ascending spectra: eigenvalues <= 0
    lead, add exact zeros and leave the sum of the positive terms unchanged."""
    x = np.maximum(eigs, 0.0)
    return -(x * np.log2(np.maximum(x, _TINY))).sum(axis=-1)


def report_for_states(states, names) -> list[MetricReport]:
    """One `MetricReport` per state of a ``(k, 4, 4)`` stack named ``names``, or of
    one 4x4 state named by the string ``names``.

    The states are validated in one `linop.check_density_matrix` call with
    ``two_qubit=True``, whose one ``eigvalsh`` also takes their partial
    transposes and Rob's reduced states; its spectra of the states serve as
    S(AB) and Rob's as S(B).  Each measure is then one reduction over the
    spectra, both entropies one reduction over the two stacked.
    `MetricReport` defines each measure and clips the negativity's roundoff.
    """
    _, eigs, pt, rob = linop.check_density_matrix(states, names, two_qubit=True)
    pt = pt.reshape(-1, 4)
    s_ab, s_b = _entropies(np.concatenate((eigs, rob)).reshape(2, -1, 4))
    return [MetricReport(*report) for report in zip(
        ((np.abs(pt).sum(axis=-1) - 1.0) / 2.0).tolist(),
        (s_b - s_ab).tolist(),
        (pt[:, 0] >= PPT_TOL).tolist())]


def report_for_state(rho) -> MetricReport:
    """`report_for_states` of one state."""
    return report_for_states(rho, "state")[0]
