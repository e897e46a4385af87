"""Entanglement and information measures for two-qubit states.

Numeric negativity and coherent information sit next to the closed
forms for the protocol scenarios, so every closed form can be checked
against the fully numeric pipeline.  All entropies are in bits.  Each
public function validates the state it is handed once, reuses the
validation spectrum as the state's own, then takes the other spectra it
needs with ``numpy.linalg.eigvalsh``; `report_for_states` does each of
those stages in one call for a whole stack of states.  The closed forms
take floats or arrays that broadcast together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import linop

# Numeric negativities this far below zero are roundoff and clip to 0.
NEGATIVITY_CLIP = 1e-12
# A state is PPT when its partial transpose has no eigenvalue below this.
PPT_TOL = -1e-10
# Allowed gap between a closed form and its numeric counterpart.
CLOSED_FORM_TOL = 1e-10


@dataclass(frozen=True)
class MetricReport:
    """Entanglement summary of one two-qubit state."""

    negativity_numeric: float
    coherent_information: float
    ppt: bool

    def __post_init__(self):
        if self.negativity_numeric < -NEGATIVITY_CLIP:
            raise ValueError(f"negativity {self.negativity_numeric} below clip floor")


def check_closed_form(name: str, numeric: float, closed: float) -> None:
    """Raise ``ValueError`` naming ``name`` when a closed form and its numeric
    counterpart differ by more than ``CLOSED_FORM_TOL``."""
    gap = abs(numeric - closed)
    if gap > CLOSED_FORM_TOL:
        raise ValueError(f"closed-form {name} differs from numeric by {gap:.3e}")


def _pt_spectrum(arr: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(linop.partial_transpose(arr, (2, 2)))


def _negativity(pt_eigs: np.ndarray) -> float:
    value = (float(np.abs(pt_eigs).sum()) - 1.0) / 2.0
    if value < -NEGATIVITY_CLIP:
        raise ValueError(f"negativity {value} below clip floor {-NEGATIVITY_CLIP}")
    return max(value, 0.0)


def negativity(rho) -> float:
    """Negativity (||rho^T_A||_1 - 1)/2 of a two-qubit state.

    Zero exactly for separable states; 1/2 for a maximally entangled
    pair.  Values in [-1e-12, 0) from roundoff are clipped to 0.
    """
    return _negativity(_pt_spectrum(linop.check_two_qubit(rho)[0]))


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
    equals ``p_plus * negativity(rho_plus)`` from the numeric protocol
    path within 1e-10.  At r1 = r2 and dphi = pi it is exactly |cos r|/2.
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
    return sum(-x * np.log2(np.where(x > 0.0, x, 1.0)) for x in weights)


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


def _entropy(eigs: np.ndarray) -> float:
    positive = eigs[eigs > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(l * log2 l) of a state's spectrum, in bits."""
    return _entropy(linop.check_density_matrix(rho, "state", spectrum=True)[1])


def _rob_spectrum(arr: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(linop.partial_trace(arr, (2, 2), keep=1))


def coherent_information(rho) -> float:
    """Coherent information S(B) - S(AB) of a two-qubit state, B = Rob's side.

    A positive value lower-bounds the quantum capacity of the channel
    that produced ``rho`` from a maximally entangled input; a maximally
    entangled state gives +1 bit, a maximally mixed one -1 bit.
    """
    arr, eigs = linop.check_two_qubit(rho)
    return _entropy(_rob_spectrum(arr)) - _entropy(eigs)


def _branch_average(branches, measure) -> float:
    return sum((prob * measure(rho) for prob, rho in branches if rho is not None), 0.0)


def ensemble_coherent_information(branches: Iterable[tuple[float, Optional[np.ndarray]]]) -> float:
    """Probability-weighted coherent information over measurement branches.

    ``branches`` yields ``(probability, state)`` pairs; absent branches
    (state ``None``) contribute nothing.
    """
    return _branch_average(branches, coherent_information)


def average_branch_negativity(branches: Iterable[tuple[float, Optional[np.ndarray]]]) -> float:
    """Probability-weighted negativity over measurement branches.

    This is the entanglement kept on average when the measurement
    record is retained.  Absent branches (state ``None``) contribute
    nothing.
    """
    return _branch_average(branches, negativity)


def ppt_separable(rho) -> bool:
    """Positive-partial-transpose test; equivalent to separability for 2x2."""
    return bool(_pt_spectrum(linop.check_two_qubit(rho)[0])[0] >= PPT_TOL)


def _reports(arr: np.ndarray, eigs: np.ndarray) -> list[MetricReport]:
    """The reports of a validated ``(k, 4, 4)`` stack whose spectra are ``eigs``."""
    return [
        MetricReport(
            negativity_numeric=_negativity(pt),
            coherent_information=_entropy(rob) - _entropy(ab),
            ppt=bool(pt[0] >= PPT_TOL),
        )
        for ab, pt, rob in zip(eigs, _pt_spectrum(arr), _rob_spectrum(arr))
    ]


def report_for_states(states, names) -> list[MetricReport]:
    """One `MetricReport` per state of a ``(k, 4, 4)`` stack named ``names``.

    The stack is validated in one call, whose spectra serve as S(AB); the
    partial transposes and Rob's reduced states take one ``eigvalsh`` each.
    Every report equals `negativity`, `coherent_information` and
    `ppt_separable` of its state.
    """
    return _reports(*linop.check_two_qubit(states, names))


def report_for_state(rho) -> MetricReport:
    """`report_for_states` of one state: the stack of one."""
    arr, eigs = linop.check_two_qubit(rho)
    return _reports(arr[np.newaxis], eigs[np.newaxis])[0]
