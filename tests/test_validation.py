"""Every public function that consumes a state rejects an invalid one.

Library internals trust the states they built themselves; this pins the
checks that remain where states enter the library.
"""

import numpy as np
import pytest

from hawkchan import metrics
from hawkchan.channel import ChannelParams, apply_channel, cross_term, kraus_pair

K1 = kraus_pair(ChannelParams(0.3, 0.4))
K2 = kraus_pair(ChannelParams(0.6, 1.9))

ENTRY_POINTS = {
    "negativity": metrics.negativity,
    "coherent_information": metrics.coherent_information,
    "ppt_separable": metrics.ppt_separable,
    "von_neumann_entropy": metrics.von_neumann_entropy,
    "report_for_state": metrics.report_for_state,
    "apply_channel": lambda rho: apply_channel(rho, K1),
    "cross_term": lambda rho: cross_term(rho, K1, K2),
}


def _non_hermitian():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.1
    return rho


def _imaginary_nan():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = complex(0.0, np.nan)
    return rho


BAD_STATES = {
    "imaginary-nan": (_imaginary_nan(), "non-finite"),
    "non-hermitian": (_non_hermitian(), "not Hermitian"),
    "trace-two": (np.eye(4) / 2, "trace"),
    "negative-eigenvalue": (np.diag([0.6, 0.3, 0.2, -0.1]), "eigenvalue"),
}


@pytest.mark.parametrize("state", sorted(BAD_STATES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_rejects_invalid_state(entry, state):
    rho, message = BAD_STATES[state]
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](rho)
