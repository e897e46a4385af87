"""Protocol invariants over the whole parameter domain, as hypothesis properties.

Squeezings range over [0, pi/2 - 1e-9] and phases over [0, 2 pi), with
the edge values r in {0, pi/4, pi/2 - 1e-9}, equal squeezings, and phase
differences at and next to 0 and pi drawn explicitly.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from hawkchan import linop
from hawkchan.channel import ChannelParams
from hawkchan.metrics import (
    average_branch_negativity,
    coherent_info_closed,
    coherent_information,
    ensemble_coherent_information,
    negativity_avg_closed,
)
from hawkchan.protocol import ProtocolConfig, measure_control, superposed_state

R_MAX = math.pi / 2 - 1e-9

squeezings = st.one_of(
    st.sampled_from([0.0, math.pi / 4, R_MAX]),
    st.floats(0.0, R_MAX),
)
phases = st.one_of(
    st.sampled_from([0.0, 1e-12, math.nextafter(math.pi, 0.0), math.pi,
                     math.nextafter(math.pi, 4.0), 2 * math.pi - 1e-12]),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
)


@st.composite
def configs(draw):
    """Two channels; the second phase is the first plus a drawn difference."""
    r1, phi1 = draw(squeezings), draw(phases)
    r2 = draw(st.one_of(st.just(r1), squeezings))
    phi2 = phi1 + draw(phases)
    return ProtocolConfig(ChannelParams(r1, phi1), ChannelParams(r2, phi2))


@given(configs())
def test_probabilities_sum_to_one(cfg):
    stats = measure_control(cfg)
    assert abs(stats.p_plus + stats.p_minus - 1.0) <= 1e-12


@given(configs())
def test_branches_average_to_the_mixture(cfg):
    stats = measure_control(cfg)
    averaged = sum(p * rho for p, rho in stats.branches if rho is not None)
    assert np.abs(averaged - stats.rho_mixture).max() <= 1e-12


@given(configs())
def test_control_trace_of_superposition_is_the_mixture(cfg):
    reduced = linop.partial_trace(superposed_state(cfg), (4, 2), keep=0)
    assert np.abs(reduced - measure_control(cfg).rho_mixture).max() <= 1e-13


@given(configs())
def test_average_negativity_matches_closed_form(cfg):
    p1, p2 = cfg.params1, cfg.params2
    numeric = average_branch_negativity(measure_control(cfg).branches)
    assert abs(numeric - negativity_avg_closed(p1.r, p2.r, p1.phi - p2.phi)) <= 1e-10


@given(configs())
def test_coherent_information_matches_closed_form(cfg):
    p1, p2 = cfg.params1, cfg.params2
    stats = measure_control(cfg)
    ensemble, mixture = coherent_info_closed(p1.r, p2.r, p1.phi - p2.phi)
    assert abs(ensemble_coherent_information(stats.branches) - ensemble) <= 1e-12
    assert abs(coherent_information(stats.rho_mixture) - mixture) <= 1e-12
