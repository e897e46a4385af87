"""Protocol invariants over the whole parameter domain, as hypothesis properties.

Squeezings range over [0, pi/2 - 1e-9] and phases over [0, 2 pi), with
the edge values r in {0, pi/4, pi/2 - 1e-9}, equal squeezings, and phase
differences at and next to 0 and pi drawn explicitly.  The Kraus route
is checked against the unitary-dilation oracle on random input states,
and the ``phase`` query's single-channel negativity against the
``channel`` query's, bit for bit.
Sweep properties check that a grid with equal axes is bitwise symmetric
and run random small specs twice against the reference emitters.  The
last property drives the CLI with any valid value set, as flags and as
a config file.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hawkchan import cli
from hawkchan.channel import ChannelParams, apply_channel, cross_term
from hawkchan.metrics import (
    coherent_info_closed,
    negativity,
    negativity_avg_closed,
    negativity_convex_avg,
    negativity_mixture_closed,
    report_for_states,
)
from hawkchan.oracle import apply_channel_dilated, cross_term_dilated, partial_trace, superposed_state
from hawkchan.protocol import measure_control
from hawkchan.sweep import METRICS, TWO_D_METRICS, SweepSpec, emit_csv, emit_json, run_sweep

from helpers import (
    assert_density_matrix,
    emitted,
    random_density,
    reference_emit_csv,
    reference_emit_json,
    single_channel,
)

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
    """Two channels ``(params1, params2)``; the second phase is the first plus a drawn difference."""
    r1, phi1 = draw(squeezings), draw(phases)
    r2 = draw(st.one_of(st.just(r1), squeezings))
    phi2 = phi1 + draw(phases)
    return ChannelParams(r1, phi1), ChannelParams(r2, phi2)


@given(configs())
def test_probabilities_sum_to_one(cfg):
    stats = measure_control(*cfg)
    assert abs(stats.p_plus + stats.p_minus - 1.0) <= 1e-12


@given(configs())
def test_branches_average_to_the_mixture(cfg):
    stats = measure_control(*cfg)
    averaged = stats.p_plus * stats.rho_plus
    if stats.rho_minus is not None:
        averaged = averaged + stats.p_minus * stats.rho_minus
    assert np.abs(averaged - stats.rho_mixture).max() <= 1e-12


@given(configs())
def test_control_trace_of_superposition_is_the_mixture(cfg):
    state = superposed_state(*cfg)
    assert_density_matrix(state)
    reduced = partial_trace(state, (4, 2), keep=0)
    assert np.abs(reduced - measure_control(*cfg).rho_mixture).max() <= 1e-13


@given(configs())
@example((ChannelParams(0.4, 2.0), ChannelParams(0.4, 2.0)))
def test_kept_reports_line_up_with_their_states(cfg):
    """The reports `measure_control` keeps are those of the states it hands out,
    in order: equal to reports that validate the states again."""
    stats = measure_control(*cfg)
    states = np.array([rho for rho in (stats.rho_plus, stats.rho_minus) if rho is not None]
                      + [stats.rho_mixture])
    assert np.array_equal(stats.rho_plus.base, states)
    names = ["plus branch", "minus branch"][:len(states) - 1] + ["classical mixture"]
    assert stats.reports == report_for_states(states, names)


# Identical channels (no minus branch), opposite phases, and r next to pi/2.
AVERAGE_EDGES = [(ChannelParams(0.4, 2.0), ChannelParams(0.4, 2.0)),
                 (ChannelParams(0.5), ChannelParams(0.5, math.pi)),
                 (ChannelParams(R_MAX), ChannelParams(R_MAX, math.pi)),
                 (ChannelParams(0.3), ChannelParams(R_MAX, 1.0))]


def with_average_edges(test):
    for cfg in AVERAGE_EDGES:
        test = example(cfg)(test)
    return test


@given(configs())
@with_average_edges
def test_average_negativity_matches_closed_form(cfg):
    p1, p2 = cfg
    numeric = measure_control(*cfg).negativity_avg
    assert abs(numeric - negativity_avg_closed(p1.r, p2.r, p1.phi - p2.phi)) <= 1e-10


@given(configs())
@with_average_edges
def test_coherent_information_matches_closed_form(cfg):
    p1, p2 = cfg
    stats = measure_control(*cfg)
    ensemble, mixture = coherent_info_closed(p1.r, p2.r, p1.phi - p2.phi)
    assert abs(stats.coherent_info_ensemble - ensemble) <= 1e-12
    assert abs(stats.reports[-1].coherent_information - mixture) <= 1e-12


@given(configs())
def test_mixture_negativity_matches_closed_form(cfg):
    p1, p2 = cfg
    numeric = negativity(measure_control(p1, p2).rho_mixture)
    assert abs(numeric - negativity_mixture_closed(p1.r, p2.r)) <= 1e-12


@given(squeezings)
@example(0.0)
@example(1e-9)
@example(math.pi / 4)
@example(R_MAX)
def test_phase_single_channel_negativity_is_the_channel_query(r):
    """``phase`` takes the single channel's negativity from its classical mixture,
    which with opposite phases is the single channel's output: bit for bit the
    ``channel`` query's negativity, and cos^2 r / 2 within 1e-10."""
    def query(subcommand):
        out = io.StringIO()
        assert cli.run([subcommand, "--r", repr(r), "--format", "json"], stdout=out) == 0
        return json.loads(out.getvalue())

    single = query("phase")["negativity_single_channel"]
    assert single == query("channel")["negativity"]
    assert abs(single - math.cos(r) ** 2 / 2.0) <= 1e-10


@given(configs())
def test_convex_average_matches_closed_form(cfg):
    p1, p2 = cfg
    single = [negativity(single_channel(p)) for p in cfg]
    closed = negativity_convex_avg(p1.r, p2.r)
    assert abs((single[0] + single[1]) / 2.0 - closed) <= 1e-12


@given(configs(), st.integers(0, 2**32 - 1))
def test_kraus_route_matches_the_dilation_oracle(cfg, seed):
    rho = random_density(np.random.default_rng(seed), 4)
    p1, p2 = cfg
    assert np.abs(apply_channel(rho, p1) - apply_channel_dilated(rho, p1)).max() <= 1e-10
    assert np.abs(apply_channel(rho, p2) - apply_channel_dilated(rho, p2)).max() <= 1e-10
    assert np.abs(cross_term(rho, p1, p2) - cross_term_dilated(rho, p1, p2)).max() <= 1e-10
    assert np.abs(cross_term(rho, p2, p1) - cross_term_dilated(rho, p2, p1)).max() <= 1e-10


@given(st.sampled_from(TWO_D_METRICS), st.floats(0.0, math.pi / 4), st.floats(0.0, math.pi / 4),
       st.integers(2, 401))
def test_square_sweeps_are_bitwise_symmetric(metric, a, b, resolution):
    r_range = (min(a, b), max(a, b))
    values = run_sweep(SweepSpec(metric, r_range, resolution)).values
    assert np.array_equal(values, values.T)


@st.composite
def small_specs(draw):
    """Any metric on a sub-range of its domain, at resolution 2 to 9."""
    metric = draw(st.sampled_from(METRICS))
    r_max = R_MAX if metric == "phase_curve" else math.pi / 4
    lo = draw(st.floats(0.0, r_max))
    return SweepSpec(metric, (lo, draw(st.floats(lo, r_max))), draw(st.integers(2, 9)))


@given(small_specs())
def test_sweeps_are_byte_deterministic_and_match_the_reference_emitters(spec):
    for emit, reference in ((emit_csv, reference_emit_csv), (emit_json, reference_emit_json)):
        first, second = emitted(emit, run_sweep(spec)), emitted(emit, run_sweep(spec))
        assert first == second == emitted(reference, run_sweep(spec))


any_phase = st.floats(-20.0, 20.0)
report_format = st.sampled_from(["human", "json"])


@st.composite
def geometry_values(draw):
    mass = draw(st.floats(1e-3, 1e3))
    radius = 2.0 * mass * (1.0 + draw(st.floats(1e-9, 10.0)))
    assume(radius > 2.0 * mass)
    return {"mass": mass, "radius": radius, "k0": draw(st.floats(1e-3, 10.0))}


@st.composite
def sweep_values(draw):
    """Any valid range: ``min`` alone stays below the default ``max`` (pi/4), and back."""
    metric = draw(st.sampled_from(METRICS))
    lo = draw(st.floats(0.0, math.pi / 4))
    hi = draw(st.floats(lo, R_MAX if metric == "phase_curve" else math.pi / 4))
    values = {"metric": metric, "out": "-"}
    for key, value in (("min", lo), ("max", hi)):
        if draw(st.booleans()):
            values[key] = value
    return values


# Required values, then optional ones that may be left to their defaults.
VALUE_SETS = {
    "geometry": (geometry_values(), {"hbar": st.floats(1e-3, 10.0), "format": report_format}),
    "channel": (st.fixed_dictionaries({"r": squeezings}),
                {"phi": any_phase, "state": st.just("bell"), "format": report_format}),
    "protocol": (st.fixed_dictionaries({"r1": squeezings, "r2": squeezings}),
                 {"phi1": any_phase, "phi2": any_phase, "format": report_format}),
    "phase": (st.fixed_dictionaries({"r": squeezings}), {"format": report_format}),
    "sweep": (sweep_values(), {"resolution": st.integers(2, 12),
                               "format": st.sampled_from(["csv", "json"])}),
}


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("subcommand", sorted(cli._PARAMS))
@given(data=st.data())
def test_flags_and_config_file_print_the_same_bytes(subcommand, data):
    required, optional = VALUE_SETS[subcommand]
    values = {**data.draw(required), **data.draw(st.fixed_dictionaries({}, optional=optional))}
    assert set(values) <= set(cli._PARAMS[subcommand])
    argv = [subcommand]
    for key, value in values.items():
        argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(values, fh)
        from_file = _run_captured([subcommand, "--config", path])
    from_flags = _run_captured(argv)
    assert from_flags[0] == 0, from_flags[2]
    assert from_file == from_flags
