"""Tests for geometry mapping, Kraus construction, and the dilation oracle."""

import math
import re
from types import SimpleNamespace

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from hawkchan import channel, linop
from hawkchan.channel import (
    BlackHoleGeometry,
    ChannelParams,
    DomainError,
    apply_channel,
    channel_output_closed_form,
    cross_term,
    kraus_block,
    kraus_operators,
    squeezing_from_geometry,
)
from hawkchan.oracle import apply_channel_dilated, cross_term_dilated, dilation_unitary, tensor
from hawkchan.protocol import BELL_STATE

from helpers import geometry_r_oracle, random_density

RNG = np.random.default_rng(20240812)


def random_params(rng):
    return ChannelParams(r=rng.uniform(0.0, math.pi / 2 - 1e-9), phi=rng.uniform(0.0, 2 * math.pi))


class TestGeometry:
    def test_matches_high_precision_oracle(self):
        params = squeezing_from_geometry(BlackHoleGeometry(mass=1.0, radius=2.02, k0=0.05))
        assert params.phi == 0.0
        assert abs(params.r - geometry_r_oracle(1.0, 2.02, 0.05)) < 1e-13

    def test_high_frequency_suppression(self):
        params = squeezing_from_geometry(BlackHoleGeometry(mass=1.0, radius=2.1, k0=1e6))
        assert 0.0 <= params.r < 1e-12

    def test_squeezing_below_quarter_pi(self):
        for _ in range(50):
            mass = RNG.uniform(0.1, 10.0)
            g = BlackHoleGeometry(
                mass=mass,
                radius=2.0 * mass * (1.0 + RNG.uniform(1e-6, 10.0)),
                k0=RNG.uniform(1e-3, 1.0),
            )
            r = squeezing_from_geometry(g).r
            assert 0.0 < r < math.pi / 4

    def test_derived_quantities(self):
        g = BlackHoleGeometry(mass=2.0, radius=5.0, k0=0.1)
        assert g.horizon_radius == 4.0
        assert g.surface_gravity == 0.125
        assert abs(g.redshift_factor - 0.2) < 1e-15

    def test_rejects_observer_inside_horizon(self):
        with pytest.raises(ValueError, match="radius must be outside the horizon"):
            BlackHoleGeometry(mass=1.0, radius=2.0, k0=0.1)
        with pytest.raises(ValueError, match="radius must be outside the horizon"):
            BlackHoleGeometry(mass=1.0, radius=1.2, k0=0.1)

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ValueError, match="mass"):
            BlackHoleGeometry(mass=0.0, radius=3.0, k0=0.1)
        with pytest.raises(ValueError, match="k0"):
            BlackHoleGeometry(mass=1.0, radius=3.0, k0=-0.1)
        with pytest.raises(ValueError, match="hbar"):
            BlackHoleGeometry(mass=1.0, radius=3.0, k0=0.1, hbar=0.0)


@pytest.mark.parametrize(
    "make, field, message",
    [
        (lambda: BlackHoleGeometry(mass=math.nan, radius=3.0, k0=0.1), "mass", "mass must be finite, got nan"),
        (lambda: BlackHoleGeometry(mass=1.0, radius=math.inf, k0=0.1), "radius", "radius must be finite"),
        (lambda: BlackHoleGeometry(mass=1.0, radius=1.5, k0=0.1), "radius",
         r"^radius must be outside the horizon 2\*mass = 2\.0, got 1\.5$"),
        (lambda: BlackHoleGeometry(mass=1.0, radius=3.0, k0=0.1, hbar=-math.inf), "hbar", "hbar must"),
        (lambda: ChannelParams(r=math.nan), "r", "^r must be finite, got nan$"),
        (lambda: ChannelParams(r=2.0), "r", r"^r must be a squeezing angle in \[0, pi/2\), got 2.0$"),
        (lambda: ChannelParams(r=0.1, phi=-math.inf), "phi", "^phi must be finite, got -inf$"),
        (lambda: ChannelParams("0.5"), "r", "r must be a real number, got '0.5'"),
        (lambda: ChannelParams(None), "r", "r must be a real number, got None"),
        (lambda: ChannelParams(0.1, phi=1j), "phi", "phi must be a real number"),
        (lambda: ChannelParams(10**400), "r", "^r must be finite, got inf$"),
        (lambda: BlackHoleGeometry("1", 3, 0.1), "mass", "mass must be a real number, got '1'"),
        (lambda: BlackHoleGeometry(1.0, [3.0], 0.1), "radius", "radius must be a real number"),
        (lambda: BlackHoleGeometry(1.0, 3.0, 0.1, hbar=-10**400), "hbar", "hbar must be finite, got -inf"),
        # 4*mass overflows, so the surface gravity 1/(4*mass) is 0.0: refused before it divides.
        (lambda: BlackHoleGeometry(5e307, 1.5e308, 0.1), "mass",
         r"^mass must give a positive, finite surface gravity, got 1/\(4\*5e\+307\) = 0\.0$"),
    ],
    ids=["mass-nan", "radius-inf", "radius-inside", "hbar-inf", "r-nan", "r-range", "phi-inf",
         "r-string", "r-none", "phi-complex", "r-huge-int", "mass-string", "radius-list",
         "hbar-huge-int", "mass-zero-gravity"],
)
def test_refused_value_names_its_field(make, field, message):
    """The message is the sentence "<field> <reason>", and the reason does not repeat the field."""
    with pytest.raises(DomainError, match=message) as refused:
        make()
    assert refused.value.field == field
    assert str(refused.value) == f"{field} {refused.value.reason}"
    assert not re.search(rf"\b{field}\b", refused.value.reason)


def test_negative_zero_is_stored_as_zero():
    assert math.copysign(1.0, ChannelParams(-0.0).r) == 1.0
    assert math.copysign(1.0, ChannelParams(0.1, np.float64(-0.0)).phi) == 1.0
    assert math.copysign(1.0, BlackHoleGeometry(1.0, 3.0, 0.1, hbar=1e-300).hbar) == 1.0
    assert ChannelParams(5e-324).r == 5e-324  # any other value keeps its bits


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.floats(min_value=5e-324, max_value=1.7e308), st.floats(1.0, 1e300),
                  st.floats(min_value=5e-324, max_value=1.7e308),
                  st.floats(min_value=5e-324, max_value=1.7e308))
def test_every_geometry_that_constructs_gives_a_squeezing(mass, stretch, k0, hbar):
    """The surface-gravity check leaves no geometry whose squeezing divides by zero
    or leaves [0, pi/4], at either end of the float range."""
    try:
        g = BlackHoleGeometry(mass, min(2.0 * mass * stretch, 1.7e308), k0, hbar)
    except DomainError as refused:
        assert refused.field in ("mass", "radius")
        return
    assert 0.0 < g.surface_gravity < math.inf
    assert 0.0 <= squeezing_from_geometry(g).r <= math.pi / 4


def test_numpy_scalars_are_accepted_and_stored_as_floats():
    params = ChannelParams(np.float32(0.25), np.int64(1))
    geometry = BlackHoleGeometry(np.int64(1), np.float32(3.0), np.float64(0.1))
    assert (params.r, params.phi) == (0.25, 1.0)
    assert all(type(x) is float for x in (params.r, params.phi, geometry.mass, geometry.radius,
                                          geometry.k0, geometry.hbar))


class TestChannelParams:
    def test_domain(self):
        with pytest.raises(ValueError, match="squeezing"):
            ChannelParams(r=-0.1)
        with pytest.raises(ValueError, match="squeezing"):
            ChannelParams(r=math.pi / 2)

    def test_phase_reduction(self):
        assert ChannelParams(r=0.1, phi=2 * math.pi + 0.5).phi == pytest.approx(0.5, abs=1e-12)
        assert ChannelParams(r=0.1, phi=-0.5).phi == pytest.approx(2 * math.pi - 0.5, abs=1e-12)

    @pytest.mark.parametrize("phi", [-1e-17, -5e-324, 2 * math.pi, -2 * math.pi, 4 * math.pi])
    def test_phase_reduction_stays_below_two_pi(self, phi):
        assert 0.0 <= ChannelParams(r=0.3, phi=phi).phi < 2 * math.pi


class TestKrausPair:
    """Rows of `kraus_operators`: the (m0, m1) pair of one channel."""

    def test_identity_channel_at_zero(self):
        m0, m1 = kraus_operators(ChannelParams(0.0))[0]
        assert np.array_equal(m0, np.eye(4))
        assert np.abs(m1).max() == 0.0

    def test_quarter_pi_matrices(self):
        m0, m1 = kraus_operators(ChannelParams(math.pi / 4, 0.0))[0]
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert np.abs(m0 - np.diag([inv_sqrt2, 1.0, inv_sqrt2, 1.0])).max() < 1e-15
        expected_m1 = np.zeros((4, 4), dtype=complex)
        expected_m1[1, 0] = inv_sqrt2
        expected_m1[3, 2] = inv_sqrt2
        assert np.abs(m1 - expected_m1).max() < 1e-15

    def test_completeness(self):
        for _ in range(20):
            m0, m1 = kraus_operators(random_params(RNG))[0]
            total = m0.conj().T @ m0 + m1.conj().T @ m1
            assert np.abs(total - np.eye(4)).max() < 1e-12


def hand_built_pair(p):
    """``diag(c, 1, c, 1)`` and ``e^{-i phi} s`` at (1, 0) and (3, 2), entry by entry."""
    c, s = math.cos(p.r), math.sin(p.r)
    m0 = np.diag([c, 1.0, c, 1.0]).astype(complex)
    m1 = np.zeros((4, 4), dtype=complex)
    m1[1, 0] = m1[3, 2] = np.exp(-1j * p.phi) * s
    return np.array([m0, m1])


EDGE_PARAMS = [ChannelParams(0.0), ChannelParams(0.0, math.pi),
               ChannelParams(math.nextafter(math.pi / 2, 0.0), 1.0),
               ChannelParams(math.pi / 2 - 1e-9, 2 * math.pi - 1e-15),
               ChannelParams(0.7, 2 * math.pi - 1e-15), ChannelParams(0.3, -1e-17)]


class TestKrausOperators:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_stack_is_the_hand_built_pairs_bit_for_bit(self, count):
        rng = np.random.default_rng(20261019 + count)
        for _ in range(30):
            params = [random_params(rng) for _ in range(count)]
            expected = np.array([hand_built_pair(p) for p in params])
            assert kraus_operators(*params).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p", EDGE_PARAMS)
    def test_edges_are_the_hand_built_pair_bit_for_bit(self, p):
        assert kraus_operators(p).tobytes() == hand_built_pair(p)[np.newaxis].tobytes()
        assert kraus_operators(*EDGE_PARAMS)[EDGE_PARAMS.index(p)].tobytes() == \
            hand_built_pair(p).tobytes()

    def test_corrupted_entry_fails_the_completeness_check(self, monkeypatch):
        good, bad = ChannelParams(0.2, 1.0), ChannelParams(0.3, 2.0)
        corrupt = SimpleNamespace(sin=math.sin,
                                  cos=lambda r: math.cos(r) + (1e-9 if r == bad.r else 0.0))
        monkeypatch.setattr(channel, "math", corrupt)
        kraus_operators(good)
        with pytest.raises(ValueError, match="^Kraus completeness violated by 1.9"):
            kraus_operators(good, bad)

    def test_no_channels_is_refused(self):
        with pytest.raises(ValueError, match="^kraus_operators needs at least one channel"):
            kraus_operators()


class TestApplyChannel:
    def test_identity_at_zero_squeezing(self):
        out = apply_channel(BELL_STATE, ChannelParams(0.0))
        assert np.abs(out - BELL_STATE).max() < 1e-14

    def test_bell_output_matches_closed_form(self):
        for _ in range(20):
            p = random_params(RNG)
            out = apply_channel(BELL_STATE, p)
            assert np.abs(out - channel_output_closed_form(p)).max() < 1e-14

    def test_closed_form_entries(self):
        p = ChannelParams(0.7, 1.3)
        expected = np.zeros((4, 4), dtype=complex)
        c, s = math.cos(0.7), math.sin(0.7)
        expected[0, 0] = c * c / 2
        expected[1, 1] = s * s / 2
        expected[0, 3] = expected[3, 0] = c / 2
        expected[3, 3] = 0.5
        assert np.abs(channel_output_closed_form(p) - expected).max() < 1e-15

    def test_maximally_mixed_matches_dilation(self):
        p = ChannelParams(0.5)
        rho = np.eye(4, dtype=complex) / 4
        out = apply_channel(rho, p)
        assert np.abs(out - apply_channel_dilated(rho, p)).max() < 1e-12

    def test_preserves_trace_and_positivity(self):
        for _ in range(10):
            p = random_params(RNG)
            out = apply_channel(random_density(RNG, 4), p)
            assert abs(out.trace() - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="4x4"):
            apply_channel(np.eye(2) / 2, ChannelParams(0.3))


class TestCrossTerm:
    def test_equal_channels_reduce_to_apply(self):
        p = random_params(RNG)
        rho = random_density(RNG, 4)
        assert np.abs(cross_term(rho, p, p) - apply_channel(rho, p)).max() < 1e-14

    def test_adjoint_symmetry(self):
        for _ in range(10):
            p1, p2 = random_params(RNG), random_params(RNG)
            rho = random_density(RNG, 4)
            x12 = cross_term(rho, p1, p2)
            x21 = cross_term(rho, p2, p1)
            assert np.abs(x12.conj().T - x21).max() < 1e-12

    def test_matches_dilation_cross_block(self):
        p1, p2 = ChannelParams(0.3), ChannelParams(0.7)
        rho = BELL_STATE
        got = cross_term(rho, p1, p2)
        assert np.abs(got - cross_term_dilated(rho, p1, p2)).max() < 1e-12


_CALL_RNG = np.random.default_rng(20261020)
CALL_STATES = [BELL_STATE] + [random_density(_CALL_RNG, 4) for _ in range(3)]
CALL_PARAMS = EDGE_PARAMS + [random_params(_CALL_RNG) for _ in range(6)]


def old_route(rho, ki, kj):
    """The checked block from Kraus rows that callers built, as the calls took them
    before they took `ChannelParams`."""
    return kraus_block(linop.check_density_matrix(rho, "input state", two_qubit=True)[0], ki, kj)


class TestChannelParamsCalls:
    """`apply_channel` and `cross_term` give, bit for bit, what the caller-built Kraus
    rows gave: one channel's row of `kraus_operators(p)`, the two rows of
    `kraus_operators(pi, pj)`."""

    @pytest.mark.parametrize("k", range(len(CALL_STATES)))
    def test_cross_term_is_the_kraus_row_route(self, k):
        rho = CALL_STATES[k]
        for pi in CALL_PARAMS:
            for pj in CALL_PARAMS:
                expected = old_route(rho, *kraus_operators(pi, pj))
                assert cross_term(rho, pi, pj).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", range(len(CALL_STATES)))
    def test_apply_channel_is_the_kraus_row_route(self, k):
        rho = CALL_STATES[k]
        for p in CALL_PARAMS:
            row = kraus_operators(p)[0]
            expected = linop.check_density_matrix(old_route(rho, row, row), "channel output")[0]
            assert apply_channel(rho, p).tobytes() == expected.tobytes()


class TestDilationOracle:
    def test_identity_at_zero(self):
        assert np.abs(dilation_unitary(ChannelParams(0.0)) - np.eye(4)).max() < 1e-14

    def test_unitarity(self):
        for params in [ChannelParams(0.3, 0.0)] + [random_params(RNG) for _ in range(10)]:
            u = dilation_unitary(params)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10

    def test_channel_equality_on_random_states(self):
        p = ChannelParams(0.4, 1.1)
        for _ in range(20):
            rho = random_density(RNG, 4)
            assert np.abs(apply_channel(rho, p) - apply_channel_dilated(rho, p)).max() < 1e-10

    def test_matches_hand_exponential(self):
        # The generator squares to -1 on span{|00>, |11>} and vanishes
        # elsewhere, so U = cos(r) on that block plus sin(r) times the
        # generator, and the identity on |01>, |10>.
        p = ChannelParams(0.7, 2.4)
        expected = np.eye(4, dtype=complex)
        expected[0, 0] = expected[3, 3] = math.cos(p.r)
        expected[3, 0] = -np.exp(-1j * p.phi) * math.sin(p.r)
        expected[0, 3] = np.exp(1j * p.phi) * math.sin(p.r)
        assert np.abs(dilation_unitary(p) - expected).max() < 1e-12

    def test_induced_kraus_operators(self):
        # <n_partner| U |0_partner> must reproduce the Kraus pair up to a
        # branch-global phase; compare at the channel level via both blocks.
        p = ChannelParams(0.9, 2.2)
        u = dilation_unitary(p)
        n0 = u.reshape(2, 2, 2, 2)[:, 0, :, 0]
        n1 = u.reshape(2, 2, 2, 2)[:, 1, :, 0]
        m0, m1 = kraus_operators(p)[0]
        assert np.abs(tensor(np.eye(2), n0) - m0).max() < 1e-12
        phase = -1.0  # branch-global sign from the generator convention
        assert np.abs(phase * tensor(np.eye(2), n1) - m1).max() < 1e-12


def test_high_frequency_mode_nearly_invariant():
    base = BlackHoleGeometry(mass=1.0, radius=2.1, k0=0.5)
    boosted = BlackHoleGeometry(mass=1.0, radius=2.1, k0=5.0)
    r_low = squeezing_from_geometry(base).r
    r_high = squeezing_from_geometry(boosted).r
    assert r_high < r_low * 1e-4
    out = apply_channel(BELL_STATE, ChannelParams(r_high))
    assert np.abs(out - BELL_STATE).max() < 1e-8
