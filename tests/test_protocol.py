"""Tests for the superposition, mixture, and opposite-phase protocols."""

import io
import math

import numpy as np
import pytest

from hawkchan import channel, cli, linop, protocol, sweep
from hawkchan.channel import ChannelParams, apply_channel, kraus_block, kraus_operators
from hawkchan.metrics import negativity, report_for_state
from hawkchan.oracle import (
    apply_channel_dilated,
    cross_term_dilated,
    dilation_unitary,
    partial_trace,
    superposed_state,
    tensor,
)
from hawkchan.protocol import BELL_STATE, measure_control

from helpers import single_channel

RNG = np.random.default_rng(20240813)


def random_config(rng):
    """A random channel pair ``(params1, params2)``."""
    return (
        ChannelParams(rng.uniform(0.0, math.pi / 2 - 1e-9), rng.uniform(0.0, 2 * math.pi)),
        ChannelParams(rng.uniform(0.0, math.pi / 2 - 1e-9), rng.uniform(0.0, 2 * math.pi)),
    )


def closed_form_branches(p1, p2):
    """The printed posterior matrices, rebuilt from the A/B/C scalars."""
    r1, phi1 = p1.r, p1.phi
    r2, phi2 = p2.r, p2.phi
    c1, c2, s1, s2 = math.cos(r1), math.cos(r2), math.sin(r1), math.sin(r2)
    dphi = phi1 - phi2
    a = 3.0 + c1 * c2 + math.cos(dphi) * s1 * s2
    b = math.sin(dphi / 2.0) ** 2 * s1 * s2
    c = 1.0 - c1 * c2 - math.cos(dphi) * s1 * s2
    plus = np.zeros((4, 4), dtype=complex)
    plus[0, 0] = (c1 + c2) ** 2
    plus[1, 1] = (s1 + s2) ** 2 - 4.0 * b
    plus[0, 3] = plus[3, 0] = 2.0 * (c1 + c2)
    plus[3, 3] = 4.0
    minus = np.zeros((4, 4), dtype=complex)
    minus[0, 0] = (c1 - c2) ** 2
    minus[1, 1] = (s1 - s2) ** 2 + 4.0 * b
    return a, b, c, plus, minus


class TestBellState:
    def test_entries(self):
        rho = BELL_STATE
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.abs(rho - expected).max() < 1e-15

    def test_pure_unit_trace(self):
        rho = BELL_STATE
        assert abs(rho.trace() - 1.0) < 1e-15
        assert abs((rho @ rho).trace() - 1.0) < 1e-14

    def test_marginals_maximally_mixed(self):
        rho = BELL_STATE
        for side in (0, 1):
            marginal = partial_trace(rho, (2, 2), keep=side)
            assert np.abs(marginal - np.eye(2) / 2).max() < 1e-14


class TestClassicalScenario:
    """The single channel's output on the Bell state."""

    def test_zero_squeezing_is_identity(self):
        assert np.abs(single_channel(ChannelParams(0.0)) - BELL_STATE).max() < 1e-14

    def test_quarter_pi_matrix(self):
        out = single_channel(ChannelParams(math.pi / 4))
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        expected = 0.5 * np.array(
            [
                [0.5, 0, 0, inv_sqrt2],
                [0, 0.5, 0, 0],
                [0, 0, 0, 0],
                [inv_sqrt2, 0, 0, 1.0],
            ],
            dtype=complex,
        )
        assert np.abs(out - expected).max() < 1e-14

    def test_negativity_closed_form(self):
        for r in (0.0, 0.3, 0.7, 1.2):
            out = single_channel(ChannelParams(r, phi=0.4))
            assert abs(negativity(out) - math.cos(r) ** 2 / 2) < 1e-12


class TestSuperposedState:
    def test_identical_branches_factorize(self):
        p = ChannelParams(0.4, 0.9)
        state = superposed_state(p, p)
        plus_proj = 0.5 * np.ones((2, 2), dtype=complex)
        expected = tensor(single_channel(p), plus_proj)
        assert np.abs(state - expected).max() < 1e-13

    def test_control_marginal_is_mixture(self):
        for _ in range(5):
            cfg = random_config(RNG)
            reduced = partial_trace(superposed_state(*cfg), (4, 2), keep=0)
            assert np.abs(reduced - measure_control(*cfg).rho_mixture).max() < 1e-13

    def test_matches_dilated_purification(self):
        # Independent route on the 16-dim A x R x partner x control
        # space: branch unitaries entangle with the control, then the
        # hidden partner mode is traced out.
        p1, p2 = ChannelParams(0.2), ChannelParams(0.6)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        u1 = tensor(np.eye(2), dilation_unitary(p1))
        u2 = tensor(np.eye(2), dilation_unitary(p2))
        ket0 = np.array([1.0, 0.0], dtype=complex)
        ket1 = np.array([0.0, 1.0], dtype=complex)
        base = np.kron(psi, ket0)  # A,R,partner with partner in vacuum
        branch1 = np.kron(u1 @ base, ket0)
        branch2 = np.kron(u2 @ base, ket1)
        full = (branch1 + branch2) / math.sqrt(2.0)
        rho_full = np.outer(full, full.conj())
        got = partial_trace(rho_full, (2, 2, 2, 2), keep=(0, 1, 3))
        assert np.abs(got - superposed_state(p1, p2)).max() < 1e-10

    def test_valid_density_matrix(self):
        state = superposed_state(*random_config(RNG))
        assert state.shape == (8, 8)
        assert abs(state.trace() - 1.0) < 1e-12
        assert np.linalg.eigvalsh(state)[0] > -1e-12


class TestMeasureControl:
    def test_identical_branches_degenerate(self):
        p = ChannelParams(0.5, 1.0)
        stats = measure_control(p, p)
        assert abs(stats.p_plus - 1.0) < 1e-12
        assert abs(stats.p_minus) < 1e-12
        assert stats.rho_minus is None
        assert np.abs(stats.rho_plus - single_channel(p)).max() < 1e-12

    def test_minus_branch_separable(self):
        stats = measure_control(ChannelParams(0.3), ChannelParams(0.7))
        assert stats.rho_minus is not None
        assert negativity(stats.rho_minus) < 1e-12
        assert report_for_state(stats.rho_minus).ppt

    def test_matches_projection_of_superposed_state(self):
        for _ in range(10):
            cfg = random_config(RNG)
            stats = measure_control(*cfg)
            state = superposed_state(*cfg)
            for sign, prob, rho in (
                (1.0, stats.p_plus, stats.rho_plus),
                (-1.0, stats.p_minus, stats.rho_minus),
            ):
                ket = np.array([[1.0], [sign]], dtype=complex) / math.sqrt(2.0)
                projector = tensor(np.eye(4), ket @ ket.conj().T)
                projected = partial_trace(projector @ state @ projector, (4, 2), keep=0)
                assert abs(projected.trace().real - prob) < 1e-12
                if rho is not None:
                    assert np.abs(projected / prob - rho).max() < 1e-12

    def test_matches_closed_form_matrices(self):
        for _ in range(10):
            cfg = random_config(RNG)
            stats = measure_control(*cfg)
            a, b, c, plus, minus = closed_form_branches(*cfg)
            assert abs(stats.a_scalar - a) < 1e-12
            assert abs(stats.b_scalar - b) < 1e-12
            assert abs(stats.c_scalar - c) < 1e-12
            assert abs(stats.p_plus - a / 4.0) < 1e-12
            assert abs(stats.p_minus - c / 4.0) < 1e-12
            # The printed numerator matrices carry traces 2A and 2C.
            assert abs(plus.trace().real - 2.0 * a) < 1e-12
            assert abs(minus.trace().real - 2.0 * c) < 1e-12
            assert np.abs(stats.rho_plus - plus / (2.0 * a)).max() < 1e-12
            if stats.rho_minus is not None:
                assert np.abs(stats.rho_minus - minus / (2.0 * c)).max() < 1e-12

    def test_probability_normalization(self):
        for _ in range(20):
            stats = measure_control(*random_config(RNG))
            assert abs(stats.p_plus + stats.p_minus - 1.0) < 1e-12

    def test_reconstructs_classical_mixture(self):
        for _ in range(10):
            stats = measure_control(*random_config(RNG))
            rebuilt = stats.p_plus * stats.rho_plus
            if stats.rho_minus is not None:
                rebuilt = rebuilt + stats.p_minus * stats.rho_minus
            assert np.abs(rebuilt - stats.rho_mixture).max() < 1e-12

    def test_near_degenerate_minus_branch_stays_valid(self):
        # Normalizing the numeric minus block by p_minus ~ C/4 would
        # blow roundoff up to ~1e-4 here; the closed-form route keeps
        # the state exactly diagonal and non-negative.
        for dr in (1e-4, 1e-6, 2e-7):
            stats = measure_control(ChannelParams(0.3), ChannelParams(0.3 + dr))
            assert stats.rho_minus is not None
            linop.check_density_matrix(stats.rho_minus)
            assert report_for_state(stats.rho_minus).ppt
            ratio = stats.rho_minus[1, 1].real / stats.rho_minus[0, 0].real
            assert ratio == pytest.approx(1.0 / math.tan(0.3) ** 2, rel=1e-3)

    def test_minus_branch_absent_below_threshold(self):
        stats = measure_control(ChannelParams(0.3), ChannelParams(0.3 + 1e-7))
        assert stats.c_scalar < 1e-14
        assert stats.rho_minus is None

    def test_branch_averages_add_the_branch_reports_bit_for_bit(self):
        rng = np.random.default_rng(7)  # the module RNG's draws stay those of the other tests
        for _ in range(20):
            stats = measure_control(*random_config(rng))
            plus, minus, _ = stats.reports
            assert stats.negativity_avg == (0.0 + stats.p_plus * plus.negativity_numeric
                                            + stats.p_minus * minus.negativity_numeric)
            assert stats.coherent_info_ensemble == (0.0 + stats.p_plus * plus.coherent_information
                                                    + stats.p_minus * minus.coherent_information)

    def test_branch_averages_without_a_minus_branch_are_the_plus_branch(self):
        # p_minus = C/4 is not zero here, but the branch does not occur.
        stats = measure_control(ChannelParams(0.3), ChannelParams(0.3 + 1e-7))
        plus, _ = stats.reports
        assert stats.p_minus > 0.0
        assert stats.negativity_avg == 0.0 + stats.p_plus * plus.negativity_numeric
        assert stats.coherent_info_ensemble == 0.0 + stats.p_plus * plus.coherent_information

    def test_branch_swap_symmetry(self):
        p1, p2 = random_config(RNG)
        s1, s2 = measure_control(p1, p2), measure_control(p2, p1)
        assert abs(s1.p_plus - s2.p_plus) < 1e-14
        assert abs(s1.p_minus - s2.p_minus) < 1e-14
        assert np.abs(s1.rho_plus - s2.rho_plus).max() < 1e-13
        if s1.rho_minus is not None:
            assert np.abs(s1.rho_minus - s2.rho_minus).max() < 1e-13


class TestClassicalMixture:
    def test_identical_branches(self):
        p = ChannelParams(0.6, 0.2)
        out = measure_control(p, p).rho_mixture
        assert np.abs(out - single_channel(p)).max() < 1e-14

    def test_printed_matrix_at_zero_and_quarter_pi(self):
        out = measure_control(ChannelParams(0.0), ChannelParams(math.pi / 4)).rho_mixture
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        expected = 0.25 * np.array(
            [
                [1.0 + 0.5, 0, 0, 1.0 + inv_sqrt2],
                [0, 0.5, 0, 0],
                [0, 0, 0, 0],
                [1.0 + inv_sqrt2, 0, 0, 2.0],
            ],
            dtype=complex,
        )
        assert np.abs(out - expected).max() < 1e-14

    def test_phase_independent(self):
        mixture_a = measure_control(ChannelParams(0.3, 0.0), ChannelParams(0.8, 0.0)).rho_mixture
        mixture_b = measure_control(ChannelParams(0.3, 2.1), ChannelParams(0.8, 4.4)).rho_mixture
        assert np.abs(mixture_a - mixture_b).max() < 1e-14


def mixture_oracle(cfg, apply=lambda rho, p: apply_channel(rho, kraus_operators(p)[0])):
    """The equal mixture built channel by channel, apart from the interference blocks."""
    p1, p2 = cfg
    return 0.5 * (apply(BELL_STATE, p1) + apply(BELL_STATE, p2))


def oracle_configs():
    rng = np.random.default_rng(20261018)
    configs = [random_config(rng) for _ in range(40)]
    same = [ChannelParams(rng.uniform(0.0, math.pi / 2 - 1e-9), rng.uniform(0.0, 2 * math.pi))
            for _ in range(5)]
    return configs + [(p, p) for p in same + [ChannelParams(0.0)]]


@pytest.fixture
def kraus_calls(monkeypatch):
    """Records every channel built through ``kraus_operators``, by any module that
    imports it, one entry per channel."""
    calls = []
    build = channel.kraus_operators

    def counting(*params):
        calls.extend(params)
        return build(*params)

    for module in (channel, protocol, cli):
        if hasattr(module, "kraus_operators"):
            monkeypatch.setattr(module, "kraus_operators", counting)
    return calls


@pytest.fixture
def validated(monkeypatch):
    """Records each ``check_density_matrix`` call as the list of the names it checks."""
    calls = []
    check = linop.check_density_matrix

    def recording(rho, name="state", **kwargs):
        calls.append([name] if isinstance(name, str) else list(name))
        return check(rho, name, **kwargs)

    monkeypatch.setattr(linop, "check_density_matrix", recording)
    return calls


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Records the stack shape of every ``numpy.linalg.eigvalsh`` call (``()`` for one matrix)."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a)[:-2])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestOneEvaluation:
    @pytest.mark.parametrize("cfg", oracle_configs())
    def test_mixture_matches_channel_by_channel_oracle(self, cfg):
        mixture = measure_control(*cfg).rho_mixture
        assert np.array_equal(mixture, mixture_oracle(cfg))
        assert np.abs(mixture - mixture_oracle(cfg, apply_channel_dilated)).max() < 1e-12

    def test_branches_are_the_two_outcomes(self):
        """The plus branch, the minus branch and the mixture are views of one
        three-state stack, in that order: the layout a `report_for_states` call
        relies on."""
        stats = measure_control(ChannelParams(0.2), ChannelParams(0.7, 1.0))
        assert stats.rho_minus is not None
        views = (stats.rho_plus, stats.rho_minus, stats.rho_mixture)
        stack = stats.rho_plus.base
        assert stack.shape == (3, 4, 4) and all(rho.base is stack for rho in views)
        for i, rho in enumerate(views):
            assert np.array_equal(rho, stack[i])

    def test_identical_channels_have_no_minus_state(self):
        p = ChannelParams(0.4, 2.0)
        stats = measure_control(p, p)
        assert (stats.p_minus, stats.rho_minus) == (0.0, None)

    def test_protocol_query_builds_two_kraus_pairs(self, kraus_calls):
        argv = ["protocol", "--r1", "0.2", "--r2", "0.7", "--phi2", "1.0", "--format", "json"]
        assert cli.run(argv, stdout=io.StringIO()) == 0
        assert len(kraus_calls) == 2

    @pytest.mark.parametrize("r2, phi2, built", [
        ("0.7", "1.0", ["plus branch", "minus branch", "classical mixture"]),
        ("0.2", "0.0", ["plus branch", "classical mixture"]),
    ])
    def test_protocol_query_validates_each_state_once(self, validated, eigvalsh_calls,
                                                      r2, phi2, built):
        """Each protocol state is checked once, when it is built, in one stacked
        call over all of them.  One ``eigvalsh`` call in all: the build check's,
        which also takes the partial transposes and Rob's reduced states (its
        spectra of the states serve as S(AB))."""
        argv = ["protocol", "--r1", "0.2", "--r2", r2, "--phi2", phi2, "--format", "json"]
        assert cli.run(argv, stdout=io.StringIO()) == 0
        assert validated == [built]
        assert eigvalsh_calls == [(3 * len(built),)]

    @pytest.mark.parametrize("argv, pairs, checks, eigvalsh", [
        (["channel", "--r", "0.4", "--phi", "1.1"], 1,
         [["state"]], [(3,)]),
        (["phase", "--r", "0.5"], 2,
         [["plus branch", "minus branch", "classical mixture"]], [(9,)]),
        (["phase", "--r", "0"], 2,
         [["plus branch", "classical mixture"]], [(6,)]),
    ], ids=["channel", "phase", "phase-r0"])
    def test_point_query_work(self, kraus_calls, validated, eigvalsh_calls,
                              argv, pairs, checks, eigvalsh):
        """``kraus_operators`` channels, ``check_density_matrix`` and ``eigvalsh`` calls per query
        (protocol: above).  The Bell state a ``channel`` query starts from is not
        re-checked.  ``phase`` checks and reports its branches and its mixture, the
        single channel's output, when they are built; each check's one ``eigvalsh``
        also takes the partial transposes and Rob's reduced states."""
        assert cli.run(argv + ["--format", "json"], stdout=io.StringIO()) == 0
        assert (len(kraus_calls), validated, eigvalsh_calls) == (pairs, checks, eigvalsh)

    def test_blocks_match_per_block_oracle(self):
        """The stacked matmul gives each block bit for bit as m0 rho m0^dag + m1 rho m1^dag,
        and within 1e-10 as the unitary dilation's block.  ``measure_control`` builds
        its mixture from these blocks."""
        rho = BELL_STATE
        for params in oracle_configs():
            pairs = kraus_operators(*params)
            xi = kraus_block(rho, pairs[:, None], pairs[None, :])
            mixture = measure_control(*params).rho_mixture
            assert np.array_equal(mixture, 0.5 * (xi[0, 0] + xi[1, 1]))
            for i, (mi0, mi1) in enumerate(pairs):
                for j, (mj0, mj1) in enumerate(pairs):
                    expected = mi0 @ rho @ mj0.conj().T + mi1 @ rho @ mj1.conj().T
                    assert np.array_equal(xi[i, j], expected)
                    dilated = cross_term_dilated(rho, params[i], params[j])
                    assert np.abs(xi[i, j] - dilated).max() <= 1e-10

    def test_coherent_info_sweep_builds_no_kraus_pairs(self, kraus_calls):
        sweep.run_sweep(sweep.SweepSpec("coherent_info_diff", resolution=5))
        assert kraus_calls == []


def opposite_phase_oracle(r):
    """Hand-built closed forms for r1 = r2 = r and phi1 = phi2 + pi.

    Returns ``(p_plus, rho_plus, rho_minus)``: the plus branch has weight
    (1 + cos^2 r)/2 and lives on span{|00>, |11>}; the minus branch is
    the product state |0_A 1_R><0_A 1_R|.
    """
    c = math.cos(r)
    rho_plus = np.zeros((4, 4), dtype=complex)
    rho_plus[0, 0] = c * c
    rho_plus[0, 3] = rho_plus[3, 0] = c
    rho_plus[3, 3] = 1.0
    return (1.0 + c * c) / 2.0, rho_plus / (1.0 + c * c), np.diag([0.0, 1.0, 0.0, 0.0])


def opposite_phases(r):
    """The pair ``hawkchan phase`` measures: squeezing ``r`` on both channels, phases 0 and pi."""
    return measure_control(ChannelParams(r), ChannelParams(r, math.pi))


class TestPhaseProtocol:
    def test_matches_closed_form_oracle(self):
        for r in np.linspace(0.0, math.pi / 2, 40, endpoint=False):
            stats = opposite_phases(r)
            p_plus, rho_plus, rho_minus = opposite_phase_oracle(r)
            assert abs(stats.p_plus - p_plus) < 1e-12
            assert abs(stats.p_minus - (1.0 - p_plus)) < 1e-12
            assert np.abs(stats.rho_plus - rho_plus).max() < 1e-12
            if r > 0.0:
                assert np.abs(stats.rho_minus - rho_minus).max() < 1e-12

    def test_zero_squeezing(self):
        stats = opposite_phases(0.0)
        assert stats.p_plus == pytest.approx(1.0, abs=1e-15)
        assert stats.rho_minus is None
        assert np.abs(stats.rho_plus - BELL_STATE).max() < 1e-14

    def test_plus_branch_negativity(self):
        for r in (0.2, 0.6, 1.0, 1.4):
            stats = opposite_phases(r)
            expected = abs(math.cos(r)) / (1.0 + math.cos(r) ** 2)
            assert abs(negativity(stats.rho_plus) - expected) < 1e-12

    def test_minus_branch_is_single_particle_state(self):
        stats = opposite_phases(0.8)
        assert np.array_equal(stats.rho_minus, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_agrees_with_general_path(self):
        # Only the phase difference matters: any pair phi, phi + pi gives the same branches.
        r = 0.5
        general = measure_control(ChannelParams(r, 2.3), ChannelParams(r, 2.3 + math.pi))
        special = opposite_phases(r)
        assert abs(general.p_plus - special.p_plus) < 1e-12
        assert abs(general.p_minus - special.p_minus) < 1e-12
        assert np.abs(general.rho_plus - special.rho_plus).max() < 1e-12
        assert np.abs(general.rho_minus - special.rho_minus).max() < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError, match="squeezing"):
            opposite_phases(math.pi / 2)
