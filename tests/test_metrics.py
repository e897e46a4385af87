"""Tests for negativity, entropy, coherent information, and closed forms."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hawkchan import linop, metrics
from hawkchan.channel import ChannelParams
from hawkchan.oracle import tensor
from hawkchan.protocol import BELL_STATE, measure_control
from hawkchan.sweep import SweepSpec, run_sweep

from helpers import (
    convex_gap_oracle,
    entropy,
    random_density,
    random_unitary,
    reference_reports,
    reference_weight_entropy,
    single_channel,
)

RNG = np.random.default_rng(20240814)


class TestNegativity:
    def test_bell_is_half(self):
        assert abs(metrics.negativity(BELL_STATE) - 0.5) < 1e-12

    def test_maximally_mixed_is_zero(self):
        assert metrics.negativity(np.eye(4) / 4) == 0.0

    def test_single_channel_closed_form(self):
        out = single_channel(ChannelParams(0.4))
        assert abs(metrics.negativity(out) - math.cos(0.4) ** 2 / 2) < 1e-10

    def test_local_unitary_invariance(self):
        for _ in range(5):
            rho = random_density(RNG, 4)
            u = tensor(random_unitary(RNG, 2), random_unitary(RNG, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(metrics.negativity(rotated) - metrics.negativity(rho)) < 1e-10

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            metrics.negativity(np.eye(2) / 2)


class TestClosedFormNegativities:
    def test_perfect_channel_corner(self):
        assert metrics.negativity_avg_closed(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert metrics.negativity_mixture_closed(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert metrics.negativity_convex_avg(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_diagonal_reduces_to_single_channel(self):
        for r in np.linspace(0.0, math.pi / 4, 21):
            single = math.cos(r) ** 2 / 2
            assert abs(metrics.negativity_avg_closed(r, r) - single) < 1e-14
            assert abs(metrics.negativity_mixture_closed(r, r) - single) < 1e-14
            assert abs(metrics.negativity_convex_avg(r, r) - single) < 1e-14

    def test_avg_matches_numeric_protocol(self):
        stats = measure_control(ChannelParams(0.2), ChannelParams(0.7))
        assert abs(stats.negativity_avg - metrics.negativity_avg_closed(0.2, 0.7)) < 1e-10

    def test_avg_matches_numeric_protocol_for_any_phases(self):
        for _ in range(200):
            p1 = ChannelParams(RNG.uniform(0.0, math.pi / 2 - 1e-9), RNG.uniform(0.0, 2 * math.pi))
            p2 = ChannelParams(RNG.uniform(0.0, math.pi / 2 - 1e-9), RNG.uniform(0.0, 2 * math.pi))
            numeric = measure_control(p1, p2).negativity_avg
            closed = metrics.negativity_avg_closed(p1.r, p2.r, p1.phi - p2.phi)
            assert abs(numeric - closed) < 1e-10

    def test_mixture_matches_numeric(self):
        numeric = metrics.negativity(measure_control(ChannelParams(0.2), ChannelParams(0.7)).rho_mixture)
        assert abs(numeric - metrics.negativity_mixture_closed(0.2, 0.7)) < 1e-10

    def test_convex_avg_example(self):
        assert abs(metrics.negativity_convex_avg(0.0, math.pi / 4) - 0.375) < 1e-15

    def test_convexity_bound(self):
        # Negativity is convex, so the convex average dominates the
        # mixture negativity everywhere.
        rs = np.linspace(0.0, math.pi / 4, 50)
        for r1 in rs:
            for r2 in rs:
                gap = metrics.negativity_convex_avg(r1, r2) - metrics.negativity_mixture_closed(r1, r2)
                assert gap > -1e-12

    def test_superposition_dominates_mixture(self):
        # Convexity again: the post-measurement average cannot fall
        # below the negativity of the reconstructed mixture.
        rs = np.linspace(0.0, math.pi / 4, 25)
        for r1 in rs:
            for r2 in rs:
                gap = metrics.negativity_avg_closed(r1, r2) - metrics.negativity_mixture_closed(r1, r2)
                assert gap > -1e-12

    def test_baselines_at_least_a_quarter(self):
        # The percentage sweeps divide by these.  On [0, pi/4]^2 the mixture
        # negativity is smallest at the (pi/4, pi/4) corner, (-1 + 3)/8, and
        # the convex average (c1^2 + c2^2)/4 is smallest there too.
        r1, r2 = np.meshgrid(*2 * [np.linspace(0.0, math.pi / 4, 101)], indexing="ij")
        assert metrics.negativity_mixture_closed(r1, r2).min() >= 0.25 - 1e-15
        assert metrics.negativity_convex_avg(r1, r2).min() >= 0.25 - 1e-15


class TestConvexGapOracle:
    """The 50-digit reference that acceptance criterion 06 relies on."""

    def test_zero_on_diagonal(self):
        for r in np.linspace(0.0, math.pi / 4, 11):
            diff, g = convex_gap_oracle(r, r)
            assert abs(diff) < 1e-40
            assert abs(g) < 1e-40

    def test_readme_counterexample(self):
        # 0.288454962984007 - 0.288627124296868, evaluated at 100 digits.
        diff, g = convex_gap_oracle(math.pi / 5, math.pi / 4)
        assert abs(diff - (-1.7216131286e-4)) < 1e-9
        assert g < 0.0

    def test_sign_matches_g(self):
        rng = np.random.default_rng(20240816)
        signs = set()
        for r1, r2 in rng.uniform(0.0, math.pi / 4, size=(400, 2)):
            diff, g = convex_gap_oracle(r1, r2)
            assert np.sign(diff) == np.sign(g)
            signs.add(np.sign(g))
        assert {-1.0, 1.0} <= signs  # the sample reaches both sides of g = 0


class TestEntropy:
    """The S(rho) oracle of `TestCoherentInformation::test_product_state`, `helpers.entropy`."""

    def test_pure_state(self):
        assert entropy(BELL_STATE) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(entropy(np.eye(2) / 2) - 1.0) < 1e-14

    def test_binary_spectrum(self):
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        got = entropy(np.diag([0.75, 0.25]))
        assert abs(got - expected) < 1e-14
        assert abs(got - 0.8112781244591328) < 1e-12

    def test_bounds(self):
        for dim in (2, 4, 8):
            rho = random_density(RNG, dim)
            s = entropy(rho)
            assert 0.0 <= s <= math.log2(dim) + 1e-12

    def test_zero_iff_pure(self):
        psi = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        psi /= np.linalg.norm(psi)
        assert entropy(np.outer(psi, psi.conj())) < 1e-10


class TestCoherentInformation:
    def test_bell_is_one_bit(self):
        assert abs(metrics.report_for_state(BELL_STATE).coherent_information - 1.0) < 1e-12

    def test_maximally_mixed_is_minus_one(self):
        assert abs(metrics.report_for_state(np.eye(4) / 4).coherent_information + 1.0) < 1e-12

    def test_product_state(self):
        rho_a = random_density(RNG, 2)
        rho_b = random_density(RNG, 2)
        expected = -entropy(rho_a)
        got = metrics.report_for_state(tensor(rho_a, rho_b)).coherent_information
        assert abs(got - expected) < 1e-12
        assert got <= 1e-12

    def test_superposition_beats_mixture(self):
        stats = measure_control(ChannelParams(0.3), ChannelParams(0.6))
        assert stats.coherent_info_ensemble - stats.reports[-1].coherent_information > 0.0


def numeric_coherent_info_diff(r1, r2):
    stats = measure_control(ChannelParams(r1), ChannelParams(r2))
    return stats.coherent_info_ensemble - stats.reports[-1].coherent_information


class TestCoherentInfoClosedForm:
    def test_perfect_channels_are_exact_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metrics.coherent_info_closed(0.0, 0.0) == (1.0, 1.0)

    def test_sweep_matches_numeric_route(self):
        grid = run_sweep(SweepSpec("coherent_info_diff", resolution=51))
        r1s, r2s = grid.axes
        for i, r1 in enumerate(r1s):
            expected = [numeric_coherent_info_diff(r1, r2) for r2 in r2s]
            assert np.abs(grid.values[i] - expected).max() <= 1e-12


class TestPptSeparable:
    """The report's PPT flag."""

    def test_bell_is_entangled(self):
        assert not metrics.report_for_state(BELL_STATE).ppt

    def test_diagonal_states_separable(self):
        probs = RNG.dirichlet(np.ones(4))
        assert metrics.report_for_state(np.diag(probs)).ppt

    def test_agrees_with_negativity(self):
        # For two qubits a positive partial transpose is exactly the
        # zero-negativity condition.
        for _ in range(20):
            rho = random_density(RNG, 4)
            report = metrics.report_for_state(rho)
            assert report.ppt == (report.negativity_numeric < 1e-12)

    def test_minus_branch_always_separable(self):
        for _ in range(10):
            stats = measure_control(
                ChannelParams(RNG.uniform(0, math.pi / 2 - 1e-9), RNG.uniform(0, 2 * math.pi)),
                ChannelParams(RNG.uniform(0, math.pi / 2 - 1e-9), RNG.uniform(0, 2 * math.pi)),
            )
            if stats.rho_minus is not None:
                assert metrics.report_for_state(stats.rho_minus).ppt


class TestPhaseAvgNegativity:
    """The opposite-phase case r1 = r2, dphi = pi of `negativity_avg_closed`."""

    def test_endpoints(self):
        assert metrics.negativity_avg_closed(0.0, 0.0, math.pi) == 0.5
        assert abs(metrics.negativity_avg_closed(math.pi / 3, math.pi / 3, math.pi) - 0.25) < 1e-15

    def test_is_half_cos_bit_for_bit(self):
        for r in np.linspace(0.0, math.pi / 2, 401, endpoint=False):
            assert metrics.negativity_avg_closed(r, r, math.pi) == abs(math.cos(r)) / 2.0

    def test_adjacent_squeezings_survive_roundoff(self):
        # (s1 + s2)^2 - 4 s1 s2 rounds below zero for some adjacent floats.
        for r in np.linspace(0.01, 1.5, 200):
            value = metrics.negativity_avg_closed(r, math.nextafter(r, 2.0), math.pi)
            assert abs(value - math.cos(r) / 2.0) < 1e-15

    def test_dominates_single_channel(self):
        for r in np.linspace(0.0, math.pi / 2, 60, endpoint=False):
            quantum = metrics.negativity_avg_closed(r, r, math.pi)
            classical = math.cos(r) ** 2 / 2
            assert quantum >= classical
            if r > 1e-9:
                assert quantum > classical


class TestMetricReport:
    def test_consistent_report(self):
        out = single_channel(ChannelParams(0.4))
        report = metrics.report_for_state(out)
        assert report.ppt is False
        metrics.check_closed_form("negativity", report.negativity_numeric, math.cos(0.4) ** 2 / 2)

    def test_validates_once_and_matches_public_measures(self, monkeypatch):
        stats = measure_control(ChannelParams(0.3), ChannelParams(0.6, 1.0))
        states = [BELL_STATE, single_channel(ChannelParams(0.4)),
                  stats.rho_mixture, stats.rho_plus, random_density(RNG, 4)]
        expected = reference_reports(*linop.check_density_matrix(
            np.array(states), [f"state {i}" for i in range(len(states))], two_qubit=True)[:2])
        calls = []
        check = linop.check_density_matrix
        monkeypatch.setattr(
            linop, "check_density_matrix", lambda rho, *a, **kw: calls.append(1) or check(rho, *a, **kw)
        )
        assert [metrics.report_for_state(rho) for rho in states] == expected
        assert len(calls) == len(states)

    def test_report_for_states_validates_the_stack_once(self, monkeypatch):
        stats = measure_control(ChannelParams(0.3), ChannelParams(0.6, 1.0))
        stack = np.array([stats.rho_plus, stats.rho_minus, stats.rho_mixture])
        calls = []
        check = linop.check_density_matrix
        monkeypatch.setattr(
            linop, "check_density_matrix", lambda rho, *a, **kw: calls.append(a) or check(rho, *a, **kw)
        )
        reports = metrics.report_for_states(stack, ["plus", "minus", "mixture"])
        assert calls == [(["plus", "minus", "mixture"],)]
        assert reports == [metrics.report_for_state(rho) for rho in stack]

    def test_report_for_states_names_the_failing_state(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(ValueError, match="^second is not Hermitian"):
            metrics.report_for_states(np.array([BELL_STATE, bad]), ["first", "second"])
        with pytest.raises(ValueError, match="first, second must be a 4x4 two-qubit state"):
            metrics.report_for_states(np.array([np.eye(2) / 2] * 2), ["first", "second"])

    def test_rejects_inconsistent_closed_form(self):
        report = metrics.report_for_state(BELL_STATE)
        message = "closed-form negativity differs from numeric by 2.500e-01"
        with pytest.raises(ValueError, match=message):
            metrics.check_closed_form("negativity", report.negativity_numeric, 0.25)

    @pytest.mark.parametrize("numeric, closed", [
        (math.nan, 0.25), (0.25, math.nan), (math.inf, math.inf),
    ], ids=["nan-numeric", "nan-closed", "inf-inf"])
    def test_closed_form_gate_refuses_non_finite_gaps(self, numeric, closed):
        with pytest.raises(ValueError, match="^closed-form x differs from numeric by nan$"):
            metrics.check_closed_form("x", numeric, closed)

    def test_report_refuses_nan_negativity(self):
        with pytest.raises(ValueError, match="^negativity nan below clip floor$"):
            metrics.MetricReport(math.nan, 0.0, True)


@st.composite
def two_qubit_states(draw):
    """A random full-rank state, the Bell state, or a protocol state (these have zero eigenvalues)."""
    kind = draw(st.sampled_from(["random", "bell", "plus", "minus", "mixture"]))
    if kind == "random":
        return random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 4)
    if kind == "bell":
        return BELL_STATE
    r, phi = st.floats(0.0, math.pi / 2 - 1e-9), st.floats(0.0, 2 * math.pi, exclude_max=True)
    stats = measure_control(ChannelParams(draw(r), draw(phi)), ChannelParams(draw(r), draw(phi)))
    if kind == "minus" and stats.rho_minus is not None:
        return stats.rho_minus
    return stats.rho_mixture if kind == "mixture" else stats.rho_plus


@given(st.lists(two_qubit_states(), min_size=1, max_size=4))
def test_stacked_report_equals_public_measures(states):
    """Bit for bit: the stacked report of each state is its report alone."""
    reports = metrics.report_for_states(np.array(states), [f"state {i}" for i in range(len(states))])
    assert reports == [metrics.report_for_state(rho) for rho in states]


@pytest.mark.parametrize("dim", [2, 4])
def test_stacked_eigvalsh_is_per_matrix_eigvalsh(dim):
    """The stacked pipeline's outputs equal the per-state ones only because a
    stacked ``eigvalsh`` equals one call per matrix bit for bit on this numpy."""
    rng = np.random.default_rng(20261018)
    g = rng.standard_normal((500, dim, dim)) + 1j * rng.standard_normal((500, dim, dim))
    stack = g + g.conj().swapaxes(1, 2)
    stacked = np.linalg.eigvalsh(stack)
    assert all(np.array_equal(stacked[i], np.linalg.eigvalsh(h)) for i, h in enumerate(stack))



def test_embedded_2x2_eigvalsh_is_the_2x2_eigvalsh_plus_two_zeros():
    """`linop.check_density_matrix` with ``two_qubit=True`` takes Rob's spectrum
    from his reduced state embedded as the upper-left block of a 4x4 that is
    zero elsewhere, in the one stacked ``eigvalsh`` that checks the states.  The reports keep the bits
    of a separate 2x2 call only because the embedded spectrum is that call's,
    bit for bit and signs of zero included, plus two ``+0.0``.  It is compared
    as a multiset: a ``-0.0`` eigenvalue and a ``+0.0`` sort as equals."""
    rng = np.random.default_rng(20261020)
    g = rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
    psd = g @ g.conj().swapaxes(1, 2)
    psd /= psd.trace(axis1=1, axis2=2).real[:, None, None]
    hermitian = g + g.conj().swapaxes(1, 2)  # complex off-diagonals, eigenvalues of both signs
    weights = rng.choice([0.0, -0.0, -1e-17, 1e-17, 0.25, 1.0], (400, 2))
    diagonal = np.zeros((400, 2, 2), dtype=complex)
    diagonal[:, [0, 1], [0, 1]] = weights
    tiny = diagonal.copy()  # -1e-17 and exact zeros beside complex off-diagonals
    tiny[:, 1, 0] = rng.choice([0.0, 1e-17, -1e-17j, 0.3 - 0.1j], 400)
    tiny[:, 0, 1] = tiny[:, 1, 0].conj()
    blocks = np.concatenate((psd, hermitian, diagonal, tiny))
    embedded = np.zeros((len(blocks), 4, 4), dtype=complex)
    embedded[:, :2, :2] = blocks
    for small, big in zip(np.linalg.eigvalsh(blocks), np.linalg.eigvalsh(embedded)):
        padded = Counter(x.hex() for x in small.tolist()) + Counter({(0.0).hex(): 2})
        assert Counter(x.hex() for x in big.tolist()) == padded

@st.composite
def pure_states(draw):
    """A random pure state: its spectrum is 1 and three roundoff values around 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@st.composite
def diagonal_states(draw):
    """A diagonal state whose spectrum, and Rob's, can hold exact 0 and -1e-17 values."""
    weights = np.array(draw(st.lists(
        st.sampled_from([0.0, -1e-17, 0.5]) | st.floats(1e-3, 1.0), min_size=4, max_size=4)))
    positive = weights[weights > 0.0].sum()
    assume(positive > 0.0)
    return np.diag(np.where(weights > 0.0, weights / positive, weights)).astype(complex)


def _bits(reports):
    return [(r.negativity_numeric.hex(), r.coherent_information.hex(), r.ppt) for r in reports]


@given(st.lists(two_qubit_states() | pure_states() | diagonal_states(), min_size=1, max_size=4))
def test_stacked_reports_equal_the_per_state_reference(states):
    """Bit for bit, signs of zero included: the vectorised reports of a checked
    stack are the per-state route's (public partial transpose and partial trace,
    entropies summed over the positive eigenvalues only)."""
    names = [f"state {i}" for i in range(len(states))]
    arr, eigs, _, _ = linop.check_density_matrix(np.array(states), names, two_qubit=True)
    assert _bits(metrics.report_for_states(arr, names)) == _bits(reference_reports(arr, eigs))


def test_weight_entropy_maximum_form_is_the_where_form(monkeypatch):
    """``log2(maximum(x, 5e-324))`` gives the bits of ``log2(where(x > 0, x, 1))``
    in every closed-form coherent information: the 51^2 sweep grid at dphi 0
    and pi, and random and edge scalars with zero and tiny weights (r = 0,
    r1 = r2, dphi = pi, and next to them)."""
    rs = np.linspace(0.0, math.pi / 4, 51)
    rng = np.random.default_rng(20261019)
    edges = [(0.0, 0.0, 0.0), (0.0, 0.0, math.pi), (0.0, 0.5, math.pi), (0.4, 0.4, 0.0),
             (0.4, 0.4, math.pi), (0.7, 0.2, math.pi), (1e-9, 2e-9, 0.0), (1e-300, 0.0, 0.0),
             (0.5, 0.5 + 1e-7, 0.0), (0.5, 0.5 + 1e-7, math.pi), (0.5, 0.5, math.pi - 1e-9),
             (0.5, 0.501, 0.0), (1e-4, 3e-4, 0.0), (0.3, 0.3, math.pi - 1e-3)]
    randoms = rng.uniform(0.0, [math.pi / 2 - 1e-9, math.pi / 2 - 1e-9, 2 * math.pi], (300, 3))
    cases = [(rs[:, None], rs, 0.0), (rs[:, None], rs, math.pi)] + edges + randoms.tolist()
    assert metrics._plus_branch_terms(0.4, 0.4, math.pi)[0] == 0.0  # a zero weight occurs
    new = [np.asarray(v).tobytes() for case in cases for v in metrics.coherent_info_closed(*case)]
    monkeypatch.setattr(metrics, "_weight_entropy", reference_weight_entropy)
    old = [np.asarray(v).tobytes() for case in cases for v in metrics.coherent_info_closed(*case)]
    assert new == old
