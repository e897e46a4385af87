"""Tests for the density-matrix validator and the dense helpers of the oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from hawkchan import linop, oracle
from hawkchan.protocol import BELL_STATE

from helpers import (
    kron_oracle,
    ptrace_oracle,
    random_density,
    random_hermitian,
    taylor_expm,
)

RNG = np.random.default_rng(20240811)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(oracle.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_projectors(self):
        p = np.diag([1.0, 0.0])
        assert np.array_equal(oracle.tensor(p, p), np.diag([1.0, 0, 0, 0]))

    def test_matches_nested_loop_oracle(self):
        # Vectorized and scalar complex multiplies can differ by one ulp.
        for _ in range(10):
            a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
            b = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
            assert np.abs(oracle.tensor(a, b) - kron_oracle(a, b)).max() < 1e-15

    def test_mixed_product_property(self):
        a, b, c, d = (RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2)) for _ in range(4))
        lhs = oracle.tensor(a, b) @ oracle.tensor(c, d)
        rhs = oracle.tensor(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_rejects_non_finite(self):
        """NaN and +-inf, in the real or the imaginary part, through each entry point."""
        entries = [
            lambda m: oracle.tensor(m, np.eye(2)),
            lambda m: oracle.partial_trace(m, (2, 2), keep=0),
            lambda m: oracle.partial_transpose(m, (2, 2)),
            linop.check_density_matrix,
        ]
        for entry in entries:
            for value in (np.nan, np.inf, -np.inf):
                # complex(0, inf) keeps the real part 0; 1j * inf would make it nan.
                for z in (complex(value, 0.0), complex(0.0, value)):
                    bad = np.eye(4, dtype=complex) / 4
                    bad[0, 1] = z
                    with pytest.raises(ValueError, match="non-finite"):
                        entry(bad)


class TestPartialTrace:
    def test_product_state_marginal(self):
        for _ in range(10):
            rho_a = random_density(RNG, 2)
            rho_b = random_density(RNG, 2)
            reduced = oracle.partial_trace(oracle.tensor(rho_a, rho_b), (2, 2), keep=0)
            assert np.abs(reduced - rho_a).max() < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        reduced = oracle.partial_trace(BELL_STATE, (2, 2), keep=0)
        assert np.abs(reduced - np.eye(2) / 2).max() < 1e-14

    def test_matches_index_sum_oracle(self):
        rho = random_density(RNG, 4)
        got = oracle.partial_trace(rho, (2, 2), keep=1)
        assert np.abs(got - ptrace_oracle(rho, (2, 2), [1])).max() < 1e-14

    def test_three_subsystems(self):
        rho = random_density(RNG, 8)
        got = oracle.partial_trace(rho, (2, 2, 2), keep=(0, 1))
        assert np.abs(got - ptrace_oracle(rho, (2, 2, 2), [0, 1])).max() < 1e-14
        assert abs(got.trace() - 1.0) < 1e-12

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 2), (1, 2)])
    def test_arbitrary_keep_sets(self, keep):
        rho = random_density(RNG, 8)
        got = oracle.partial_trace(rho, (2, 2, 2), keep)
        assert np.abs(got - ptrace_oracle(rho, (2, 2, 2), list(keep))).max() < 1e-14

    def test_preserves_trace(self):
        rho = random_density(RNG, 8)
        reduced = oracle.partial_trace(rho, (2, 4), keep=1)
        assert abs(reduced.trace() - rho.trace()) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="imply shape"):
            oracle.partial_trace(np.eye(4) / 4, (2, 3), keep=0)
        with pytest.raises(ValueError, match="out of range"):
            oracle.partial_trace(np.eye(4) / 4, (2, 2), keep=5)


class TestPartialTranspose:
    def test_diagonal_state_invariant(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert np.array_equal(oracle.partial_transpose(rho, (2, 2)), rho)

    def test_bell_spectrum(self):
        # Hand eigensolve: the transposed Bell projector has the standard
        # three +1/2 eigenvalues and a single -1/2.
        pt = oracle.partial_transpose(BELL_STATE, (2, 2))
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.abs(eigs - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-14

    def test_involution_and_trace(self):
        rho = random_density(RNG, 4)
        pt = oracle.partial_transpose(rho, (2, 2))
        assert np.abs(oracle.partial_transpose(pt, (2, 2)) - rho).max() == 0.0
        assert abs(pt.trace() - rho.trace()) < 1e-15
        assert linop.hermiticity_defect(pt) < 1e-15

    def test_requires_two_subsystems(self):
        with pytest.raises(ValueError, match="two subsystems"):
            oracle.partial_transpose(np.eye(8) / 8, (2, 2, 2))


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        assert np.abs(oracle.matrix_exponential(np.zeros((3, 3))) - np.eye(3)).max() < 1e-15

    def test_diagonal_phases(self):
        got = oracle.matrix_exponential(np.diag([1j * np.pi, 0.0]))
        assert np.abs(got - np.diag([-1.0, 1.0])).max() < 1e-14

    def test_anti_hermitian_gives_unitary(self):
        h = random_hermitian(RNG, 4)
        u = oracle.matrix_exponential(1j * h)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10

    def test_matches_taylor_oracle(self):
        for _ in range(5):
            m = 1j * random_hermitian(RNG, 4)
            assert np.abs(oracle.matrix_exponential(m) - taylor_expm(m)).max() < 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_scipy_expm(self, dim):
        for _ in range(5):
            m = 1j * random_hermitian(RNG, dim)
            assert np.abs(oracle.matrix_exponential(m) - expm(m)).max() < 1e-12

    def test_rejects_general_matrix(self):
        m = 1j * random_hermitian(RNG, 4)
        m[0, 1] += 1e-9
        with pytest.raises(ValueError, match="not anti-Hermitian"):
            oracle.matrix_exponential(m)

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            oracle.matrix_exponential(np.zeros((9, 9)))

    def test_package_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        code = "import sys, hawkchan; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert done.stdout.strip() == "False"


class TestDensityMatrixChecks:
    def test_accepts_valid_state(self):
        rho = random_density(RNG, 4)
        assert linop.check_density_matrix(rho)[0] is rho

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            linop.check_density_matrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            linop.check_density_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            linop.check_density_matrix(np.diag([1.5, -0.5]))

    def test_tolerates_roundoff_negativity(self):
        rho = np.diag([1.0 + 5e-11, -5e-11])
        linop.check_density_matrix(rho)


def _bad_states():
    """One 4x4 state per violated invariant, in the order the checks run."""
    non_finite = np.eye(4, dtype=complex) / 4
    non_finite[0, 1] = complex(0.0, np.nan)
    non_hermitian = np.eye(4, dtype=complex) / 4
    non_hermitian[0, 1] = 0.1
    return {
        "non-finite": non_finite,
        "non-hermitian": non_hermitian,
        "trace": np.eye(4, dtype=complex) / 2,
        "eigenvalue": np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex),
    }


NAMES = ("first", "middle", "last")


class TestStackedDensityMatrixChecks:
    @pytest.mark.parametrize("kind", sorted(_bad_states()))
    def test_failing_middle_state_raises_its_single_state_message(self, kind):
        bad = _bad_states()[kind]
        with pytest.raises(ValueError) as single:
            linop.check_density_matrix(bad, "middle")
        stack = np.array([BELL_STATE, bad, random_density(RNG, 4)])
        with pytest.raises(ValueError) as stacked:
            linop.check_density_matrix(stack, NAMES)
        assert str(stacked.value) == str(single.value)
        assert str(stacked.value).startswith("middle ")

    def test_first_failing_state_wins(self):
        """A state's later invariant fails before a later state's earlier one."""
        bad = _bad_states()
        stack = np.array([BELL_STATE, bad["eigenvalue"], bad["non-hermitian"]])
        with pytest.raises(ValueError, match="^middle has eigenvalue"):
            linop.check_density_matrix(stack, NAMES)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            linop.check_density_matrix(np.ones(4) / 4)
        with pytest.raises(ValueError, match="must be square"):
            linop.check_density_matrix(np.ones((2, 3)) / 2)
        with pytest.raises(ValueError, match="must be a stack of 3 matrices"):
            linop.check_density_matrix(np.array([BELL_STATE] * 2), NAMES)
        with pytest.raises(ValueError, match="must be a stack of 3 matrices"):
            linop.check_density_matrix(BELL_STATE, NAMES)
        with pytest.raises(ValueError, match="must be square"):
            linop.check_density_matrix(np.ones((3, 2, 3)) / 2, NAMES)
        with pytest.raises(ValueError, match=r"^no states to check: .* shape \(0, 4, 4\)$"):
            linop.check_density_matrix(np.zeros((0, 4, 4)), [])

    def test_returns_the_same_array_and_its_spectrum(self):
        rho = random_density(RNG, 4)
        stack = np.array([rho, BELL_STATE, np.eye(4, dtype=complex) / 4])
        arr, eigs = linop.check_density_matrix(stack, NAMES)
        assert arr is stack and np.array_equal(eigs, np.linalg.eigvalsh(stack))
        arr, eigs = linop.check_density_matrix(rho, "state")
        assert arr is rho and np.array_equal(eigs, np.linalg.eigvalsh(rho))

    def test_two_qubit_check_takes_a_stack(self):
        stack = np.array([BELL_STATE, np.eye(4, dtype=complex) / 4])
        arr, eigs, pt, rob = linop.check_density_matrix(stack, NAMES[:2], two_qubit=True)
        assert arr is stack and eigs.shape == pt.shape == rob.shape == (2, 4)
        with pytest.raises(ValueError, match="first, middle must be a 4x4 two-qubit state"):
            linop.check_density_matrix(np.array([np.eye(2) / 2] * 2), NAMES[:2],
                                     two_qubit=True)

    def test_two_qubit_check_returns_the_partial_transpose_spectra(self):
        """Bit for bit those of `oracle.partial_transpose` and of Rob's 2x2
        `oracle.partial_trace` (plus two exact zeros, in ascending order), for a
        stack and for one state, though they come from the ``eigvalsh`` call that
        checks the states."""
        stack = np.array([random_density(RNG, 4), BELL_STATE, np.eye(4, dtype=complex) / 4,
                          np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)])
        names = NAMES + ("fourth",)
        expected = [np.linalg.eigvalsh(oracle.partial_transpose(rho, (2, 2))) for rho in stack]
        robs = [np.sort(np.append(np.linalg.eigvalsh(oracle.partial_trace(rho, (2, 2), keep=1)),
                                  [0.0, 0.0])) for rho in stack]
        arr, eigs, pt, rob = linop.check_density_matrix(stack, names, two_qubit=True)
        assert np.array_equal(eigs, np.linalg.eigvalsh(stack)) and np.array_equal(pt, expected)
        assert np.array_equal(rob, robs) and (rob == 0.0).sum(axis=1).min() >= 2
        for rho, want, want_rob in zip(stack, expected, robs):
            arr, eigs, pt, rob = linop.check_density_matrix(rho, two_qubit=True)
            assert np.array_equal(eigs, np.linalg.eigvalsh(rho)) and np.array_equal(pt, want)
            assert np.array_equal(rob, want_rob)

    def test_tensor_and_exponential_take_one_matrix(self):
        stack = np.zeros((2, 2, 2))
        with pytest.raises(ValueError, match="a must be a 2-D matrix"):
            oracle.tensor(stack, np.eye(2))
        with pytest.raises(ValueError, match="matrix must be a 2-D matrix"):
            oracle.matrix_exponential(stack)
