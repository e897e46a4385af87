"""Tests for the dense linear-operator core."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from hawkchan import linop
from hawkchan.protocol import bell_state

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
        assert np.array_equal(linop.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_projectors(self):
        p = np.diag([1.0, 0.0])
        assert np.array_equal(linop.tensor(p, p), np.diag([1.0, 0, 0, 0]))

    def test_matches_nested_loop_oracle(self):
        # Vectorized and scalar complex multiplies can differ by one ulp.
        for _ in range(10):
            a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
            b = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
            assert np.abs(linop.tensor(a, b) - kron_oracle(a, b)).max() < 1e-15

    def test_mixed_product_property(self):
        a, b, c, d = (RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2)) for _ in range(4))
        lhs = linop.tensor(a, b) @ linop.tensor(c, d)
        rhs = linop.tensor(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_rejects_non_finite(self):
        """NaN and +-inf, in the real or the imaginary part, through each entry point."""
        entries = [
            lambda m: linop.tensor(m, np.eye(2)),
            lambda m: linop.partial_trace(m, (2, 2), keep=0),
            lambda m: linop.partial_transpose(m, (2, 2)),
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
            reduced = linop.partial_trace(linop.tensor(rho_a, rho_b), (2, 2), keep=0)
            assert np.abs(reduced - rho_a).max() < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        reduced = linop.partial_trace(bell_state(), (2, 2), keep=0)
        assert np.abs(reduced - np.eye(2) / 2).max() < 1e-14

    def test_matches_index_sum_oracle(self):
        rho = random_density(RNG, 4)
        got = linop.partial_trace(rho, (2, 2), keep=1)
        assert np.abs(got - ptrace_oracle(rho, (2, 2), [1])).max() < 1e-14

    def test_three_subsystems(self):
        rho = random_density(RNG, 8)
        got = linop.partial_trace(rho, (2, 2, 2), keep=(0, 1))
        assert np.abs(got - ptrace_oracle(rho, (2, 2, 2), [0, 1])).max() < 1e-14
        assert abs(got.trace() - 1.0) < 1e-12

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 2), (1, 2)])
    def test_arbitrary_keep_sets(self, keep):
        rho = random_density(RNG, 8)
        got = linop.partial_trace(rho, (2, 2, 2), keep)
        assert np.abs(got - ptrace_oracle(rho, (2, 2, 2), list(keep))).max() < 1e-14

    def test_preserves_trace(self):
        rho = random_density(RNG, 8)
        reduced = linop.partial_trace(rho, (2, 4), keep=1)
        assert abs(reduced.trace() - rho.trace()) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="imply shape"):
            linop.partial_trace(np.eye(4) / 4, (2, 3), keep=0)
        with pytest.raises(ValueError, match="out of range"):
            linop.partial_trace(np.eye(4) / 4, (2, 2), keep=5)


class TestPartialTranspose:
    def test_diagonal_state_invariant(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert np.array_equal(linop.partial_transpose(rho, (2, 2)), rho)

    def test_bell_spectrum(self):
        # Hand eigensolve: the transposed Bell projector has the standard
        # three +1/2 eigenvalues and a single -1/2.
        pt = linop.partial_transpose(bell_state(), (2, 2))
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.abs(eigs - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-14

    def test_involution_and_trace(self):
        rho = random_density(RNG, 4)
        pt = linop.partial_transpose(rho, (2, 2))
        assert np.abs(linop.partial_transpose(pt, (2, 2)) - rho).max() == 0.0
        assert abs(pt.trace() - rho.trace()) < 1e-15
        assert linop.hermiticity_defect(pt) < 1e-15

    def test_requires_two_subsystems(self):
        with pytest.raises(ValueError, match="two subsystems"):
            linop.partial_transpose(np.eye(8) / 8, (2, 2, 2))


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        assert np.abs(linop.matrix_exponential(np.zeros((3, 3))) - np.eye(3)).max() < 1e-15

    def test_diagonal_phases(self):
        got = linop.matrix_exponential(np.diag([1j * np.pi, 0.0]))
        assert np.abs(got - np.diag([-1.0, 1.0])).max() < 1e-14

    def test_anti_hermitian_gives_unitary(self):
        h = random_hermitian(RNG, 4)
        u = linop.matrix_exponential(1j * h)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10

    def test_matches_taylor_oracle(self):
        for _ in range(5):
            m = 1j * random_hermitian(RNG, 4)
            assert np.abs(linop.matrix_exponential(m) - taylor_expm(m)).max() < 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_scipy_expm(self, dim):
        for _ in range(5):
            m = 1j * random_hermitian(RNG, dim)
            assert np.abs(linop.matrix_exponential(m) - expm(m)).max() < 1e-12

    def test_rejects_general_matrix(self):
        m = 1j * random_hermitian(RNG, 4)
        m[0, 1] += 1e-9
        with pytest.raises(ValueError, match="not anti-Hermitian"):
            linop.matrix_exponential(m)

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            linop.matrix_exponential(np.zeros((9, 9)))

    def test_package_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(linop.__file__))
        code = "import sys, hawkchan; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert done.stdout.strip() == "False"


class TestDensityMatrixChecks:
    def test_accepts_valid_state(self):
        rho = random_density(RNG, 4)
        assert linop.check_density_matrix(rho) is rho

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
