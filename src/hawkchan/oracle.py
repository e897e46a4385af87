"""Independent oracles for the production route, and the dense helpers they use.

No production module imports this one.  Each oracle reaches a quantity
of the production route another way, so agreement checks both:

* The unitary dilation (`dilation_unitary`, `apply_channel_dilated`,
  `cross_term_dilated`) builds each channel as a two-mode unitary on
  Rob's mode and a hidden partner mode and traces the partner out, with
  no Kraus operator.  It checks `channel.apply_channel`,
  `channel.cross_term` and the blocks of `protocol.measure_control`.
* `superposed_state` assembles the 8x8 Alice-Rob-control state from the
  interference blocks.  Projecting the control on |+>/|-> checks how
  `measure_control` combines the blocks into branches (the minus branch
  comes from its closed form), and tracing the control out checks the
  mixture.
* The dense helpers (`tensor`, `partial_trace`, `partial_transpose`,
  `matrix_exponential`) take one matrix each.  They serve the oracles
  above and the tests' per-state reference reports for `metrics`.

Subsystem ordering: the left tensor factor is subsystem 0 and varies
slowest, ``tensor(a, b)[i*db + j, k*db + l] == a[i, k] * b[j, l]``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import linop
from .channel import ChannelParams, kraus_block, kraus_operators
from .protocol import BELL_STATE

# Largest operator dimension the package needs (A x R x control).
MAX_DIM = 8


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to one non-empty 2-D complex ndarray with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, subsystem 0 (the left factor) varying slowest."""
    return np.kron(as_complex_matrix(a, "a"), as_complex_matrix(b, "b"))


def _subsystem_shape(m: np.ndarray, dims: Sequence[int], name: str) -> list[int]:
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ValueError(f"{name}: subsystem dims must be positive, got {dims}")
    total = math.prod(dims)
    if m.shape != (total, total):
        raise ValueError(f"{name}: dims {dims} imply shape ({total}, {total}), got {m.shape}")
    return dims


def partial_trace(rho, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out every subsystem of ``rho`` not listed in ``keep``.

    ``dims`` holds the dimension of each tensor factor (subsystem 0
    slowest), whose product is the matrix dimension; ``keep`` is one index
    or several, kept in ascending order.  The trace is preserved, so a
    density matrix maps to a density matrix.
    """
    arr = as_complex_matrix(rho, "rho")
    dims = _subsystem_shape(arr, dims, "partial_trace")
    n = len(dims)
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted({int(k) for k in keep})
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"partial_trace: keep {keep} out of range for {n} subsystems")

    reduced = arr.reshape(dims + dims)
    for i in reversed(range(n)):  # highest first, so lower axes keep their places
        if i not in keep:
            reduced = np.trace(reduced, axis1=i, axis2=i + reduced.ndim // 2)
    d_keep = math.prod(dims[i] for i in keep)
    return reduced.reshape(d_keep, d_keep)


def partial_transpose(rho, dims: Sequence[int]) -> np.ndarray:
    """Transpose the first subsystem of a bipartite matrix.

    ``dims`` is the pair ``(dA, dB)``; the returned matrix is ``rho``
    with the A indices transposed.  Applying it twice gives the input
    back, and the trace is unchanged.
    """
    arr = as_complex_matrix(rho, "rho")
    dims = _subsystem_shape(arr, dims, "partial_transpose")
    if len(dims) != 2:
        raise ValueError(f"partial_transpose expects two subsystems, got dims {dims}")
    da, db = dims
    return arr.reshape(da, db, da, db).swapaxes(0, 2).reshape(arr.shape)


def matrix_exponential(m) -> np.ndarray:
    """Matrix exponential of a small (dim <= 8) anti-Hermitian matrix, which is unitary.

    ``exp(m) = V diag(exp(i l)) V^dag`` from ``eigh`` of the Hermitian ``-i m``.
    """
    arr = as_complex_matrix(m, "matrix")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    if arr.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {arr.shape[0]} exceeds supported maximum {MAX_DIM}")
    herm = -1j * arr
    defect = linop.hermiticity_defect(herm)
    if defect > linop.HERMITIAN_TOL:
        raise ValueError(
            f"matrix is not anti-Hermitian: defect {defect:.3e} > {linop.HERMITIAN_TOL:.3e}")
    eigs, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(1j * eigs)) @ vecs.conj().T


def dilation_unitary(p: ChannelParams) -> np.ndarray:
    """Unitary dilation of the channel on (Rob mode) x (partner mode).

    Returns ``U = expm(r * K)`` where the generator ``K`` couples
    |00> <-> |11> with amplitudes ``-exp(-i phi)`` and ``+exp(+i phi)``
    and annihilates |01> and |10>.  The sign of the |00> -> |11>
    amplitude fixes the branch convention; the induced channel (and its
    cross terms) matches the Kraus route regardless, which is what the
    tests assert.
    """
    gen = np.zeros((4, 4), dtype=complex)
    gen[3, 0] = -np.exp(-1j * p.phi)
    gen[0, 3] = np.exp(1j * p.phi)
    return matrix_exponential(p.r * gen)


def _dilated_block(rho, pi: ChannelParams, pj: ChannelParams) -> np.ndarray:
    """Tr_partner[ U(pi) (rho x |0><0|) U(pj)^dag ] on the 8-dim A x R x partner space."""
    arr = linop.check_two_qubit(rho, "input state")[0]
    partner_vacuum = np.zeros((2, 2), dtype=complex)
    partner_vacuum[0, 0] = 1.0
    big = tensor(arr, partner_vacuum)
    ui = tensor(np.eye(2), dilation_unitary(pi))
    uj = tensor(np.eye(2), dilation_unitary(pj))
    return partial_trace(ui @ big @ uj.conj().T, (2, 2, 2), keep=(0, 1))


def apply_channel_dilated(rho, p: ChannelParams) -> np.ndarray:
    """Channel output via the unitary dilation; oracle for `channel.apply_channel`."""
    return linop.check_density_matrix(_dilated_block(rho, p, p), "dilated channel output")[0]


def cross_term_dilated(rho, pi: ChannelParams, pj: ChannelParams) -> np.ndarray:
    """Cross term via the unitary dilation; oracle for `channel.cross_term`."""
    return _dilated_block(rho, pi, pj)


def superposed_state(params1: ChannelParams, params2: ChannelParams) -> np.ndarray:
    """Joint Alice-Rob-control state after the coherent superposition.

    The 8x8 state on (A x R) x control is assembled from the four
    interference blocks ``xi[i, j] = sum_n M_in bell M_jn^dag``:

        1/2 [ xi_00 (x) |0><0| + xi_11 (x) |1><1|
              + xi_01 (x) |0><1| + xi_10 (x) |1><0| ].

    Tracing out the control recovers the classical mixture.
    """
    ks = kraus_operators(params1, params2)
    xi = kraus_block(BELL_STATE, ks[:, None], ks[None, :])
    state = 0.5 * xi.transpose(2, 0, 3, 1).reshape(8, 8)
    return linop.check_density_matrix(state, "superposed state")[0]
