"""Dense complex linear algebra for small multi-qubit operators.

Everything in this package lives in dimension 2, 4 or 8, so all routines
assume small dense matrices and trade generality for strict, testable
numerical contracts.

Subsystem ordering convention (used everywhere in the package): the
leftmost tensor factor is subsystem 0 and varies slowest in the flat
index, i.e. ``tensor(a, b)[i*db + j, k*db + l] == a[i, k] * b[j, l]``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

# Construction tolerances for density matrices.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Largest operator dimension the package needs (A x R x control).
MAX_DIM = 8


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a complex ndarray with finite entries: one 2-D matrix,
    or a 3-D ``(k, n, m)`` stack of them for the routines that take stacks."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim not in (2, 3):
        raise ValueError(f"{name} must be 2-D, or 3-D for a stack, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def hermiticity_defect(m: np.ndarray):
    """Max absolute deviation of ``m``, or of each matrix of a stack, from its
    conjugate transpose."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def check_density_matrix(rho, name="state", *, spectrum=False):
    """Validate the density-matrix invariants of one state or a stack of states.

    ``rho`` is one ``(n, n)`` state named ``name``, or a ``(k, n, n)`` stack
    with ``name`` a sequence of ``k`` names.  A valid state is Hermitian
    within ``HERMITIAN_TOL``, has trace within ``TRACE_TOL`` of 1, and has
    smallest eigenvalue >= ``EIGENVALUE_FLOOR``.  The whole stack takes one
    finiteness scan, one Hermiticity reduction, one trace and one
    ``eigvalsh``.  Raises ``ValueError`` naming the first state that
    violates an invariant and the first invariant it violates.

    Returns the array (``rho`` itself when it is a complex ndarray), or with
    ``spectrum=True`` the pair ``(array, eigenvalues)``: the ascending
    spectrum of the state, ``(n,)``, or of each state, ``(k, n)``.
    """
    single = isinstance(name, str)
    names = [name] if single else list(name)
    label = ", ".join(names)
    arr = np.asarray(rho, dtype=complex)
    if single and arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not single and (arr.ndim != 3 or arr.shape[0] != len(names)):
        raise ValueError(f"{label} must be a stack of {len(names)} matrices, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{label} must be non-empty, got shape {arr.shape}")
    states = arr.reshape((len(names),) + arr.shape[-2:])
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"{names[int(finite.argmin())]} contains non-finite entries")
    if arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"{label} must be square, got shape {arr.shape}")
    defects = hermiticity_defect(states).tolist()
    traces = states.trace(axis1=1, axis2=2).tolist()
    eigs = np.linalg.eigvalsh(states)
    for state, defect, tr, smallest in zip(names, defects, traces, eigs[:, 0].tolist()):
        if defect > HERMITIAN_TOL:
            raise ValueError(
                f"{state} is not Hermitian: defect {defect:.3e} > {HERMITIAN_TOL:.3e}")
        if abs(tr.imag) > TRACE_TOL or abs(tr.real - 1.0) > TRACE_TOL:
            raise ValueError(f"{state} trace {tr} differs from 1 by more than {TRACE_TOL:.3e}")
        if smallest < EIGENVALUE_FLOOR:
            raise ValueError(
                f"{state} has eigenvalue {smallest:.3e} below {EIGENVALUE_FLOOR:.3e}")
    if not spectrum:
        return arr
    return arr, eigs[0] if single else eigs


def check_two_qubit(rho, name="state") -> tuple[np.ndarray, np.ndarray]:
    """`check_density_matrix` of one 4x4 two-qubit state or a ``(k, 4, 4)`` stack.

    Returns ``(array, eigenvalues)`` as ``check_density_matrix`` does with
    ``spectrum=True``.
    """
    arr, eigs = check_density_matrix(rho, name, spectrum=True)
    if arr.shape[-2:] != (4, 4):
        label = name if isinstance(name, str) else ", ".join(name)
        raise ValueError(f"{label} must be a 4x4 two-qubit state, got shape {arr.shape}")
    return arr, eigs


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, subsystem 0 (the left factor) varying slowest."""
    a, b = as_complex_matrix(a, "a"), as_complex_matrix(b, "b")
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"tensor takes two 2-D matrices, got shapes {a.shape} and {b.shape}")
    return np.kron(a, b)


def _subsystem_shape(m: np.ndarray, dims: Sequence[int], name: str) -> list[int]:
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ValueError(f"{name}: subsystem dims must be positive, got {dims}")
    total = math.prod(dims)
    if m.shape[-2:] != (total, total):
        raise ValueError(
            f"{name}: dims {dims} imply shape ({total}, {total}), got {m.shape}"
        )
    return dims


def partial_trace(rho, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    Parameters
    ----------
    rho : array_like
        Square matrix on the tensor product of subsystems with
        dimensions ``dims`` (subsystem 0 slowest), or a ``(k, d, d)``
        stack of them.
    dims : sequence of int
        Dimension of each tensor factor; their product must equal the
        matrix dimension.
    keep : int or iterable of int
        Indices of the subsystems to keep, in ascending output order.

    Returns
    -------
    numpy.ndarray
        Matrix (or stack) on the kept subsystems.  The total trace is
        preserved, so a valid density matrix maps to a valid density matrix.
    """
    arr = as_complex_matrix(rho, "rho")
    dims = _subsystem_shape(arr, dims, "partial_trace")
    n = len(dims)
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted({int(k) for k in keep})
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"partial_trace: keep {keep} out of range for {n} subsystems")

    lead = arr.shape[:-2]
    reduced = arr.reshape(lead + tuple(dims + dims))
    for i in reversed(range(n)):  # highest first, so lower axes keep their places
        if i not in keep:
            half = (reduced.ndim - len(lead)) // 2
            reduced = np.trace(reduced, axis1=len(lead) + i, axis2=len(lead) + i + half)
    d_keep = math.prod(dims[i] for i in keep)
    return reduced.reshape(lead + (d_keep, d_keep))


def partial_transpose(rho, dims: Sequence[int]) -> np.ndarray:
    """Transpose the first subsystem of a bipartite matrix.

    ``dims`` is the pair ``(dA, dB)``; the returned matrix is
    ``rho`` with the A indices transposed (of each matrix, for a
    ``(k, d, d)`` stack).  Applying it twice gives the input back, and the
    trace is unchanged.
    """
    arr = as_complex_matrix(rho, "rho")
    dims = _subsystem_shape(arr, dims, "partial_transpose")
    if len(dims) != 2:
        raise ValueError(f"partial_transpose expects two subsystems, got dims {dims}")
    da, db = dims
    return arr.reshape(arr.shape[:-2] + (da, db, da, db)).swapaxes(-4, -2).reshape(arr.shape)


def matrix_exponential(m) -> np.ndarray:
    """Matrix exponential of a small (dim <= 8) anti-Hermitian matrix, which is unitary.

    ``exp(m) = V diag(exp(i l)) V^dag`` from ``eigh`` of the Hermitian ``-i m``.
    """
    arr = as_complex_matrix(m, "matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    if arr.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {arr.shape[0]} exceeds supported maximum {MAX_DIM}")
    herm = -1j * arr
    defect = hermiticity_defect(herm)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not anti-Hermitian: defect {defect:.3e} > {HERMITIAN_TOL:.3e}")
    eigs, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(1j * eigs)) @ vecs.conj().T
