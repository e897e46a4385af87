"""Dense complex linear algebra for small multi-qubit operators.

Everything in this package lives in dimension 2, 4 or 8, so all routines
assume small dense matrices and trade generality for strict, testable
numerical contracts.

Subsystem ordering convention (used everywhere in the package): the
leftmost tensor factor is subsystem 0 and varies slowest in the flat
index, i.e. ``tensor(a, b)[i*db + j, k*db + l] == a[i, k] * b[j, l]``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# Construction tolerances for density matrices.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Largest operator dimension the package needs (A x R x control).
MAX_DIM = 8


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D complex ndarray with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def hermiticity_defect(m: np.ndarray) -> float:
    """Max absolute deviation of ``m`` from its conjugate transpose."""
    return float(np.abs(m - m.conj().T).max())


def check_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Validate the density-matrix invariants and return the array.

    A valid state is Hermitian within ``HERMITIAN_TOL``, has trace within
    ``TRACE_TOL`` of 1, and has smallest eigenvalue >= ``EIGENVALUE_FLOOR``.
    Raises ``ValueError`` naming the violated invariant.
    """
    arr = as_complex_matrix(rho, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    defect = hermiticity_defect(arr)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian: defect {defect:.3e} > {HERMITIAN_TOL:.3e}")
    tr = arr.trace()
    if abs(tr.imag) > TRACE_TOL or abs(tr.real - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} trace {tr} differs from 1 by more than {TRACE_TOL:.3e}")
    smallest = float(np.linalg.eigvalsh(arr)[0])
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} has eigenvalue {smallest:.3e} below {EIGENVALUE_FLOOR:.3e}")
    return arr


def tensor(a, b) -> np.ndarray:
    """Kronecker product with subsystem 0 (the left factor) varying slowest."""
    return np.kron(as_complex_matrix(a, "a"), as_complex_matrix(b, "b"))


def _subsystem_shape(m: np.ndarray, dims: Sequence[int], name: str) -> list[int]:
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ValueError(f"{name}: subsystem dims must be positive, got {dims}")
    total = int(np.prod(dims))
    if m.shape != (total, total):
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
        dimensions ``dims`` (subsystem 0 slowest).
    dims : sequence of int
        Dimension of each tensor factor; their product must equal the
        matrix dimension.
    keep : int or iterable of int
        Indices of the subsystems to keep, in ascending output order.

    Returns
    -------
    numpy.ndarray
        Matrix on the kept subsystems.  The total trace is preserved,
        so a valid density matrix maps to a valid density matrix.
    """
    arr = as_complex_matrix(rho, "rho")
    dims = _subsystem_shape(arr, dims, "partial_trace")
    n = len(dims)
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted({int(k) for k in keep})
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"partial_trace: keep {keep} out of range for {n} subsystems")

    resh = arr.reshape(dims + dims)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("a") + n + i) for i in range(n)]
    for i in range(n):
        if i not in keep:
            col[i] = row[i]  # repeated index contracts the traced subsystem
    out = [row[i] for i in keep] + [col[i] for i in keep]
    reduced = np.einsum("".join(row + col) + "->" + "".join(out), resh)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(d_keep, d_keep)


def partial_transpose(rho, dims: Sequence[int]) -> np.ndarray:
    """Transpose the first subsystem of a bipartite matrix.

    ``dims`` is the pair ``(dA, dB)``; the returned matrix is
    ``rho`` with the A indices transposed.  Applying it twice gives the
    input back, and the trace is unchanged.
    """
    arr = as_complex_matrix(rho, "rho")
    dims = _subsystem_shape(arr, dims, "partial_transpose")
    if len(dims) != 2:
        raise ValueError(f"partial_transpose expects two subsystems, got dims {dims}")
    da, db = dims
    return arr.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)


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
    defect = hermiticity_defect(herm)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not anti-Hermitian: defect {defect:.3e} > {HERMITIAN_TOL:.3e}")
    eigs, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(1j * eigs)) @ vecs.conj().T
