"""The density-matrix validator.

Every state the package hands out is checked once, where it enters or
leaves the library: `check_density_matrix` asserts that it is
Hermitian within ``HERMITIAN_TOL``, has trace within ``TRACE_TOL`` of 1
and has smallest eigenvalue >= ``EIGENVALUE_FLOOR``.  One call checks
one state or a ``(k, n, n)`` stack with one ``eigvalsh`` and hands back
that spectrum.  With ``two_qubit=True`` it also asks for the 4x4 shape,
and the same ``eigvalsh`` takes the partial transposes and Rob's reduced
states, so a report needs no ``eigvalsh`` of its own.  The dense helpers
of the oracles live in `oracle`.
"""

from __future__ import annotations

import numpy as np

# Construction tolerances for density matrices.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def hermiticity_defect(m: np.ndarray):
    """Max absolute deviation of ``m``, or of each matrix of a stack, from its
    conjugate transpose."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def check_density_matrix(rho, name="state", *, two_qubit=False):
    """Validate the density-matrix invariants of one state or a stack of states.

    ``rho`` is one ``(n, n)`` state named ``name``, or a ``(k, n, n)`` stack
    with ``name`` a sequence of ``k`` names.  A valid state is Hermitian
    within ``HERMITIAN_TOL``, has trace within ``TRACE_TOL`` of 1, and has
    smallest eigenvalue >= ``EIGENVALUE_FLOOR``.  The whole stack takes one
    finiteness scan, one Hermiticity reduction, one trace and one
    ``eigvalsh``.  Raises ``ValueError`` naming the first state that
    violates an invariant and the first invariant it violates.

    Returns ``(array, eigenvalues)``: the array (``rho`` itself when it is a
    complex ndarray) and the ascending spectrum of the state, ``(n,)``, or of
    each state, ``(k, n)``.  With ``two_qubit=True`` the states must also be
    4x4 (checked right after squareness), the same ``eigvalsh`` takes their
    partial transposes on A and Rob's reduced states (the 2x2 spectrum plus two
    exact zeros), and those spectra, ``(4,)`` or ``(k, 4)`` each, come third and
    fourth.
    """
    single = isinstance(name, str)
    names = [name] if single else list(name)
    arr = np.asarray(rho, dtype=complex)
    if not names:
        raise ValueError(f"no states to check: no names for a stack of shape {arr.shape}")
    if single and arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not single and (arr.ndim != 3 or arr.shape[0] != len(names)):
        raise ValueError(
            f"{', '.join(names)} must be a stack of {len(names)} matrices, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{', '.join(names)} must be non-empty, got shape {arr.shape}")
    k = len(names)
    states = arr.reshape((k,) + arr.shape[-2:])
    if not np.isfinite(states).all():
        finite = np.isfinite(states).all(axis=(1, 2))
        raise ValueError(f"{names[int(finite.argmin())]} contains non-finite entries")
    if arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"{', '.join(names)} must be square, got shape {arr.shape}")
    if two_qubit and arr.shape[-2:] != (4, 4):
        raise ValueError(f"{', '.join(names)} must be a 4x4 two-qubit state, got shape {arr.shape}")
    defects = hermiticity_defect(states).tolist()
    traces = states.trace(axis1=1, axis2=2).tolist()
    if two_qubit:
        # The partial transposes on A, then Rob's reduced states as the upper-left
        # block of zero 4x4s, join the eigvalsh: the embedding adds two exact zeros
        # to Rob's spectrum and leaves the bits of its 2x2 eigenvalues unchanged, a
        # property of the LAPACK routine that tests/test_metrics.py pins.
        stack = np.zeros((3 * k, 4, 4), dtype=complex)
        stack[:k] = states
        stack[k:2 * k].reshape(k, 2, 2, 2, 2)[...] = states.reshape(k, 2, 2, 2, 2).swapaxes(1, 3)
        np.add(states[:, :2, :2], states[:, 2:, 2:], out=stack[2 * k:, :2, :2])
        states = stack
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
    return (arr, *eigs.reshape((1 + 2 * two_qubit,) + arr.shape[:-1]))  # states', pts', Rob's

