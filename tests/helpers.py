"""Shared test utilities: random states and independent numerical oracles.

The oracles deliberately avoid the code paths they check: the Kronecker
oracle is a nested loop, the partial-trace oracle a direct index sum,
the eigenvalue oracle goes through the characteristic polynomial, the
exponential oracle through scaled Taylor summation, and the geometry
and convex-gap oracles through arbitrary-precision arithmetic.
"""

import math

import mpmath
import numpy as np


def random_density(rng, dim):
    """Random full-rank density matrix via a Wishart-style construction."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron_oracle(a, b):
    """Kronecker product by explicit nested loops."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def ptrace_oracle(rho, dims, keep):
    """Partial trace by direct index summation."""
    dims = list(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(idx):
        value = 0
        for d, i in zip(dims, idx):
            value = value * d + i
        return value

    keep_shapes = [dims[i] for i in keep]
    trace_shapes = [dims[i] for i in traced]
    for a in np.ndindex(*keep_shapes):
        for b in np.ndindex(*keep_shapes):
            acc = 0.0 + 0.0j
            for t in np.ndindex(*trace_shapes) if trace_shapes else [()]:
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, i in zip(keep, a):
                    row[pos] = i
                for pos, i in zip(keep, b):
                    col[pos] = i
                for pos, i in zip(traced, t):
                    row[pos] = i
                    col[pos] = i
                acc += rho[flat(row), flat(col)]
            ra = int(np.ravel_multi_index(a, keep_shapes)) if keep_shapes else 0
            cb = int(np.ravel_multi_index(b, keep_shapes)) if keep_shapes else 0
            out[ra, cb] = acc
    return out


def taylor_expm(m, terms=30):
    """Matrix exponential by scaling, Taylor summation, and squaring."""
    norm = np.abs(m).sum(axis=1).max()
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-30)) + 1)))
    small = m / (2.0**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ small / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def geometry_r_oracle(mass, radius, k0, hbar=1.0):
    """Squeezing angle from the geometry at 60 significant digits."""
    with mpmath.workdps(60):
        m = mpmath.mpf(mass)
        f0 = 1 - 2 * m / mpmath.mpf(radius)
        exponent = -mpmath.mpf(hbar) * mpmath.pi * mpmath.sqrt(f0) * mpmath.mpf(k0) * 4 * m
        return float(mpmath.atan(mpmath.exp(exponent)))


def convex_gap_oracle(r1, r2):
    """Superposition average minus convex average at 50 significant digits.

    Returns ``(diff, g)``.  ``diff`` is ``negativity_avg_closed`` minus
    ``negativity_convex_avg``.  With ``u = s1 + s2``, ``v = c1 + c2`` and
    ``q = c1^2 + c2^2`` the two averages are ``(-u^2 + sqrt(u^4 + 16 v^2))/16``
    and ``q/4``; squaring shows ``diff >= 0`` exactly when
    ``g = 2 v^2 - u^2 q - 2 q^2 >= 0``, so ``sign(diff) == sign(g)``.
    """
    with mpmath.workdps(50):
        a, b = mpmath.mpf(r1), mpmath.mpf(r2)
        c1, c2 = mpmath.cos(a), mpmath.cos(b)
        u = mpmath.sin(a) + mpmath.sin(b)
        v = c1 + c2
        q = c1**2 + c2**2
        avg = (-(u**2) + mpmath.sqrt(u**4 + 16 * v**2)) / 16
        g = 2 * v**2 - u**2 * q - 2 * q**2
        return float(avg - q / 4), float(g)
