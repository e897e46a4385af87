"""Shared test utilities: random states and independent numerical oracles.

The oracles deliberately avoid the code paths they check: the Kronecker
oracle is a nested loop, the partial-trace oracle a direct index sum,
the exponential oracle scaled Taylor summation, the geometry and
convex-gap oracles arbitrary-precision arithmetic, the reference
sweeps evaluate the whole grid in one call or one r1 row per call, and
the reference sweep emitters format one cell at a time and encode the
whole document with ``json.dump``, and the reference reports take one
state at a time through the partial transpose and partial trace of
``hawkchan.oracle``.
"""

import contextlib
import io
import json
import math
import sys

import mpmath
import numpy as np

from hawkchan import metrics, oracle
from hawkchan.channel import apply_channel, kraus_operators
from hawkchan.protocol import bell_state


def single_channel(p):
    """The single channel on the Bell state: criterion 01's route."""
    return apply_channel(bell_state(), kraus_operators(p)[0])


def branch_measures(stats):
    """``(kept negativity, ensemble coherent information, mixture report)`` of a
    `measure_control` result, from `metrics.report_for_states` of its stack.

    Both branch averages are probability-weighted sums over the branches
    that occur, in the order 0.0 + plus + minus, as the CLI adds them.
    """
    names = ["plus branch"] + ["minus branch"] * (stats.rho_minus is not None)
    *branches, mixture = metrics.report_for_states(stats.states, names + ["classical mixture"])
    weighted = list(zip((stats.p_plus, stats.p_minus), branches))
    return (sum((p * r.negativity_numeric for p, r in weighted), 0.0),
            sum((p * r.coherent_information for p, r in weighted), 0.0), mixture)


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


# Reference 2-D sweeps: the same public closed forms as ``hawkchan.sweep``, over
# the whole ``r1s[:, None] x r2s`` grid in one call, and one call per r1 row with
# r1 a numpy scalar (the route that the blocked sweep replaced).


def _closed_form_cells(metric, r1, r2):
    if metric == "coherent_info_diff":
        ensemble, mixture = metrics.coherent_info_closed(r1, r2)
        return ensemble - mixture
    if metric == "neg_pct_diff_mixture":
        baseline = metrics.negativity_mixture_closed(r1, r2)
    else:
        baseline = metrics.negativity_convex_avg(r1, r2)
    return 100.0 * (metrics.negativity_avg_closed(r1, r2) - baseline) / baseline


def _axes(spec):
    return (np.linspace(spec.r1_range[0], spec.r1_range[1], spec.resolution),
            np.linspace(spec.r2_range[0], spec.r2_range[1], spec.resolution))


def reference_grid_sweep(spec):
    """The values of a 2-D sweep from one closed-form call over the whole grid."""
    r1s, r2s = _axes(spec)
    return _closed_form_cells(spec.metric, r1s[:, np.newaxis], r2s)


def reference_row_sweep(spec):
    """The values of a 2-D sweep from one closed-form call per r1 row."""
    r1s, r2s = _axes(spec)
    return np.array([_closed_form_cells(spec.metric, r1, r2s) for r1 in r1s])


# Reference sweep emitters: the cell-by-cell CSV writer and the whole-document
# ``json.dump`` writer that the row-template emitters in ``hawkchan.sweep`` replaced.
# Their bytes are the contract the production emitters are checked against.


def _format(x: float) -> str:
    """12 significant digits, enough for 1e-11 round-trip on these scales."""
    return format(float(x), ".12g")


def _open_destination(destination):
    """A context manager over the output stream; it closes only a file it opened."""
    if destination is None or hasattr(destination, "write"):
        return contextlib.nullcontext(sys.stdout if destination is None else destination)
    try:
        return open(destination, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {destination!r}: {exc}") from exc


def reference_emit_csv(grid, destination=None) -> None:
    """Write the grid as CSV to a path, a text stream, or stdout.

    2-D grids use the header ``r1,r2,value``; the 1-D phase curve uses
    ``r,value``.  Rows are ordered r1 outer, r2 inner, ascending.
    """
    with _open_destination(destination) as stream:
        if grid.spec.is_one_dimensional:
            stream.write("r,value\n")
            for r, v in zip(grid.axes[0], grid.values):
                stream.write(f"{_format(r)},{_format(v)}\n")
        else:
            stream.write("r1,r2,value\n")
            r2_texts = [_format(r2) for r2 in grid.axes[1]]
            for r1, row in zip(grid.axes[0], grid.values):
                r1_text = _format(r1)
                stream.writelines(
                    f"{r1_text},{r2_text},{_format(v)}\n" for r2_text, v in zip(r2_texts, row)
                )


def reference_emit_json(grid, destination=None) -> None:
    """Write the grid as a JSON object with keys {spec, axes, values}."""
    document = {
        "spec": {
            "metric": grid.spec.metric,
            "r1_range": list(grid.spec.r1_range),
            "r2_range": list(grid.spec.r2_range),
            "resolution": grid.spec.resolution,
        },
        "axes": [axis.tolist() for axis in grid.axes],
        "values": grid.values.tolist(),
    }
    with _open_destination(destination) as stream:
        json.dump(document, stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")


def emitted(emit, grid) -> str:
    """The text that the emitter ``emit`` writes for ``grid``."""
    buf = io.StringIO()
    emit(grid, buf)
    return buf.getvalue()


# Reference metric reports: the per-state route that the vectorised
# ``metrics.report_for_states`` replaced, with entropies summed over the positive
# eigenvalues only.  Its reports are the contract the stacked ones must meet
# bit for bit.


def masked_entropy(eigs):
    """``-sum(l log2 l)`` over the eigenvalues above zero of one spectrum."""
    positive = eigs[eigs > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def reference_reports(states, spectra):
    """One `MetricReport` per state of a checked ``(k, 4, 4)`` stack with spectra ``spectra``."""
    reports = []
    for rho, ab in zip(states, spectra):
        pt = np.linalg.eigvalsh(oracle.partial_transpose(rho, (2, 2)))
        rob = np.linalg.eigvalsh(oracle.partial_trace(rho, (2, 2), keep=1))
        negativity = (float(np.abs(pt).sum()) - 1.0) / 2.0
        reports.append(metrics.MetricReport(max(negativity, 0.0),
                                            masked_entropy(rob) - masked_entropy(ab),
                                            bool(pt[0] >= metrics.PPT_TOL)))
    return reports


def reference_weight_entropy(*weights):
    """``sum(-x log2 x)`` with the zero weights masked to ``log2 1`` by ``np.where``."""
    return sum(-x * np.log2(np.where(x > 0.0, x, 1.0)) for x in weights)
