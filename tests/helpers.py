"""Shared test utilities: random states and independent numerical oracles.

The oracles deliberately avoid the code paths they check: the Kronecker
oracle is a nested loop, the partial-trace oracle a direct index sum,
the exponential oracle scaled Taylor summation, the geometry and
convex-gap oracles arbitrary-precision arithmetic, the reference
sweeps evaluate the whole grid in one call or one r1 row per call, and
the reference sweep emitters format one cell at a time and encode the
whole document with ``json.dump``, and the reference reports take one
state at a time through the partial transpose and partial trace of
``hawkchan.oracle``.  Branch averages are not re-added here: the tests
read ``negativity_avg`` and ``coherent_info_ensemble`` of a
`measure_control` result and check them against the closed forms.
"""

import argparse
import contextlib
import io
import json
import math
import re

import mpmath
import numpy as np

from hawkchan import cli, metrics, oracle
from hawkchan.channel import apply_channel
from hawkchan.protocol import BELL_STATE


def single_channel(p):
    """The single channel on the Bell state: criterion 01's route."""
    return apply_channel(BELL_STATE, p)


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


def _axis(spec):
    return np.linspace(spec.r_range[0], spec.r_range[1], spec.resolution)


def reference_grid_sweep(spec):
    """The values of a 2-D sweep from one closed-form call over the whole grid."""
    rs = _axis(spec)
    return _closed_form_cells(spec.metric, rs[:, np.newaxis], rs)


def reference_row_sweep(spec):
    """The values of a 2-D sweep from one closed-form call per r1 row."""
    rs = _axis(spec)
    return np.array([_closed_form_cells(spec.metric, r1, rs) for r1 in rs])


# Reference sweep emitters: the cell-by-cell CSV writer and the whole-document
# ``json.dump`` writer that the row-template emitters in ``hawkchan.sweep`` replaced.
# Their bytes are the contract the production emitters are checked against.


def _format(x: float) -> str:
    """12 significant digits, enough for 1e-11 round-trip on these scales."""
    return format(float(x), ".12g")


def _open_destination(destination):
    """A context manager over the output stream; it closes only a file it opened."""
    if hasattr(destination, "write"):
        return contextlib.nullcontext(destination)
    try:
        return open(destination, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {destination!r}: {exc}") from exc


def reference_emit_csv(grid, destination) -> None:
    """Write the grid as CSV to a path or a text stream.

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


def reference_emit_json(grid, destination) -> None:
    """Write the grid as a JSON object {spec, axes, values} to a path or a text stream."""
    document = {
        "spec": {
            "metric": grid.spec.metric,
            "r1_range": list(grid.spec.r_range),
            "r2_range": list(grid.spec.r_range),
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


def entropy(rho):
    """The von Neumann entropy S(rho) in bits, from one ``eigvalsh`` of ``rho``."""
    return masked_entropy(np.linalg.eigvalsh(rho))


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


# Reference parse: the argparse parsers that ``cli._parse`` replaced, built from the
# same ``cli._PARAMS`` with ``allow_abbrev=False``, as the parse reads flags spelled in
# full.  An argv that starts with its subcommand was parsed by that subcommand's parser
# alone, any other by the two-level parser; both raise the CLI's own exceptions, so
# ``cli.run`` with this parse prints what it printed then.


class ReferenceParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-17" as a flag; take any negative float literal as a value.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise cli.UsageError(message)

    def print_help(self, file=None):
        raise cli._Help(self.format_help())


def _reference_parsers():
    # --format and --config are accepted both before and after the
    # subcommand; the post-subcommand occurrence wins.
    parser = ReferenceParser(prog="hawkchan", description=cli.__doc__.splitlines()[0],
                             allow_abbrev=False)
    parser.add_argument("--format", type=str, default=None, dest="global_format")
    parser.add_argument("--config", type=str, default=None, dest="global_config")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, params in cli._PARAMS.items():
        p = sub.add_parser(name, prog=f"hawkchan {name}", allow_abbrev=False)
        for flag, (ftype, _, choices) in params.items():
            shown = "{" + ",".join(choices) + "}" if choices else None
            p.add_argument(f"--{flag}", type=ftype, default=None, metavar=shown)
        p.add_argument("--config", type=str, default=None)
    return parser, sub.choices


_REFERENCE_PARSER, _REFERENCE_SUBPARSERS = _reference_parsers()


def reference_parse(argv):
    """``cli._parse(argv)`` by argparse: the subcommand and the given values by key,
    a flag after the subcommand winning over its global twin."""
    argv = list(argv)
    if argv and argv[0] in _REFERENCE_SUBPARSERS:
        values = vars(_REFERENCE_SUBPARSERS[argv[0]].parse_args(argv[1:]))
        values.update(subcommand=argv[0], global_format=None, global_config=None)
    else:
        values = vars(_REFERENCE_PARSER.parse_args(argv))
    given = {"format": values.pop("global_format"), "config": values.pop("global_config")}
    subcommand = values.pop("subcommand")
    given.update({key: value for key, value in values.items() if value is not None})
    return subcommand, {key: value for key, value in given.items() if value is not None}
