"""Output checks for every workload, against the benchmark's own references.

The closed forms below are copied from the README, not imported from
hawkchan.  The coherent-information sample is recomputed through the
unitary-dilation oracle (``cross_term_dilated``) and
``numpy.linalg.eigvalsh``, never through the Kraus route that the sweep
uses.  Each ``check_*`` function returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

# The CSV keeps 12 significant digits: a value may move by half a unit
# in the 12th digit.
CSV_REL = 5e-12
CLOSED_FORM_TOL = 1e-10
DIAGONAL_TOL = 1e-10
PROBABILITY_TOL = 1e-12
SAMPLED_CELLS = 12


def _neg_avg(r1, r2):
    s, c = np.sin(r1) + np.sin(r2), np.cos(r1) + np.cos(r2)
    return (-(s**2) + np.sqrt(16.0 * c**2 + s**4)) / 16.0


def _neg_mixture(r1, r2):
    s_sq, c = np.sin(r1) ** 2 + np.sin(r2) ** 2, np.cos(r1) + np.cos(r2)
    return (-s_sq + np.sqrt(4.0 * c**2 + s_sq**2)) / 8.0


def _neg_convex(r1, r2):
    return (np.cos(r1) ** 2 + np.cos(r2) ** 2) / 4.0


def closed_form_grid(metric: str, axes: list) -> np.ndarray:
    """Reference values of a closed-form sweep on its axes (r1 rows, r2 columns)."""
    if metric == "phase_curve":
        return np.abs(np.cos(axes[0])) / 2.0
    r1, r2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    base = _neg_mixture(r1, r2) if metric == "neg_pct_diff_mixture" else _neg_convex(r1, r2)
    return 100.0 * (_neg_avg(r1, r2) - base) / base


def _entropy(m: np.ndarray) -> float:
    """-sum(l log2 l) over the spectrum of a positive, possibly unnormalised, matrix."""
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    eigs = eigs[eigs > 0.0]
    return float(-(eigs * np.log2(eigs)).sum())


def _weighted_coherent_info(block: np.ndarray) -> float:
    """p * I_c(block / p) for p = tr(block), as H(tr_A block) - H(block).

    The log p terms cancel, so no branch is ever normalised by a small
    probability.
    """
    rob = np.einsum("ijik->jk", block.reshape(2, 2, 2, 2))
    return _entropy(rob) - _entropy(block)


def coherent_info_diff_oracle(r1: float, r2: float) -> float:
    """Ensemble coherent information of the superposition minus the mixture's."""
    from hawkchan import ChannelParams, cross_term_dilated

    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    p1, p2 = ChannelParams(r1), ChannelParams(r2)
    x11 = cross_term_dilated(bell, p1, p1)
    x22 = cross_term_dilated(bell, p2, p2)
    x12 = cross_term_dilated(bell, p1, p2)
    x21 = cross_term_dilated(bell, p2, p1)
    plus = (x11 + x22 + x12 + x21) / 4.0
    minus = (x11 + x22 - x12 - x21) / 4.0
    mixture = (x11 + x22) / 2.0
    return (_weighted_coherent_info(plus) + _weighted_coherent_info(minus)
            - _weighted_coherent_info(mixture))


def _close(value, reference, rel, abs_tol=0.0):
    return np.abs(value - reference) <= abs_tol + rel * np.abs(reference)


def _axes(params: dict) -> list:
    axis = np.linspace(params["lo"], params["hi"], params["resolution"])
    return [axis] if params["metric"] == "phase_curve" else [axis, axis]


def read_csv(path: str, params: dict):
    """The rows of a sweep CSV as a float table, or a problem string."""
    one_d = params["metric"] == "phase_curve"
    header = "r,value" if one_d else "r1,r2,value"
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            return f"header {first!r}, expected {header!r}"
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return f"unparseable CSV: {exc}"
    n = params["resolution"]
    rows, cols = (n, 2) if one_d else (n * n, 3)
    if table.shape != (rows, cols):
        return f"table shape {table.shape}, expected {(rows, cols)}"
    if not np.all(np.isfinite(table)):
        return "non-finite value"
    return table


def _check_csv_axes(table: np.ndarray, axes: list) -> list:
    n = len(axes[0])
    expected = [axes[0]] if len(axes) == 1 else [np.repeat(axes[0], n), np.tile(axes[1], n)]
    for column, axis in enumerate(expected):
        if not np.all(_close(table[:, column], axis, CSV_REL, 1e-15)):
            return [f"axis column {column} is not the ascending grid"]
    return []


def check_closed_csv(path: str, params: dict) -> list:
    table = read_csv(path, params)
    if isinstance(table, str):
        return [table]
    axes = _axes(params)
    problems = _check_csv_axes(table, axes)
    reference = closed_form_grid(params["metric"], axes).ravel()
    bad = ~_close(table[:, -1], reference, CSV_REL, CLOSED_FORM_TOL)
    if bad.any():
        problems.append(f"{int(bad.sum())} values differ from the closed form")
    return problems


def check_closed_json(path: str, params: dict, csv_path: str) -> list:
    """The JSON document matches the closed form and the CSV of the same spec."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            return [f"unparseable JSON: {exc}"]
    if not isinstance(doc, dict) or set(doc) != {"spec", "axes", "values"}:
        return ["document keys are not {spec, axes, values}"]
    axes = _axes(params)
    try:
        values = np.array(doc["values"], dtype=float)
        got_axes = [np.array(a, dtype=float) for a in doc["axes"]]
    except (TypeError, ValueError):
        return ["axes or values are not numeric arrays"]
    if values.shape != (len(axes[0]),) * len(axes):
        return [f"values shape {values.shape}"]
    problems = []
    if len(got_axes) != len(axes) or not all(
            g.shape == a.shape and np.all(_close(g, a, 0.0, 1e-15)) for g, a in zip(got_axes, axes)):
        problems.append("axes differ from the grid")
    reference = closed_form_grid(params["metric"], axes)
    bad = ~_close(values, reference, 1e-12, CLOSED_FORM_TOL)
    if bad.any():
        problems.append(f"{int(bad.sum())} values differ from the closed form")
    table = read_csv(csv_path, params)
    if not isinstance(table, str) and not np.all(
            _close(table[:, -1], values.ravel(), CSV_REL)):
        problems.append("CSV and JSON of the same spec disagree")
    return problems


def check_numeric_csv(path: str, params: dict, seed) -> list:
    """Finite rows, a vanishing diagonal, and a seeded sample against the oracle."""
    table = read_csv(path, params)
    if isinstance(table, str):
        return [table]
    axes = _axes(params)
    problems = _check_csv_axes(table, axes)
    n = params["resolution"]
    values = table[:, 2].reshape(n, n)
    diagonal = np.abs(np.diag(values)).max()
    if diagonal > DIAGONAL_TOL:
        problems.append(f"diagonal (identical channels) reaches {diagonal:.3e}")
    rng = random.Random(f"{seed}:sample")
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in rng.sample(off_diagonal, min(SAMPLED_CELLS, len(off_diagonal))):
        expected = coherent_info_diff_oracle(axes[0][i], axes[1][j])
        if not _close(values[i, j], expected, CSV_REL, CLOSED_FORM_TOL):
            problems.append(f"cell ({i}, {j}) is {values[i, j]!r}, oracle {expected!r}")
    return problems


def check_sweep(op, pass_dir: str, seed) -> list:
    """Content check of one sweep output file in ``pass_dir``."""
    params = op.params
    path = os.path.join(pass_dir, op.out)
    if params["metric"] == "coherent_info_diff":
        return check_numeric_csv(path, params, seed)
    if params["format"] == "json":
        return check_closed_json(path, params, os.path.join(pass_dir, f"{params['metric']}.csv"))
    return check_closed_csv(path, params)


def _geometry_r(mass, radius, k0):
    f0 = (radius - 2.0 * mass) / radius
    return math.atan(math.exp(-math.pi * math.sqrt(f0) * k0 * 4.0 * mass))


def check_query(op, code: int, stdout: str, stderr: str) -> list:
    """Exit code and the invariants the README states for one query."""
    if code != op.expect_code:
        return [f"exit code {code}, expected {op.expect_code}"]
    p = op.params
    if op.expect_code == 2:
        return [] if p["flag"] in stderr else [f"stderr does not name {p['flag']}: {stderr!r}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON object"]
    problems = []

    def near(label, value, expected, tol):
        if value is None or not abs(value - expected) <= tol:
            problems.append(f"{label} = {value!r}, expected {expected!r} within {tol:g}")

    try:
        if op.kind in ("protocol", "phase"):
            near("p_plus + p_minus", out["p_plus"] + out["p_minus"], 1.0, PROBABILITY_TOL)
        if op.kind == "protocol":
            if out["negativity_avg"] < out["negativity_mixture"] - PROBABILITY_TOL:
                problems.append("negativity_avg below negativity_mixture")
            closed = out["negativity_avg_closed"]
            equal_phases = p["phi1"] == p["phi2"]
            if equal_phases:
                near("negativity_avg", out["negativity_avg"],
                     float(_neg_avg(p["r1"], p["r2"])), CLOSED_FORM_TOL)
            if equal_phases or closed is not None:
                near("negativity_avg_closed", closed, out["negativity_avg"], CLOSED_FORM_TOL)
        elif op.kind == "channel":
            near("negativity", out["negativity"], math.cos(p["r"]) ** 2 / 2.0, CLOSED_FORM_TOL)
        elif op.kind == "phase":
            near("negativity_avg", out["negativity_avg"], abs(math.cos(p["r"])) / 2.0,
                 CLOSED_FORM_TOL)
        elif op.kind == "geometry":
            near("r", out["r"], _geometry_r(p["mass"], p["radius"], p["k0"]), 1e-12)
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
