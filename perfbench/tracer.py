"""Span tracer installed from outside the program, and the per-layer report.

`Tracer.install` wraps every public function of the six hawkchan layers
at every name that binds it, including the names other hawkchan modules
took with ``from .x import y``, and counts calls into
``numpy.linalg.eigvalsh``.  Each wrapped call records a span (name,
start, end, parent span, op id) in flat arrays that stay in memory
until `Tracer.save` writes them out at the end of the run.
`Tracer.uninstall` puts every patched name back.

`per_layer_metrics` turns saved spans into the per-layer metrics.  A
layer's self time is the duration of its spans minus the part of each
span's interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "sweep", "protocol", "channel", "metrics", "linop")
CLOSED_FORMS = (
    "metrics.negativity_avg_closed",
    "metrics.negativity_mixture_closed",
    "metrics.negativity_convex_avg",
    "metrics.phase_avg_negativity",
)
_CALL_COUNTS = (
    "linop.check_density_matrix",
    "channel.kraus_pair",
    "channel.cross_term",
    "channel.apply_channel",
    "metrics.coherent_information",
    "metrics.negativity",
)
_MEDIAN_US = (
    "linop.check_density_matrix",
    "protocol.measure_control",
    "protocol.classical_mixture",
    "metrics.coherent_information",
    "metrics.negativity",
)

# name -> (unit, better); the order is the order of the report.
PER_LAYER_METRICS = {
    **{f"{name}_calls_per_op": ("calls/op", "lower") for name in _CALL_COUNTS},
    "linop.revalidation_ratio": ("ratio", "lower"),
    "linop.eigvalsh_calls_per_op": ("calls/op", "lower"),
    "linop.eig_matrices_per_op": ("matrices/op", "lower"),
    "protocol.calls_per_op": ("calls/op", "lower"),
    "metrics.closed_form_calls_per_op": ("calls/op", "lower"),
    **{f"{name}_us_p50": ("us", "lower") for name in _MEDIAN_US},
    "sweep.run_sweep_self_us_per_op": ("us/op", "lower"),
    "sweep.emit_us_per_op": ("us/op", "lower"),
    "sweep.output_bytes_per_op": ("B/op", "lower"),
    **{f"{layer}.self_us_per_op": ("us/op", "lower") for layer in LAYERS},
    **{f"{layer}.self_share": ("fraction", "lower") for layer in LAYERS},
    **{f"{layer}.exceptions": ("count", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.op_id = -1
        self.eigvalsh_calls = 0
        self.eig_matrices = 0
        self.validated: set = set()  # (op id, matrix bytes) seen by check_density_matrix
        self._stack = [-1]
        self._patched: list = []  # (owner, attribute, original), in patch order

    def _wrap(self, qualname: str, fn, note=None):
        name_id = len(self.names)
        self.names.append(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(*args)
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.raised.append(0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def _note_validated(self, rho, *_):
        self.validated.add((self.op_id, np.asarray(rho, dtype=complex).tobytes()))

    def _count_eigvalsh(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            self.eigvalsh_calls += 1
            self.eig_matrices += int(np.prod(np.shape(a)[:-2], dtype=int))
            return fn(a, *args, **kwargs)

        return counted

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "hawkchan" or n.startswith("hawkchan.")) and m is not None]
        for layer in LAYERS:
            module = sys.modules[f"hawkchan.{layer}"]
            for attribute, fn in list(vars(module).items()):
                if (attribute.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                qualname = f"{layer}.{attribute}"
                note = self._note_validated if qualname == "linop.check_density_matrix" else None
                traced = self._wrap(qualname, fn, note)
                for owner in modules:
                    for bound_name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, bound_name, traced)
        self._patch(np.linalg, "eigvalsh", self._count_eigvalsh(np.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def save(self, path: str) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            header=np.array(json.dumps({
                "names": self.names,
                "eigvalsh_calls": self.eigvalsh_calls,
                "eig_matrices": self.eig_matrices,
                "distinct_validated": len(self.validated),
            })),
        )


def self_times(start, end, parent) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, p in enumerate(parent):
        if p >= 0:
            children[p].append(idx)
    result = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        covered = 0.0
        run_start = run_end = None
        for k in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[k], start[p]), min(end[k], end[p])
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        result[p] -= covered
    return result


def per_layer_metrics(spans_path: str, ops: int, output_bytes: int,
                      traced_seconds_per_op: float, untraced_seconds_per_op: float) -> dict:
    """The per-layer report for a traced run of ``ops`` ops (cells or queries)."""
    data = np.load(spans_path)
    header = json.loads(str(data["header"]))
    names = header["names"]
    start, end = data["start"].tolist(), data["end"].tolist()
    parent, name_ids, raised = data["parent"].tolist(), data["name"].tolist(), data["raised"]
    own = self_times(start, end, parent)

    calls, durations, self_by_name = defaultdict(int), defaultdict(list), defaultdict(float)
    for idx, nid in enumerate(name_ids):
        name = names[nid]
        calls[name] += 1
        durations[name].append(end[idx] - start[idx])
        self_by_name[name] += own[idx]
    layer_self, layer_calls, layer_raised = defaultdict(float), defaultdict(int), defaultdict(int)
    for name in calls:
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_by_name[name]
        layer_calls[layer] += calls[name]
    for idx in np.flatnonzero(raised):
        layer_raised[names[name_ids[idx]].split(".", 1)[0]] += 1
    root_total = sum(end[i] - start[i] for i, p in enumerate(parent) if p < 0)

    def median_us(name):
        return statistics.median(durations[name]) * 1e6 if durations[name] else 0.0

    out = {f"{name}_calls_per_op": calls[name] / ops for name in _CALL_COUNTS}
    validations = calls["linop.check_density_matrix"]
    out["linop.revalidation_ratio"] = (
        validations / header["distinct_validated"] if header["distinct_validated"] else 0.0)
    out["linop.eigvalsh_calls_per_op"] = header["eigvalsh_calls"] / ops
    out["linop.eig_matrices_per_op"] = header["eig_matrices"] / ops
    out["protocol.calls_per_op"] = layer_calls["protocol"] / ops
    out["metrics.closed_form_calls_per_op"] = sum(calls[n] for n in CLOSED_FORMS) / ops
    out.update({f"{name}_us_p50": median_us(name) for name in _MEDIAN_US})
    out["sweep.run_sweep_self_us_per_op"] = self_by_name["sweep.run_sweep"] / ops * 1e6
    out["sweep.emit_us_per_op"] = (
        sum(durations["sweep.emit_csv"]) + sum(durations["sweep.emit_json"])) / ops * 1e6
    out["sweep.output_bytes_per_op"] = output_bytes / ops
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = layer_self[layer] / ops * 1e6
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / root_total if root_total else 0.0
    for layer in LAYERS:
        out[f"{layer}.exceptions"] = layer_raised[layer]
    out["trace.overhead_ratio"] = traced_seconds_per_op / untraced_seconds_per_op - 1.0
    return out
