"""Fermionic amplification (Hawking) channels near a black hole, their
coherent superpositions, and the entanglement and coherent information
each scenario preserves."""

from .channel import (
    BlackHoleGeometry,
    ChannelParams,
    apply_channel,
    channel_output_closed_form,
    cross_term,
    squeezing_from_geometry,
)
from .metrics import (
    MetricReport,
    coherent_info_closed,
    negativity,
    negativity_avg_closed,
    negativity_convex_avg,
    negativity_mixture_closed,
    report_for_state,
    report_for_states,
)
# The one oracle at the top level: perfbench's checks import it from here.
from .oracle import cross_term_dilated
from .protocol import BELL_STATE, BranchStatistics, measure_control
from .sweep import METRICS, SweepGrid, SweepSpec, emit_csv, emit_json, run_sweep

__all__ = [
    "BELL_STATE",
    "BlackHoleGeometry",
    "BranchStatistics",
    "ChannelParams",
    "METRICS",
    "MetricReport",
    "SweepGrid",
    "SweepSpec",
    "apply_channel",
    "channel_output_closed_form",
    "coherent_info_closed",
    "cross_term",
    "cross_term_dilated",
    "emit_csv",
    "emit_json",
    "measure_control",
    "negativity",
    "negativity_avg_closed",
    "negativity_convex_avg",
    "negativity_mixture_closed",
    "report_for_state",
    "report_for_states",
    "run_sweep",
    "squeezing_from_geometry",
]

__version__ = "0.1.0"
