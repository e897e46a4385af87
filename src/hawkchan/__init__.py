"""Fermionic amplification (Hawking) channels near a black hole, their
coherent superpositions, and the entanglement and coherent information
each scenario preserves."""

from .channel import (
    BlackHoleGeometry,
    ChannelParams,
    KrausPair,
    apply_channel,
    channel_output_closed_form,
    cross_term,
    kraus_pair,
    squeezing_from_geometry,
)
from .metrics import (
    MetricReport,
    average_branch_negativity,
    coherent_info_closed,
    coherent_information,
    ensemble_coherent_information,
    negativity,
    negativity_avg_closed,
    negativity_convex_avg,
    negativity_mixture_closed,
    ppt_separable,
    report_for_state,
    report_for_states,
    von_neumann_entropy,
)
from .oracle import (
    apply_channel_dilated,
    cross_term_dilated,
    dilation_unitary,
    superposed_state,
)
from .protocol import (
    BranchStatistics,
    ProtocolConfig,
    bell_state,
    measure_control,
    phase_protocol,
)
from .sweep import METRICS, SweepGrid, SweepSpec, emit_csv, emit_json, run_sweep

__all__ = [
    "BlackHoleGeometry",
    "BranchStatistics",
    "ChannelParams",
    "KrausPair",
    "METRICS",
    "MetricReport",
    "ProtocolConfig",
    "SweepGrid",
    "SweepSpec",
    "apply_channel",
    "apply_channel_dilated",
    "average_branch_negativity",
    "bell_state",
    "channel_output_closed_form",
    "coherent_info_closed",
    "coherent_information",
    "cross_term",
    "cross_term_dilated",
    "dilation_unitary",
    "emit_csv",
    "emit_json",
    "ensemble_coherent_information",
    "kraus_pair",
    "measure_control",
    "negativity",
    "negativity_avg_closed",
    "negativity_convex_avg",
    "negativity_mixture_closed",
    "phase_protocol",
    "ppt_separable",
    "report_for_state",
    "report_for_states",
    "run_sweep",
    "squeezing_from_geometry",
    "superposed_state",
    "von_neumann_entropy",
]

__version__ = "0.1.0"
