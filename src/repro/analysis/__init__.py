"""Experiment harness, aggregation, and paper-artifact regeneration."""

from ..core.lazy import lazy_attributes
from .aggregate import (
    RunSummary,
    SummaryStats,
    partition_results,
    summarize,
)
from .experiments import (
    ExperimentCell,
    PIPELINED_DECISIONS,
    bench_jobs,
    bench_repetitions,
    decisions_for,
    network_for,
    run_cell,
    run_cell_raw,
)
from .report import render_series, render_table

#: Code counting and view-chart helpers load on first use: only the paper's
#: table and figure scripts read them.
__getattr__ = lazy_attributes(__name__, {
    "compute": ("ComputationModel", "ComputeEstimate", "estimate_computation"),
    "loc": (
        "ATTACK_MODULES", "LocEntry", "PROTOCOL_MODULES", "attack_loc_table",
        "count_code_lines", "protocol_loc_table",
    ),
    "viewtrace": (
        "DesyncStats", "ViewTimeline", "desync_statistics",
        "extract_view_timelines", "render_view_chart",
    ),
})

__all__ = [
    "ATTACK_MODULES", "ComputationModel", "ComputeEstimate",
    "DesyncStats", "ExperimentCell", "estimate_computation",
    "LocEntry", "PIPELINED_DECISIONS", "PROTOCOL_MODULES", "RunSummary",
    "SummaryStats", "ViewTimeline", "attack_loc_table", "bench_jobs",
    "bench_repetitions", "count_code_lines", "decisions_for",
    "desync_statistics", "extract_view_timelines", "network_for",
    "partition_results",
    "protocol_loc_table", "render_series", "render_table", "render_view_chart",
    "run_cell", "run_cell_raw", "summarize",
]
