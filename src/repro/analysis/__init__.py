"""Experiment records, plain-text reporting and the experiment CLI.

The figure and table grids themselves are plans: build one with
:mod:`repro.plan.builtin` (``fig7_plan(...)``) and call ``.run(farm)``.
"""

from repro.analysis.records import (
    ExperimentRecord,
    MeasurementRow,
    PAPER_TABLE1,
    paper_table1_values,
    paper_value,
)
from repro.analysis.monitor import BranchHealth, HealthMonitor, SEVERITIES
from repro.analysis.report import (
    format_table,
    render_farm_summary,
    render_record,
    render_series,
    render_table1,
)

__all__ = [
    "ExperimentRecord",
    "MeasurementRow",
    "PAPER_TABLE1",
    "paper_table1_values",
    "paper_value",
    "BranchHealth",
    "HealthMonitor",
    "SEVERITIES",
    "format_table",
    "render_farm_summary",
    "render_record",
    "render_series",
    "render_table1",
]
