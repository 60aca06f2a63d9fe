"""Experiment drivers and reporting.

:mod:`repro.analysis.experiments` contains one driver per paper table/
figure, returning plain data structures; :mod:`repro.analysis.tables`
renders them as aligned text tables.  The paper-shape tests, the CLI
and EXPERIMENTS.md are all generated from these drivers, so the numbers in
the documentation are exactly what the code produces.
"""

from repro.analysis.tables import format_table
from repro.analysis.stats import mean_ci, mean_std, relative_error, within
from repro.analysis.viz import (
    render_configuration,
    render_link_heatmap,
    render_schedule_utilisation,
)
from repro.analysis import experiments

__all__ = [
    "format_table",
    "mean_ci",
    "mean_std",
    "relative_error",
    "within",
    "experiments",
    "render_configuration",
    "render_link_heatmap",
    "render_schedule_utilisation",
]
