"""Experiment harness shared by the examples and the benchmarks.

Each experiment of the paper's evaluation (Section 9) is represented by a
function that runs the necessary simulations and returns a plain result
object carrying the same data series the corresponding figure shows:

* :func:`repro.experiments.stationary.sweep_offered_load` -- the stationary
  load/throughput curves with and without control (Figures 1 and 12);
* :func:`repro.experiments.dynamic.run_tracking_experiment` -- the
  trajectory of the load threshold under jump-like or sinusoidal workload
  changes (Figures 13 and 14 and the sinusoidal study);
* :func:`repro.experiments.stationary.run_stationary_point` and
  :func:`~repro.experiments.dynamic.run_tracking_experiment` are thin
  adapters over the runner's single cell pipeline
  (:func:`repro.runner.cells.run_cell`), so every cell feature -- mixed
  classes, arrival models, probes, scheme and isolation diagnostics,
  displacement -- works on stationary and tracking cells alike;
* :mod:`repro.experiments.tracking` -- tracking-error metrics used to
  compare IS and PA quantitatively;
* :mod:`repro.experiments.report` -- plain-text tables for printing the
  series in benchmark output and examples.

Scale: every experiment takes an :class:`ExperimentScale` so the full,
paper-sized runs and quick smoke-test runs share one code path.
"""

from repro.experiments.config import (
    ExperimentScale,
    contention_bound_params,
    default_system_params,
)
from repro.experiments.dynamic import (
    TrackingResult,
    jump_scenario,
    run_synthetic_tracking,
    run_tracking_experiment,
    sinusoid_scenario,
    tracking_sweep_spec,
)
from repro.experiments.stationary import (
    StationaryPoint,
    StationarySweep,
    run_stationary_point,
    stationary_sweep_spec,
    sweep_offered_load,
)
from repro.experiments.tracking import TrackingMetrics, compute_tracking_metrics
from repro.experiments.report import (
    format_aggregate_table,
    format_comparison,
    format_series_table,
    format_sweep_table,
    format_table,
)

__all__ = [
    "ExperimentScale",
    "default_system_params",
    "contention_bound_params",
    "StationaryPoint",
    "StationarySweep",
    "run_stationary_point",
    "stationary_sweep_spec",
    "sweep_offered_load",
    "TrackingResult",
    "run_tracking_experiment",
    "tracking_sweep_spec",
    "run_synthetic_tracking",
    "jump_scenario",
    "sinusoid_scenario",
    "TrackingMetrics",
    "compute_tracking_metrics",
    "format_aggregate_table",
    "format_comparison",
    "format_series_table",
    "format_sweep_table",
    "format_table",
]
