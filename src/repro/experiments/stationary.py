"""Stationary experiments: the load/throughput curves of Figures 1 and 12.

Two questions are answered per offered load ``N`` (number of terminals):

* *without control* -- what throughput does the system reach when every
  arriving transaction is admitted immediately?  (Figure 1 / the "without
  control" curve of Figure 12: throughput rises, saturates, then drops.)
* *with control* -- what throughput does the same system reach when a load
  controller (IS or PA) adjusts the admission threshold?  (The "with
  control" curve of Figure 12: throughput stays at the optimum level for
  every offered load.)

:func:`run_stationary_point` runs one (offered load, controller) cell;
:func:`sweep_offered_load` produces the whole curve.  The sweep builds one
:class:`~repro.runner.specs.RunSpec` per offered load and delegates
execution to :mod:`repro.runner`, so ``workers=N`` fans the points out over
processes and ``replicates=R`` turns each point into a mean with a
confidence interval — without changing the single-replicate results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.controller import LoadController
from repro.experiments.config import ExperimentScale, default_system_params
from repro.sim.random_streams import RandomStreams
from repro.tp.params import SystemParams

#: a factory producing a fresh controller for each run (controllers keep state)
ControllerFactory = Callable[[SystemParams], LoadController]


@dataclass(frozen=True)
class StationaryPoint:
    """Result of one stationary run at a fixed offered load."""

    #: offered load: number of terminals
    offered_load: int
    #: committed transactions per second over the measured horizon
    throughput: float
    #: mean submission-to-commit latency
    mean_response_time: float
    #: time-averaged number of admitted transactions
    mean_concurrency: float
    #: abandoned executions per commit
    restart_ratio: float
    #: CPU utilisation over the measured horizon
    cpu_utilisation: float
    #: threshold in effect at the end of the run (inf without control)
    final_limit: float
    #: commits observed (statistical weight of the point)
    commits: int
    #: abandoned executions by reason (:class:`~repro.cc.base.AbortReason`
    #: values as strings); lets restart-heavy schemes (wound-wait) be told
    #: apart from deadlock-victim schemes at the sweep level
    aborts_by_reason: Dict[str, int] = field(default_factory=dict)
    #: weak-isolation anomalies found in the committed history, by kind
    #: (:data:`~repro.cc.history.ANOMALY_KINDS`); populated only when the
    #: run was asked for isolation diagnostics, empty otherwise
    anomalies: Dict[str, int] = field(default_factory=dict)
    #: in-sim probe metrics (``probe_<name>`` keys, already prefixed);
    #: populated only when the run opted into probes, empty otherwise —
    #: see :mod:`repro.obs.probes`
    probe_metrics: Dict[str, float] = field(default_factory=dict)
    #: streaming 95th/99th-percentile submission-to-commit latency over the
    #: measured window (P-squared estimates; 0 when nothing committed)
    p95_response_time: float = 0.0
    p99_response_time: float = 0.0
    #: arrivals rejected outright by tenant queue quotas (open runs only)
    shed: int = 0
    #: per-tenant SLO metrics, keyed ``tenant_<metric>_<class name>``;
    #: populated only for open/partly-open runs on a mixed-class workload
    #: (the tenant key set is enumerated from the *spec*, so the schema is
    #: a pure function of the cell spec, never of the trajectory)
    tenant_metrics: Dict[str, float] = field(default_factory=dict)

    def as_tuple(self) -> Tuple[float, float]:
        """The (load, throughput) pair used by the curve helpers."""
        return (float(self.offered_load), self.throughput)


@dataclass
class StationarySweep:
    """A whole load/throughput curve plus the analytic reference."""

    label: str
    points: List[StationaryPoint] = field(default_factory=list)
    #: analytic (model) throughput at each offered load, for comparison
    model_reference: Dict[int, float] = field(default_factory=dict)
    #: which analytic model produced :attr:`model_reference` ("TayModel"
    #: for locking-family schemes, "OccModel" for optimistic ones; empty
    #: when no reference was requested)
    model_reference_name: str = ""
    #: offered load -> replicate aggregate (mean ± CI per metric); populated
    #: by replicated runs, empty for single-replicate sweeps
    aggregates: Dict[int, object] = field(default_factory=dict)

    def curve(self) -> List[Tuple[float, float]]:
        """The (load, throughput) series in offered-load order."""
        return [point.as_tuple() for point in sorted(self.points, key=lambda p: p.offered_load)]

    def peak(self) -> StationaryPoint:
        """The point with the highest throughput."""
        if not self.points:
            raise ValueError("the sweep contains no points")
        return max(self.points, key=lambda point: point.throughput)

    def throughput_at(self, offered_load: int) -> float:
        """Throughput measured at a specific offered load."""
        for point in self.points:
            if point.offered_load == offered_load:
                return point.throughput
        raise KeyError(f"no point at offered load {offered_load}")


def run_stationary_point(params: SystemParams,
                         controller_factory: Optional[ControllerFactory] = None,
                         horizon: float = 30.0,
                         warmup: float = 5.0,
                         measurement_interval: float = 2.0,
                         streams: Optional[RandomStreams] = None,
                         **options) -> StationaryPoint:
    """Run one stationary simulation and summarise it.

    A thin adapter over the runner's cell pipeline
    (:func:`repro.runner.cells.run_cell`).  With
    ``controller_factory=None`` the system runs uncontrolled; otherwise the
    factory's controller is attached with the given measurement interval.
    ``streams`` overrides the run's random streams (seeded from
    ``params.seed`` by default).  ``options`` are
    :class:`~repro.runner.specs.RunSpec` fields — ``workload_classes``,
    ``cc``, ``isolation_diagnostics`` (fills :attr:`StationaryPoint.anomalies`),
    ``probes`` (fills :attr:`StationaryPoint.probe_metrics` without moving
    any other field) and ``arrivals`` (an open run over quota-carrying
    classes enforces the quotas; the SLO fields describe the outcome).
    """
    from repro.runner.cells import run_cell
    from repro.runner.specs import KIND_STATIONARY, RunSpec

    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    scale = ExperimentScale(stationary_horizon=horizon, warmup=warmup,
                            offered_loads=(params.n_terminals,), tracking_horizon=0.0,
                            measurement_interval=measurement_interval,
                            synthetic_steps=0)
    spec = RunSpec(kind=KIND_STATIONARY, cell_id="stationary", params=params,
                   scale=scale, controller=controller_factory, **options)
    return run_cell(spec, streams=streams).payload


def stationary_sweep_spec(base_params: Optional[SystemParams] = None,
                          controller: Optional[object] = None,
                          scale: Optional[ExperimentScale] = None,
                          label: Optional[str] = None,
                          name: str = "stationary",
                          arrivals: Optional[object] = None,
                          **options):
    """Build the runner :class:`~repro.runner.specs.SweepSpec` of one curve.

    ``controller`` may be ``None`` (uncontrolled), a
    :class:`~repro.runner.specs.ControllerSpec`, or a picklable factory
    ``params -> LoadController``.  ``arrivals`` selects the arrival model —
    an :class:`~repro.tp.arrivals.ArrivalProcess` shared by every cell, or a
    callable ``offered_load -> ArrivalProcess`` so open sweeps can scale
    the arrival rate along the offered-load axis the way closed sweeps
    scale the terminal count.  ``options`` are further
    :class:`~repro.runner.specs.RunSpec` fields applied to every cell
    (``workload_classes``, ``cc``, ``scheme_diagnostics``,
    ``isolation_diagnostics``, ``probes``, ...).
    """
    from repro.runner.specs import KIND_STATIONARY, RunSpec, SweepSpec
    from repro.tp.arrivals import ArrivalProcess

    def arrivals_for(offered_load: int):
        if arrivals is None or isinstance(arrivals, ArrivalProcess):
            return arrivals
        return arrivals(offered_load)

    scale = scale or ExperimentScale.benchmark()
    base_params = base_params or default_system_params()
    if label is None:
        label = "without control" if controller is None else "with control"
    cells = tuple(
        RunSpec(
            kind=KIND_STATIONARY,
            cell_id=f"{name}/{label}/N={int(offered_load)}",
            params=base_params.with_changes(n_terminals=int(offered_load)),
            scale=scale,
            controller=controller,
            label=label,
            arrivals=arrivals_for(int(offered_load)),
            **options,
        )
        for offered_load in scale.offered_loads
    )
    return SweepSpec(name=name, cells=cells)


def sweep_offered_load(base_params: Optional[SystemParams] = None,
                       controller_factory: Optional[ControllerFactory] = None,
                       scale: Optional[ExperimentScale] = None,
                       label: Optional[str] = None,
                       include_model_reference: bool = True,
                       workers: int = 0,
                       replicates: int = 1) -> StationarySweep:
    """Measure the load/throughput curve over the scale's offered loads.

    Execution is delegated to :mod:`repro.runner`: ``workers=N`` runs the
    points over ``N`` worker processes (0/1 = serial, same results bitwise),
    and ``replicates=R`` runs every point ``R`` times with independent
    replicate seeds, in which case the curve carries the replicate means and
    :attr:`StationarySweep.aggregates` the per-load mean ± CI summaries.

    With ``workers > 1`` the controller factory must be picklable (a
    module-level function or a :class:`~repro.runner.specs.ControllerSpec`);
    lambdas and closures work serially only.
    """
    from repro.runner.api import run_sweep, stationary_sweeps

    spec = stationary_sweep_spec(base_params, controller_factory, scale, label)
    result = run_sweep(spec, workers=workers, replicates=replicates)
    sweeps = stationary_sweeps(result, include_model_reference=include_model_reference)
    (sweep,) = sweeps.values()
    return sweep
