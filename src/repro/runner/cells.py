"""Executing one experiment cell inside a worker process.

:func:`execute_run_spec` is the single entry point every executor maps over
the cells of a :class:`~repro.runner.specs.SweepSpec`.  It is a module-level
function (so ``multiprocessing`` can pickle it by reference), builds all
stateful objects locally, and returns a :class:`CellResult` whose payload
and metrics are plain picklable data.

Stationary and tracking cells share one lowering.  :func:`_build_cell`
turns a spec into an unstarted
:class:`~repro.tp.system.TransactionSystem` with its controller attached;
:func:`run_cell` runs it — warm-up, statistics reset, measured window —
and summarises it through the ordered :data:`METRIC_GROUPS` table.  A
stationary cell is a run whose schedule is constant and whose statistics
are reset after the warm-up; a tracking cell follows its scenario's
schedule from time zero and is scored against the analytic optimum.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cc.registry import resolve_cc
from repro.cc.timestamp_cert import TimestampCertification
from repro.experiments.dynamic import TrackingResult, reference_trajectory
from repro.experiments.stationary import StationaryPoint
from repro.experiments.tracking import compute_tracking_metrics
from repro.runner.specs import KIND_STATIONARY, KIND_TRACKING, RunSpec
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.tp.metrics import RunMetrics
from repro.tp.system import TransactionSystem
from repro.tp.workload import MixedClassWorkload, Workload

#: fraction of the tracking horizon discarded as the start-up transient when
#: computing the cell-level mean_abs_error / throughput_ratio summaries.
#: This is the runner's *standard* window for cross-scenario aggregate
#: comparisons; individual benchmarks may evaluate their own windows (e.g.
#: the sinusoid benchmark uses 0.2) for their specific assertions.
TRACKING_METRICS_TRANSIENT_FRACTION = 0.15


@dataclass
class CellResult:
    """Outcome of one cell run: summary metrics plus the full result object.

    ``metrics`` holds the scalar quantities the replication layer can
    aggregate (mean ± confidence interval); ``payload`` is the full
    :class:`~repro.experiments.stationary.StationaryPoint` or
    :class:`~repro.experiments.dynamic.TrackingResult` for callers that need
    the complete series.
    """

    cell_id: str
    kind: str
    replicate: int
    label: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    payload: object = None
    #: name of the scheme-aware analytic reference ("TayModel"/"OccModel");
    #: set only when the spec asked for scheme diagnostics, so the golden
    #: fixtures of cells that never requested it are untouched
    model_reference: str = ""


def replicate_streams(seed: int, replicate: int) -> RandomStreams:
    """The random streams of one replicate of a run.

    Replicate 0 uses the root streams directly, so a single-replicate runner
    cell is bitwise identical to the corresponding direct serial run; higher
    replicates branch off via :meth:`RandomStreams.spawn`.
    """
    streams = RandomStreams(seed)
    if replicate:
        streams = streams.spawn(replicate)
    return streams


def execute_run_spec(spec: RunSpec) -> CellResult:
    """Run one cell and summarise it (the executor-mapped worker function).

    When a telemetry sink is active (:mod:`repro.obs.telemetry`) the call is
    wrapped in a ``cell_execute`` span attributing the cell's wall-clock
    execute time to this worker process; the clock is only read when a sink
    is installed, so untelemetered runs pay a single ``None`` check.
    """
    from repro.obs import telemetry

    sink = telemetry.active_sink()
    if sink is None:
        return run_cell(spec)
    started = time.monotonic()
    result = run_cell(spec)
    telemetry.emit(
        "cell_execute",
        cell_id=spec.cell_id,
        replicate=spec.replicate,
        kind=spec.kind,
        duration=time.monotonic() - started,
    )
    return result


@dataclass
class _Cell:
    """A lowered cell: the system and its observers."""

    spec: RunSpec
    system: TransactionSystem
    recorder: object = None
    probe_set: object = None
    #: measured-window readouts, filled in after the run
    anomalies: Dict[str, int] = field(default_factory=dict)
    probe_metrics: Dict[str, float] = field(default_factory=dict)
    tenant_metrics: Dict[str, float] = field(default_factory=dict)
    payload: object = None


def _window(spec: RunSpec) -> Tuple[float, float]:
    """``(warm-up, measured horizon)`` of a cell's run."""
    if spec.kind == KIND_STATIONARY:
        return spec.scale.warmup, spec.scale.stationary_horizon
    return 0.0, spec.scale.tracking_horizon


def _build_cell(spec: RunSpec, streams: RandomStreams, copy_policies: bool) -> _Cell:
    """Lower a spec to an unstarted system with its controller attached.

    The workload follows the scenario's schedule when one is set, the
    mixed class mix when ``workload_classes`` is set, and the plain
    single-class parameters otherwise.  ``copy_policies`` runs per-execution
    copies of the displacement policy and interval tuner: those objects
    accumulate run state, and copying keeps cells independent however often
    a process executes one (serial executor, replicate expansion,
    multiprocessing worker reuse).
    """
    params = spec.params
    sim = Simulator()
    workload = None
    if spec.scenario is not None:
        parameter, schedule = spec.scenario
        workload = Workload.with_schedules(params.workload, streams,
                                           **{parameter: schedule})
    elif spec.workload_classes is not None:
        workload = MixedClassWorkload(params.workload, streams, spec.workload_classes)
    scheme = resolve_cc(spec.cc, sim)
    recorder = None
    if spec.isolation_diagnostics:
        from repro.cc.history import HistoryRecorder, RecordingConcurrencyControl

        recorder = HistoryRecorder()
        scheme = RecordingConcurrencyControl(
            scheme if scheme is not None else TimestampCertification(sim), recorder)
    probe_set = None
    if spec.probes is not None:
        from repro.obs.probes import ProbeSet

        probe_set = ProbeSet(spec.probes, interval=spec.scale.measurement_interval)
    displacement, interval_tuner = spec.displacement, spec.interval_tuner
    if copy_policies and (displacement is not None or interval_tuner is not None):
        displacement, interval_tuner = copy.deepcopy((displacement, interval_tuner))
    system = TransactionSystem(params, sim=sim, streams=streams, workload=workload,
                               cc=scheme, gate=_quota_gate(spec, sim),
                               displacement=displacement, probes=probe_set,
                               arrivals=spec.arrivals)
    controller = spec.build_controller()
    if controller is not None:
        warmup, _horizon = _window(spec)
        system.attach_controller(controller, interval=spec.scale.measurement_interval,
                                 warmup=min(warmup, 1.0), interval_tuner=interval_tuner)
    return _Cell(spec, system, recorder, probe_set)


def _quota_gate(spec: RunSpec, sim: Simulator):
    """The tenant-quota admission gate of an open mixed-class cell, if any."""
    if spec.arrivals is None or spec.workload_classes is None:
        return None
    quotas = {cls.name: cls.admission_quota for cls in spec.workload_classes
              if cls.admission_quota is not None}
    queue_quotas = {cls.name: cls.queue_quota for cls in spec.workload_classes
                    if cls.queue_quota is not None}
    if not (quotas or queue_quotas):
        return None
    from repro.core.admission import AdmissionGate

    return AdmissionGate(sim, tenant_quotas=quotas or None,
                         tenant_queue_quotas=queue_quotas or None)


def run_cell(spec: RunSpec, streams: Optional[RandomStreams] = None,
             copy_policies: bool = True) -> CellResult:
    """Build, run and summarise one cell of either kind.

    ``streams`` overrides the replicate-derived random streams;
    ``copy_policies=False`` runs the spec's own displacement policy and
    interval tuner objects, so a direct caller can inspect them afterwards.
    """
    if streams is None:
        streams = replicate_streams(spec.params.seed, spec.replicate)
    cell = _build_cell(spec, streams, copy_policies)
    system = cell.system
    warmup, horizon = _window(spec)
    system.start()
    if spec.kind == KIND_STATIONARY:
        system.run(until=warmup)
        # discard the warm-up transient; the resets bind the measured windows
        # of the rate metrics (metrics.measured_from, the resource integrals)
        # to now.  Even a zero warm-up resets: the probe gauges then open on
        # the state after the time-zero events
        system.metrics.reset()
        system.cpus.reset_statistics()
        system.gate.reset_statistics()
        if cell.probe_set is not None:
            cell.probe_set.reset(system.sim.now)
    system.run(until=warmup + horizon)

    if cell.recorder is not None:
        from repro.cc.history import anomaly_counts

        cell.anomalies = anomaly_counts(cell.recorder.committed)
    if cell.probe_set is not None:
        cell.probe_metrics = cell.probe_set.metrics(system.sim.now)
    if spec.arrivals is not None and spec.workload_classes is not None:
        cell.tenant_metrics = _tenant_metrics(spec, system.metrics)
    cell.payload = (_stationary_point(cell) if spec.kind == KIND_STATIONARY
                    else _tracking_result(cell))
    metrics: Dict[str, float] = {}
    for wanted, group in METRIC_GROUPS:
        if wanted(spec):
            metrics.update(group(cell))
    model_reference = ""
    if spec.scheme_diagnostics:
        from repro.analytic.references import reference_model_name

        model_reference = reference_model_name(spec.cc)
    return CellResult(
        cell_id=spec.cell_id,
        kind=spec.kind,
        replicate=spec.replicate,
        label=spec.label,
        metrics=metrics,
        payload=cell.payload,
        model_reference=model_reference,
    )


# ----------------------------------------------------------------------
# payloads and metric groups
# ----------------------------------------------------------------------
def _stationary_point(cell: _Cell) -> StationaryPoint:
    system = cell.system
    metrics = system.metrics
    return StationaryPoint(
        offered_load=cell.spec.params.n_terminals,
        throughput=metrics.throughput(),
        mean_response_time=metrics.mean_response_time(),
        mean_concurrency=system.gate.mean_load(),
        restart_ratio=metrics.restart_ratio,
        cpu_utilisation=system.cpus.utilisation(),
        final_limit=system.gate.limit,
        commits=metrics.commits,
        aborts_by_reason={reason.value: count for reason, count
                          in metrics.aborts_by_reason.items()},
        anomalies=cell.anomalies,
        probe_metrics=cell.probe_metrics,
        p95_response_time=metrics.p95_response_time,
        p99_response_time=metrics.p99_response_time,
        shed=metrics.shed,
        tenant_metrics=cell.tenant_metrics,
    )


def _tracking_result(cell: _Cell) -> TrackingResult:
    spec = cell.spec
    trace = cell.system.measurement.trace
    optima, peaks = reference_trajectory(spec.params, cell.system.workload,
                                         trace.times, spec.cc)
    metrics = cell.system.metrics
    return TrackingResult(
        controller=cell.system.measurement.controller.name,
        varied_parameter=spec.scenario[0],
        trace=trace,
        reference_optima=optima,
        reference_peaks=peaks,
        total_commits=metrics.commits,
        mean_response_time=metrics.mean_response_time(),
        restart_ratio=metrics.restart_ratio,
    )


def _tenant_metrics(spec: RunSpec, metrics: RunMetrics) -> Dict[str, float]:
    """Per-tenant SLO metrics of an open mixed-class cell.

    The key set is enumerated from the spec's class names (never from the
    tenants that happened to commit), so the metric schema is a pure
    function of the cell spec.
    """
    tenant_metrics: Dict[str, float] = {}
    for cls in spec.workload_classes:
        name = cls.name
        tenant_metrics[f"tenant_commits_{name}"] = float(
            metrics.commits_by_tenant.get(name, 0))
        tenant_metrics[f"tenant_shed_{name}"] = float(
            metrics.shed_by_tenant.get(name, 0))
        p95 = metrics.tenant_response_p95.get(name)
        p99 = metrics.tenant_response_p99.get(name)
        p95_value = p95.value if p95 is not None else 0.0
        p99_value = p99.value if p99 is not None else 0.0
        tenant_metrics[f"tenant_p95_response_time_{name}"] = p95_value
        # independent P² estimates can cross slightly under heavy tails;
        # report a monotone pair (same clamp as RunMetrics)
        tenant_metrics[f"tenant_p99_response_time_{name}"] = max(p99_value, p95_value)
    return tenant_metrics


def _stationary_metrics(cell: _Cell) -> Dict[str, float]:
    point = cell.payload
    return {
        "throughput": point.throughput,
        "mean_response_time": point.mean_response_time,
        "restart_ratio": point.restart_ratio,
        "mean_concurrency": point.mean_concurrency,
        "cpu_utilisation": point.cpu_utilisation,
        "commits": float(point.commits),
        "final_limit": point.final_limit,
    }


def _tracking_metrics(cell: _Cell) -> Dict[str, float]:
    result = cell.payload
    horizon = cell.spec.scale.tracking_horizon
    return {
        "throughput": result.total_commits / horizon if horizon > 0 else 0.0,
        "mean_response_time": result.mean_response_time,
        "restart_ratio": result.restart_ratio,
        "commits": float(result.total_commits),
    }


def _abort_metrics(cell: _Cell) -> Dict[str, float]:
    # all reasons, so the metric schema of a diagnostics sweep is stable
    # whether or not a reason occurred
    counts = {reason.value: count for reason, count
              in cell.system.metrics.aborts_by_reason.items()}
    return {f"aborts_{reason}": float(counts[reason]) for reason in sorted(counts)}


def _anomaly_metrics(cell: _Cell) -> Dict[str, float]:
    from repro.cc.history import ANOMALY_KINDS

    # all kinds, so the metric schema of an isolation sweep is stable
    # whether or not an anomaly occurred
    return {f"anomalies_{kind}": float(cell.anomalies.get(kind, 0))
            for kind in ANOMALY_KINDS}


def _slo_metrics(cell: _Cell) -> Dict[str, float]:
    metrics = cell.system.metrics
    return {"p95_response_time": metrics.p95_response_time,
            "p99_response_time": metrics.p99_response_time,
            "shed": float(metrics.shed), **cell.tenant_metrics}


def _tracking_error_metrics(cell: _Cell) -> Dict[str, float]:
    try:
        tracking = compute_tracking_metrics(
            cell.payload,
            evaluate_after=TRACKING_METRICS_TRANSIENT_FRACTION
            * cell.spec.scale.tracking_horizon,
        )
    except ValueError:
        # degenerate traces (no samples after the transient) still produce a
        # usable cell; only the tracking-error metrics are omitted
        return {}
    return {"mean_abs_error": tracking.mean_absolute_error,
            "throughput_ratio": tracking.throughput_ratio}


#: a cell's metric groups in emission order: ``(switch, emitter)``.  After
#: the kind's base metrics, a group is emitted only when its spec field is
#: set, so cells that do not ask for it keep their metric schema — and
#: every golden fixture stays byte-identical.  Probe readouts arrive
#: already ``probe_``-prefixed, with a schema that is a pure function of
#: the enabled probes.
METRIC_GROUPS: Tuple[Tuple[Callable[[RunSpec], bool], Callable], ...] = (
    (lambda spec: spec.kind == KIND_STATIONARY, _stationary_metrics),
    (lambda spec: spec.kind == KIND_TRACKING, _tracking_metrics),
    (lambda spec: spec.scheme_diagnostics, _abort_metrics),
    (lambda spec: spec.isolation_diagnostics, _anomaly_metrics),
    (lambda spec: spec.arrivals is not None, _slo_metrics),
    (lambda spec: spec.probes is not None, lambda cell: cell.probe_metrics),
    (lambda spec: spec.displacement is not None,
     lambda cell: {"displaced": float(cell.system.displacement.total_displaced)}),
    (lambda spec: spec.kind == KIND_TRACKING, _tracking_error_metrics),
)
