"""Dynamic experiments: tracking a moving optimum (Figures 13, 14, sinusoid).

The paper's main interest is dynamic behaviour: the workload parameters
(``k``, the query fraction, the write fraction) change during the run,
moving both the height and the position of the throughput optimum, and the
controller's threshold trajectory ``n*(t)`` is compared against the true
optimum ``n_opt(t)``.

Two plants are supported:

* the full discrete-event transaction system
  (:func:`run_tracking_experiment`), where the reference optimum is computed
  from the scheme-aware analytic model (Tay's for locking schemes, the OCC
  fixed point otherwise) for the workload parameters in effect at each
  sampling instant;
* the synthetic overload function (:func:`run_synthetic_tracking`), the
  direct realization of the paper's "dynamic optimum search" abstraction,
  where the reference optimum is exact and runs take milliseconds.

Scenario helpers build the two variation patterns used in Section 9:
``jump_scenario`` (abrupt change at mid-run, Figures 13/14) and
``sinusoid_scenario`` (smooth periodic change).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analytic.references import reference_optimum
from repro.analytic.synthetic import DynamicOptimumScenario, SyntheticSystem
from repro.core.controller import LoadController
from repro.core.displacement import DisplacementPolicy
from repro.core.outer_loop import MeasurementIntervalTuner
from repro.core.types import ControlTrace
from repro.experiments.config import ExperimentScale, default_system_params
from repro.sim.random_streams import RandomStreams
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.workload import (
    ConstantSchedule,
    JumpSchedule,
    ParameterSchedule,
    SinusoidSchedule,
    Workload,
)


@dataclass
class TrackingResult:
    """Outcome of one dynamic tracking run."""

    #: controller name (for reports)
    controller: str
    #: which workload parameter was varied ("accesses", "query_fraction", ...)
    varied_parameter: str
    #: the closed-loop trace: times, thresholds, loads, throughputs
    trace: ControlTrace
    #: reference optimum position at each sampling instant
    reference_optima: List[float] = field(default_factory=list)
    #: reference peak throughput at each sampling instant (if known)
    reference_peaks: List[float] = field(default_factory=list)
    #: total commits over the run (useful-work comparison between controllers)
    total_commits: int = 0
    #: run-level mean response time
    mean_response_time: float = 0.0
    #: abandoned executions per commit over the whole run
    restart_ratio: float = 0.0

    def threshold_series(self) -> List[Tuple[float, float]]:
        """(time, threshold) points -- the solid line of Figures 13/14."""
        return list(zip(self.trace.times, self.trace.limits))

    def reference_series(self) -> List[Tuple[float, float]]:
        """(time, true optimum) points -- the broken line of Figures 13/14."""
        return list(zip(self.trace.times, self.reference_optima))


# ----------------------------------------------------------------------
# scenario construction
# ----------------------------------------------------------------------
def jump_scenario(parameter: str, before: float, after: float, jump_time: float
                  ) -> Tuple[str, ParameterSchedule]:
    """A jump-like variation of one workload parameter (Figures 13/14)."""
    _validate_parameter(parameter)
    return parameter, JumpSchedule(before, after, jump_time)


def sinusoid_scenario(parameter: str, mean: float, amplitude: float, period: float
                      ) -> Tuple[str, ParameterSchedule]:
    """A sinusoidal variation of one workload parameter (Section 9)."""
    _validate_parameter(parameter)
    return parameter, SinusoidSchedule(mean, amplitude, period)


_VALID_PARAMETERS = ("accesses", "query_fraction", "write_fraction")


def _validate_parameter(parameter: str) -> None:
    if parameter not in _VALID_PARAMETERS:
        raise ValueError(
            f"parameter must be one of {_VALID_PARAMETERS}, got {parameter!r}"
        )


def _reference_optimum(params: SystemParams, current: WorkloadParams,
                       cc: Optional[object] = None) -> Tuple[float, float]:
    """Scheme-aware analytic optimum (position, peak) for workload ``current``."""
    # the model sees the current workload both in its system parameters
    # (OccModel.optimal_mpl reads params.saturation_mpl()) and explicitly
    _name, optimum, peak = reference_optimum(
        params.with_changes(workload=current), cc, workload=current)
    return optimum, peak


def reference_trajectory(params: SystemParams, workload: Workload,
                         times: Sequence[float], cc: Optional[object] = None
                         ) -> Tuple[List[float], List[float]]:
    """Reference optimum positions and peaks at each sampling instant.

    The analytic model is solved once per distinct workload parameter set
    (every sample of a jump's plateau shares one solution); ``cc`` selects
    the scheme-aware reference model (see
    :mod:`repro.analytic.references`).
    """
    cache: Dict[WorkloadParams, Tuple[float, float]] = {}
    solved = []
    for sample_time in times:
        current = workload.params_at(sample_time)
        if current not in cache:
            cache[current] = _reference_optimum(params, current, cc)
        solved.append(cache[current])
    return [optimum for optimum, _ in solved], [peak for _, peak in solved]


# ----------------------------------------------------------------------
# discrete-event tracking run
# ----------------------------------------------------------------------
def run_tracking_experiment(controller: LoadController,
                            scenario: Tuple[str, ParameterSchedule],
                            base_params: Optional[SystemParams] = None,
                            scale: Optional[ExperimentScale] = None,
                            displacement: Optional[DisplacementPolicy] = None,
                            interval_tuner: Optional[MeasurementIntervalTuner] = None,
                            streams: Optional[RandomStreams] = None,
                            cc: Optional[object] = None) -> TrackingResult:
    """Run the full simulation with a time-varying workload and a controller.

    A thin adapter over the runner's cell pipeline
    (:func:`repro.runner.cells.run_cell`): the given ``controller``,
    ``displacement`` policy and ``interval_tuner`` (the outer control loop
    of Section 5) are the very objects the run drives, so their state can
    be inspected afterwards.  ``streams`` overrides the run's random
    streams; ``cc`` selects the concurrency control scheme (``None`` =
    timestamp certification, or a :class:`~repro.cc.registry.CCSpec` /
    factory ``sim -> scheme``), and the reference optimum is the
    scheme-aware analytic model's (Tay's for locking schemes, OCC's
    otherwise).
    """
    from repro.runner.cells import run_cell
    from repro.runner.specs import KIND_TRACKING, RunSpec

    spec = RunSpec(
        kind=KIND_TRACKING,
        cell_id="tracking",
        params=base_params or default_system_params(),
        scale=scale or ExperimentScale.benchmark(),
        controller=lambda _params: controller,
        scenario=scenario,
        displacement=displacement,
        interval_tuner=interval_tuner,
        cc=cc,
    )
    return run_cell(spec, streams=streams, copy_policies=False).payload


# ----------------------------------------------------------------------
# runner delegation: many tracking cells at once
# ----------------------------------------------------------------------
def tracking_sweep_spec(controllers: Mapping[str, object],
                        scenario: Tuple[str, ParameterSchedule],
                        base_params: Optional[SystemParams] = None,
                        scale: Optional[ExperimentScale] = None,
                        name: str = "tracking",
                        **options):
    """Build a runner sweep with one tracking cell per named controller.

    Each value of ``controllers`` may be a
    :class:`~repro.runner.specs.ControllerSpec` or a picklable factory
    ``params -> LoadController``.  ``options`` are
    :class:`~repro.runner.specs.RunSpec` fields (``displacement``, ``cc``,
    ``probes``, ...) applied to every cell of the sweep; run the sweep with
    :func:`repro.runner.run_sweep`.
    """
    from repro.runner.specs import KIND_TRACKING, RunSpec, SweepSpec

    scale = scale or ExperimentScale.benchmark()
    base_params = base_params or default_system_params()
    cells = tuple(
        RunSpec(
            kind=KIND_TRACKING,
            cell_id=f"{name}/{label}",
            params=base_params,
            scale=scale,
            controller=controller,
            scenario=scenario,
            label=label,
            **options,
        )
        for label, controller in controllers.items()
    )
    return SweepSpec(name=name, cells=cells)


# ----------------------------------------------------------------------
# synthetic tracking run (the Section 3 abstraction)
# ----------------------------------------------------------------------
def run_synthetic_tracking(controller: LoadController,
                           position_schedule: ParameterSchedule,
                           height_schedule: Optional[ParameterSchedule] = None,
                           steps: int = 400,
                           offered_load: float = math.inf,
                           noise_std: float = 0.0,
                           seed: int = 0,
                           interval: float = 1.0) -> TrackingResult:
    """Track a synthetic moving optimum (fast, exact reference)."""
    height = height_schedule or ConstantSchedule(100.0)
    scenario = DynamicOptimumScenario(position=position_schedule, height=height)
    plant = SyntheticSystem(
        scenario,
        controller,
        offered_load=offered_load,
        interval=interval,
        noise_std=noise_std,
        seed=seed,
    )
    plant.run(steps)
    peaks = [scenario.peak_at(t) for t in plant.trace.times]
    return TrackingResult(
        controller=controller.name,
        varied_parameter="synthetic-optimum",
        trace=plant.trace,
        reference_optima=list(plant.reference_optima),
        reference_peaks=peaks,
        total_commits=sum(int(round(p * interval)) for p in plant.trace.throughput),
        mean_response_time=0.0,
    )
