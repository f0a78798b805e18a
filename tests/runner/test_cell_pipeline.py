"""One cell pipeline: every cell feature works on tracking cells too.

Stationary and tracking cells are lowered by the same builder and run by
the same loop (:mod:`repro.runner.cells`), so the opt-in metric groups —
scheme diagnostics, isolation diagnostics, probes, the arrivals SLO block —
are available on tracking cells, and the observation-only ones leave the
tracked trajectory untouched.  The tracking reference optimum is
scheme-aware and solved exactly once per distinct workload.
"""

import pytest

from repro.analytic.occ import OccModel
from repro.analytic.tay import TayThroughputModel
from repro.cc import ANOMALY_KINDS, AbortReason, CCSpec
from repro.core.displacement import DisplacementPolicy, VictimCriterion
from repro.core.incremental_steps import IncrementalStepsController
from repro.experiments.config import ExperimentScale, default_system_params
from repro.experiments.dynamic import jump_scenario, run_tracking_experiment, sinusoid_scenario
from repro.experiments.stationary import stationary_sweep_spec
from repro.obs.probes import PROBE_NAMES
from repro.runner import run_sweep, stationary_sweeps
from repro.runner.cells import execute_run_spec
from repro.runner.specs import KIND_TRACKING, ControllerSpec, RunSpec
from repro.sim.random_streams import RandomStreams
from repro.tp.arrivals import OpenArrivals
from repro.tp.params import WorkloadParams
from repro.tp.workload import TransactionClassSpec, Workload


def tiny_params(seed: int = 5):
    return default_system_params(seed=seed).with_changes(
        n_terminals=60, n_cpus=2,
        workload=WorkloadParams(db_size=400, accesses_per_txn=4,
                                query_fraction=0.25, write_fraction=0.5))


def tiny_scale(tracking_horizon: float = 12.0, interval: float = 1.5):
    return ExperimentScale(
        stationary_horizon=3.0, warmup=0.5, offered_loads=(40,),
        tracking_horizon=tracking_horizon, measurement_interval=interval,
        synthetic_steps=30)


def tracking_spec(**fields) -> RunSpec:
    settings = dict(
        kind=KIND_TRACKING,
        cell_id="pipeline/tracking",
        params=tiny_params(),
        scale=tiny_scale(),
        controller=ControllerSpec.make("incremental_steps", initial_limit=5,
                                       gamma=3, delta=6),
        scenario=jump_scenario("accesses", 4, 8, jump_time=6.0),
    )
    settings.update(fields)
    return RunSpec(**settings)


def workload_at(params, scenario, time):
    """The workload parameters a scenario puts in effect at ``time``."""
    parameter, schedule = scenario
    workload = Workload.with_schedules(params.workload, RandomStreams(0),
                                       **{parameter: schedule})
    return workload.params_at(time)


#: feature -> (RunSpec fields, the metric keys it must add, trajectory-preserving?)
FEATURES = {
    "scheme_diagnostics": (
        {"scheme_diagnostics": True},
        [f"aborts_{reason.value}" for reason in AbortReason], True),
    "isolation_diagnostics": (
        {"isolation_diagnostics": True},
        [f"anomalies_{kind}" for kind in ANOMALY_KINDS], True),
    "probes": (
        {"probes": PROBE_NAMES},
        ["probe_lock_wait_share", "probe_lock_queue_mean",
         "probe_admission_queue_mean", "probe_mpl_mean",
         "probe_abort_rate_certification", "probe_displacement_count",
         "probe_arrival_backlog_mean"], True),
    "arrivals": (
        {"arrivals": OpenArrivals(30.0)},
        ["p95_response_time", "p99_response_time", "shed"], False),
}


@pytest.fixture(scope="module")
def plain_tracking_cell():
    return execute_run_spec(tracking_spec())


class TestTrackingCellsAcceptEveryFeature:
    @pytest.mark.parametrize("feature", sorted(FEATURES))
    def test_tracking_cell_reports_the_feature_group(self, feature, plain_tracking_cell):
        fields, keys, preserving = FEATURES[feature]
        result = execute_run_spec(tracking_spec(**fields))
        assert result.payload.trace.times
        for key in keys:
            assert key in result.metrics, key
        if preserving:
            for key, value in plain_tracking_cell.metrics.items():
                assert result.metrics[key] == value, key
            assert result.payload.trace.limits == plain_tracking_cell.payload.trace.limits

    def test_scheme_diagnostics_name_the_tracking_reference(self):
        result = execute_run_spec(tracking_spec(
            scheme_diagnostics=True, cc=CCSpec.make("two_phase_locking")))
        assert result.model_reference == "TayModel"

    def test_a_scenario_and_workload_classes_still_conflict(self):
        classes = (TransactionClassSpec(name="only", weight=1.0,
                                        accesses_per_txn=4, write_fraction=0.5),)
        with pytest.raises(ValueError, match="cannot be combined"):
            tracking_spec(workload_classes=classes)


class TestSchemeAwareTrackingReference:
    def test_two_phase_locking_cells_track_the_tay_optimum(self):
        cc = CCSpec.make("two_phase_locking")
        spec = tracking_spec(cc=cc)
        result = execute_run_spec(spec).payload
        assert result.reference_optima
        differs_from_occ = False
        for time, optimum, peak in zip(result.trace.times, result.reference_optima,
                                       result.reference_peaks):
            current = workload_at(spec.params, spec.scenario, time)
            model = TayThroughputModel(spec.params.with_changes(workload=current),
                                       workload=current)
            expected = float(model.optimal_mpl())
            assert optimum == expected
            assert peak == float(model.throughput(expected))
            occ = OccModel(spec.params.with_changes(workload=current), current)
            differs_from_occ |= optimum != float(occ.optimal_mpl())
        assert differs_from_occ

    def test_every_distinct_workload_gets_its_exact_optimum(self):
        """No reference budget: a 20+-key sinusoid is solved per key."""
        params = tiny_params()
        scenario = sinusoid_scenario("query_fraction", mean=0.4, amplitude=0.3,
                                     period=17.0)
        controller = IncrementalStepsController(initial_limit=5, upper_bound=60,
                                                gamma=3, delta=6)
        result = run_tracking_experiment(controller, scenario, base_params=params,
                                         scale=tiny_scale(tracking_horizon=30.0,
                                                          interval=1.0))
        keys = [workload_at(params, scenario, time) for time in result.trace.times]
        assert len(set(keys)) > 20
        for current, optimum, peak in zip(keys, result.reference_optima,
                                          result.reference_peaks):
            model = OccModel(params.with_changes(workload=current), current)
            expected = float(model.optimal_mpl())
            assert optimum == expected
            # the optimum sits at CPU saturation here; the peak moves with
            # the query fraction
            assert peak == float(model.throughput(expected))


class TestDirectTrackingAdapter:
    def test_the_callers_displacement_policy_is_the_one_driven(self):
        spec = tracking_spec(
            params=tiny_params().with_changes(n_terminals=120),
            controller=ControllerSpec.make("incremental_steps", initial_limit=100,
                                           gamma=3, delta=6, min_step=4.0),
            scenario=jump_scenario("accesses", 4, 16, jump_time=6.0),
            displacement=DisplacementPolicy(VictimCriterion.YOUNGEST))
        reference = execute_run_spec(spec)
        # the runner path runs a copy and leaves the spec's policy untouched
        assert spec.displacement.total_displaced == 0
        assert reference.metrics["displaced"] > 0
        policy = DisplacementPolicy(VictimCriterion.YOUNGEST)
        run_tracking_experiment(spec.build_controller(), spec.scenario,
                                base_params=spec.params, scale=spec.scale,
                                displacement=policy)
        assert policy.total_displaced == reference.metrics["displaced"]


class TestReplicatedSloFields:
    def test_replicate_means_keep_the_slo_block(self):
        classes = (
            TransactionClassSpec(name="steady", weight=0.5, accesses_per_txn=4,
                                 write_fraction=0.3),
            TransactionClassSpec(name="burst", weight=0.5, accesses_per_txn=4,
                                 write_fraction=0.3, queue_quota=3),
        )
        spec = stationary_sweep_spec(tiny_params(), scale=tiny_scale(),
                                     name="slo_fold", label="open",
                                     workload_classes=classes,
                                     arrivals=OpenArrivals(60.0))
        result = run_sweep(spec, replicates=2)
        (sweep,) = stationary_sweeps(result, include_model_reference=False).values()
        (point,) = sweep.points
        (aggregate,) = result.aggregates
        means = {name: summary.mean for name, summary in aggregate.metrics.items()}
        assert means["p95_response_time"] > 0.0
        assert point.p95_response_time == means["p95_response_time"]
        assert point.p99_response_time == means["p99_response_time"]
        assert point.shed == int(round(means["shed"]))
        assert point.tenant_metrics == {name: value for name, value in means.items()
                                        if name.startswith("tenant_")}
        assert "tenant_p95_response_time_steady" in point.tenant_metrics
