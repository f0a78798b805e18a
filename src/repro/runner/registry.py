"""Named experiment scenarios: the paper's evaluation grid by name.

Each scenario maps a name (``cc_compare``, ``deadlock_resolution``,
``displacement_policies``, ``fig12_stationary``, ``fig13_is_jump``,
``fig14_pa_jump``, ``flash_crowd``, ``isolation_tradeoff``,
``mixed_classes``, ``open_diurnal``, ``probe_calibration``, ``sinusoid``,
``thrashing``) to a builder that produces
the corresponding :class:`~repro.runner.specs.SweepSpec` for a given
:class:`~repro.experiments.config.ExperimentScale`.  Benchmarks, examples
and ad-hoc scripts all obtain their cells here, so "run Figure 12 at smoke
scale with 4 workers and 5 replicates" is one call:

>>> from repro.runner import run_sweep
>>> result = run_sweep("fig12_stationary", workers=4, replicates=5)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.cc.registry import CCSpec
from repro.core.displacement import DisplacementPolicy, VictimCriterion
from repro.experiments.config import (
    ExperimentScale,
    contention_bound_params,
    default_system_params,
)
from repro.experiments.dynamic import (
    jump_scenario,
    sinusoid_scenario,
    tracking_sweep_spec,
)
from repro.experiments.stationary import stationary_sweep_spec
from repro.runner.specs import ControllerSpec, SweepSpec
from repro.tp.arrivals import OpenArrivals, PartlyOpenArrivals
from repro.tp.params import SystemParams
from repro.tp.workload import JumpSchedule, SinusoidSchedule, TransactionClassSpec

#: a scenario builder produces the sweep for one named experiment
ScenarioBuilder = Callable[..., SweepSpec]


@dataclass(frozen=True)
class ScenarioDefinition:
    """A named, documented entry of the scenario registry."""

    name: str
    description: str
    builder: ScenarioBuilder

    def build(self, scale: Optional[ExperimentScale] = None,
              base_params: Optional[SystemParams] = None, **overrides) -> SweepSpec:
        """Build the sweep at the given scale (benchmark scale by default)."""
        return self.builder(scale or ExperimentScale.benchmark(), base_params,
                            **overrides)


_SCENARIOS: Dict[str, ScenarioDefinition] = {}


def register_scenario(name: str, description: str):
    """Register a scenario builder under ``name`` (decorator)."""

    def decorator(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in _SCENARIOS:
            raise ValueError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = ScenarioDefinition(name=name, description=description,
                                              builder=builder)
        return builder

    return decorator


def available_scenarios() -> Tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


def get_scenario(name: str) -> ScenarioDefinition:
    """Look up one scenario definition by name."""
    definition = _SCENARIOS.get(name)
    if definition is None:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        )
    return definition


def build_sweep(name: str, scale: Optional[ExperimentScale] = None,
                base_params: Optional[SystemParams] = None, **overrides) -> SweepSpec:
    """Build the sweep of a named scenario."""
    return get_scenario(name).build(scale=scale, base_params=base_params, **overrides)


# ----------------------------------------------------------------------
# controller parameterisations shared by the figure scenarios (these mirror
# the settings the corresponding benchmarks have always used; the stationary
# figures use the registered builders' defaults as-is)
# ----------------------------------------------------------------------
def _tracking_is() -> ControllerSpec:
    return ControllerSpec.make("incremental_steps", initial_limit=30, beta=0.5,
                               gamma=8, delta=20, min_step=4.0, lower_bound=4)


def _tracking_pa() -> ControllerSpec:
    return ControllerSpec.make("parabola", initial_limit=30, forgetting=0.85,
                               probe_amplitude=6.0, max_move=40.0, lower_bound=4)


def _stationary_cells(name: str, scale: ExperimentScale, base_params: SystemParams,
                      variants, **options) -> SweepSpec:
    """One stationary cell per (controller variant, offered load).

    ``options`` pass through :func:`stationary_sweep_spec` to every cell.
    """
    cells = []
    for label, controller in variants:
        cells.extend(
            stationary_sweep_spec(base_params, controller, scale, label, name=name,
                                  **options).cells
        )
    return SweepSpec(name=name, cells=tuple(cells))


# ----------------------------------------------------------------------
# the registered scenarios
# ----------------------------------------------------------------------
@register_scenario(
    "thrashing",
    "Figure 1: the uncontrolled load/throughput curve (rise, saturation, thrashing)",
)
def _thrashing(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    base = base_params or default_system_params()
    return _stationary_cells("thrashing", scale, base,
                             [("without control", None)])


@register_scenario(
    "fig12_stationary",
    "Figure 12: stationary throughput without control and under IS/PA control",
)
def _fig12_stationary(scale: ExperimentScale, base_params: Optional[SystemParams]) -> SweepSpec:
    base = base_params or default_system_params()
    return _stationary_cells("fig12_stationary", scale, base, [
        ("without control", None),
        ("IS control", ControllerSpec.make("incremental_steps")),
        ("PA control", ControllerSpec.make("parabola")),
    ])


def _jump_cells(name: str, scale: ExperimentScale, base_params: Optional[SystemParams],
                variants, jump_before: float, jump_after: float) -> SweepSpec:
    base = base_params or contention_bound_params(seed=17)
    scenario = jump_scenario("accesses", jump_before, jump_after,
                             jump_time=scale.tracking_horizon / 2.0)
    return tracking_sweep_spec(dict(variants), scenario, base_params=base,
                               scale=scale, name=name)


@register_scenario(
    "mixed_classes",
    "Mixed OLTP/query workload: two transaction classes with distinct size and "
    "write ratio, uncontrolled and under IS/PA control",
)
def _mixed_classes(scale: ExperimentScale, base_params: Optional[SystemParams],
                   oltp_weight: float = 0.75,
                   oltp_accesses: int = 4,
                   oltp_write_fraction: float = 0.6,
                   query_accesses: int = 20) -> SweepSpec:
    """The ROADMAP's "mixed OLTP/query classes" scenario.

    Small frequent updaters (the OLTP class) share the admission gate with
    long read-only queries; the defaults keep the *expected* transaction
    size at the standard configuration's ``k = 8``
    (``0.75 * 4 + 0.25 * 20``), so the same offered-load grid applies while
    the per-class contention profile differs sharply from the single-class
    figures.
    """
    if not 0.0 < oltp_weight < 1.0:
        raise ValueError(f"oltp_weight must be in (0, 1), got {oltp_weight}")
    base = base_params or default_system_params(seed=29)
    classes = (
        TransactionClassSpec(name="oltp", weight=oltp_weight,
                             accesses_per_txn=oltp_accesses,
                             write_fraction=oltp_write_fraction),
        TransactionClassSpec(name="long-query", weight=1.0 - oltp_weight,
                             accesses_per_txn=query_accesses,
                             write_fraction=0.0),
    )
    return _stationary_cells("mixed_classes", scale, base, [
        ("without control", None),
        ("IS control", ControllerSpec.make("incremental_steps")),
        ("PA control", ControllerSpec.make("parabola")),
    ], workload_classes=classes)


@register_scenario(
    "fig13_is_jump",
    "Figure 13: IS threshold trajectory under an abrupt transaction-size jump",
)
def _fig13_is_jump(scale: ExperimentScale, base_params: Optional[SystemParams],
                   jump_before: float = 4, jump_after: float = 16) -> SweepSpec:
    return _jump_cells("fig13_is_jump", scale, base_params,
                       [("IS", _tracking_is())], jump_before, jump_after)


@register_scenario(
    "fig14_pa_jump",
    "Figure 14: PA threshold trajectory on the Figure 13 jump, with the IS reference",
)
def _fig14_pa_jump(scale: ExperimentScale, base_params: Optional[SystemParams],
                   jump_before: float = 4, jump_after: float = 16) -> SweepSpec:
    return _jump_cells("fig14_pa_jump", scale, base_params,
                       [("PA", _tracking_pa()), ("IS", _tracking_is())],
                       jump_before, jump_after)


@register_scenario(
    "cc_compare",
    "Section 1's cross-scheme claim: 2PL vs OCC load/throughput curves, "
    "uncontrolled and under IS control, one labeled series per scheme",
)
def _cc_compare(scale: ExperimentScale, base_params: Optional[SystemParams],
                db_size: int = 1500,
                write_fraction: float = 0.6,
                victim_policy: str = "youngest") -> SweepSpec:
    """2PL vs OCC under identical workload, with and without load control.

    The paper simulates only the optimistic scheme but argues (Section 1)
    that adaptive load control applies to blocking schemes as well.  This
    scenario runs the same closed system under both registered CC schemes:
    the default configuration is tightened (smaller database, higher write
    fraction) so that *both* schemes exhibit the rise-then-fall curve
    within the standard offered-load grid — under the default parameters
    2PL merely saturates, because blocking wastes no work until deadlocks
    dominate.  Common random numbers across all four series: same seed,
    same workload streams, so curve differences are scheme effects.
    """
    base = base_params or default_system_params(seed=41)
    base = base.with_changes(workload=base.workload.with_changes(
        db_size=db_size, write_fraction=write_fraction))
    schemes = (
        ("OCC", CCSpec.make("timestamp_cert")),
        ("2PL", CCSpec.make("two_phase_locking", victim_policy=victim_policy)),
    )
    cells = []
    for scheme_label, cc in schemes:
        variants = [
            (f"{scheme_label} without control", None),
            (f"{scheme_label} IS control", ControllerSpec.make("incremental_steps")),
        ]
        cells.extend(_stationary_cells("cc_compare", scale, base, variants,
                                       cc=cc).cells)
    return SweepSpec(name="cc_compare", cells=tuple(cells))


@register_scenario(
    "deadlock_resolution",
    "The locking family side by side: deadlock detection vs wound-wait vs "
    "wait-die on the cc_compare workload, uncontrolled and under IS control, "
    "with per-reason abort counts surfaced per cell",
)
def _deadlock_resolution(scale: ExperimentScale, base_params: Optional[SystemParams],
                         db_size: int = 1500,
                         write_fraction: float = 0.6,
                         victim_policy: str = "youngest") -> SweepSpec:
    """All three strict-2PL conflict resolutions over one contended workload.

    The schemes share every line of lock-table machinery
    (:class:`~repro.cc.two_phase_locking.LockingScheme`) and differ only in
    how a conflict is resolved, so curve differences are pure
    resolution-policy effects: the detector aborts waits-for-cycle victims
    (``deadlock`` aborts), wound-wait restarts younger lock owners
    (``wound``), wait-die restarts younger requesters (``die``).  Every
    cell runs with ``scheme_diagnostics`` on, so the per-reason abort
    counts — and the ``TayModel`` reference tag of the locking family —
    appear in the cell metrics and are pinned by the scenario's golden
    fixture.  The workload is ``cc_compare``'s (db tightened to 1500
    granules, write fraction 0.6) so all three variants rise-then-fall
    inside the standard offered-load grid; common random numbers across
    the six series make the comparison paired.
    """
    base = base_params or default_system_params(seed=53)
    base = base.with_changes(workload=base.workload.with_changes(
        db_size=db_size, write_fraction=write_fraction))
    schemes = (
        ("detect", CCSpec.make("two_phase_locking", victim_policy=victim_policy)),
        ("wound-wait", CCSpec.make("wound_wait")),
        ("wait-die", CCSpec.make("wait_die")),
    )
    cells = []
    for scheme_label, cc in schemes:
        variants = [
            (f"{scheme_label} without control", None),
            (f"{scheme_label} IS control", ControllerSpec.make("incremental_steps")),
        ]
        cells.extend(_stationary_cells("deadlock_resolution", scale, base, variants,
                                       cc=cc, scheme_diagnostics=True).cells)
    return SweepSpec(name="deadlock_resolution", cells=tuple(cells))


@register_scenario(
    "isolation_tradeoff",
    "The isolation trade-off: strict 2PL vs backward OCC vs snapshot "
    "isolation on one contended workload, uncontrolled and under IS control, "
    "with per-kind anomaly counts surfaced per cell",
)
def _isolation_tradeoff(scale: ExperimentScale, base_params: Optional[SystemParams],
                        db_size: int = 800,
                        write_fraction: float = 0.6,
                        victim_policy: str = "youngest") -> SweepSpec:
    """What weakening the isolation level buys — and what it costs.

    Three schemes run the same closed system under common random numbers:
    strict 2PL and backward-validation OCC, which certify at
    ``serializable``, and multiversion snapshot isolation, which certifies
    only at ``snapshot_isolation``.  Every cell runs with both
    ``scheme_diagnostics`` and ``isolation_diagnostics`` on, so the
    committed history of each run flows through the isolation oracle
    (:mod:`repro.cc.history`) and the per-kind ``anomalies_<kind>`` counts
    land in the cell metrics, pinned by the scenario's golden fixture.
    The workload is tightened (800 granules, write fraction 0.6) until SI
    actually exhibits write skew at every offered load of the standard
    grid while the serializable schemes stay anomaly-free — making the
    trade concrete: SI's non-blocking reads and first-committer-wins
    writes buy it markedly higher throughput deep in the contention
    regime, paid for in precisely those write-skew anomalies.
    """
    base = base_params or default_system_params(seed=61)
    base = base.with_changes(workload=base.workload.with_changes(
        db_size=db_size, write_fraction=write_fraction))
    schemes = (
        ("2PL", CCSpec.make("two_phase_locking", victim_policy=victim_policy)),
        ("OCC", CCSpec.make("timestamp_cert")),
        ("SI", CCSpec.make("snapshot_isolation")),
    )
    cells = []
    for scheme_label, cc in schemes:
        variants = [
            (f"{scheme_label} without control", None),
            (f"{scheme_label} IS control", ControllerSpec.make("incremental_steps")),
        ]
        cells.extend(_stationary_cells("isolation_tradeoff", scale, base, variants,
                                       cc=cc, scheme_diagnostics=True,
                                       isolation_diagnostics=True).cells)
    return SweepSpec(name="isolation_tradeoff", cells=tuple(cells))


@register_scenario(
    "probe_calibration",
    "The observability loop closed: a contended 2PL sweep with every built-in "
    "probe on, whose measured lock-wait share calibrates the Tay reference",
)
def _probe_calibration(scale: ExperimentScale, base_params: Optional[SystemParams],
                       db_size: int = 1500,
                       write_fraction: float = 0.6,
                       victim_policy: str = "youngest") -> SweepSpec:
    """A probed 2PL sweep: the source data of Tay-model calibration.

    The ``cc_compare`` workload tightening (1500 granules, write fraction
    0.6) is reused so two-phase locking actually blocks — and therefore
    has a measurable waiting share — at the standard offered-load grid.
    Every cell opts into the six probes this scenario has always carried
    (the explicit tuple below, frozen rather than ``PROBE_NAMES`` so later
    probe additions — like the open-system ``arrival_backlog`` gauge —
    cannot silently widen this scenario's pinned metric schema), so the
    golden fixture pins the complete ``probe_<name>`` metric surface:
    lock-wait statistics, the measured waiting share that
    :func:`repro.obs.calibration.measured_wait_share`
    feeds into the Tay reference, queue-depth and MPL trajectories, and the
    per-reason abort rates.  Probes observe without perturbing, so the
    throughput columns of this scenario are exactly what an unprobed run
    of the same cells produces — a property the probe test suite asserts.
    """
    base = base_params or default_system_params(seed=47)
    base = base.with_changes(workload=base.workload.with_changes(
        db_size=db_size, write_fraction=write_fraction))
    cc = CCSpec.make("two_phase_locking", victim_policy=victim_policy)
    probes = ("lock_wait", "lock_queue", "admission_queue", "mpl",
              "abort_rates", "displacement")
    return _stationary_cells("probe_calibration", scale, base, [
        ("without control", None),
        ("IS control", ControllerSpec.make("incremental_steps")),
    ], cc=cc, scheme_diagnostics=True, probes=probes)


@register_scenario(
    "displacement_policies",
    "Section 4.3: enforcing a threshold drop by displacement — one IS tracking "
    "run per victim-selection criterion on a downward jump of the optimum",
)
def _displacement_policies(scale: ExperimentScale,
                           base_params: Optional[SystemParams],
                           jump_before: float = 4,
                           jump_after: float = 16,
                           db_size: int = 500,
                           hysteresis: float = 1.0) -> SweepSpec:
    """Victim-criterion sweep over :class:`~repro.core.displacement.VictimCriterion`.

    Section 4.3's motivation is *responsiveness*: when the workload turns
    hostile, admission control alone can only wait for departures, while
    displacement enforces the lowered threshold immediately.  Here the
    transaction size jumps 4 -> 16 over a small database (500 granules),
    so the system the controller tuned during the first half (IS holding
    ~100 concurrent transactions) is suddenly deep in data-contention
    thrashing (``k^2 n / D`` jumps from ~3 to ~50).  With displacement the
    controller's downward probes take effect at once (every cell with a
    policy records a positive ``displaced`` count); without it the
    overloaded system can only drain by completions.  One cell runs pure
    admission control (``no displacement``) and one cell per victim
    criterion; all share seed and controller parameterisation, so the
    trajectories differ only in *which* transactions are sacrificed —
    the exact trajectories are pinned by the scenario's golden fixture.
    """
    base = base_params or contention_bound_params(seed=31)
    base = base.with_changes(workload=base.workload.with_changes(db_size=db_size))
    scenario = jump_scenario("accesses", jump_before, jump_after,
                             jump_time=scale.tracking_horizon / 2.0)
    controller = ControllerSpec.make("incremental_steps", initial_limit=100,
                                     beta=0.5, gamma=8, delta=20, min_step=4.0,
                                     lower_bound=4)
    variants = [("no displacement", None)]
    variants.extend(
        (criterion.value, DisplacementPolicy(criterion, hysteresis=hysteresis))
        for criterion in VictimCriterion
    )
    cells = []
    for label, displacement in variants:
        cells.extend(
            tracking_sweep_spec({label: controller}, scenario,
                                base_params=base, scale=scale,
                                name="displacement_policies",
                                displacement=displacement).cells
        )
    return SweepSpec(name="displacement_policies", cells=tuple(cells))


@register_scenario(
    "sinusoid",
    "Section 9: IS and PA tracking a sinusoidal transaction-size variation",
)
def _sinusoid(scale: ExperimentScale, base_params: Optional[SystemParams],
              mean: float = 10.0, amplitude: float = 6.0) -> SweepSpec:
    base = base_params or contention_bound_params(seed=23)
    scenario = sinusoid_scenario("accesses", mean=mean, amplitude=amplitude,
                                 period=scale.tracking_horizon / 2.0)
    variants = {
        "IS": ControllerSpec.make("incremental_steps", initial_limit=40, beta=0.5,
                                  gamma=8, delta=20, min_step=4.0, lower_bound=4),
        "PA": ControllerSpec.make("parabola", initial_limit=40, forgetting=0.85,
                                  probe_amplitude=6.0, max_move=40.0, lower_bound=4),
    }
    return tracking_sweep_spec(variants, scenario, base_params=base,
                               scale=scale, name="sinusoid")


@register_scenario(
    "open_diurnal",
    "Open-system arrivals: a diurnal (sinusoid) Poisson arrival rate over the "
    "IS-controlled 2PL system, with response-time tail percentiles per cell",
)
def _open_diurnal(scale: ExperimentScale, base_params: Optional[SystemParams],
                  rate_per_load: float = 0.25,
                  relative_amplitude: float = 0.6,
                  victim_policy: str = "youngest") -> SweepSpec:
    """The diurnal open-system sweep: arrival rate replaces the terminal count.

    Every cell runs the :class:`~repro.tp.arrivals.OpenArrivals` source —
    transactions arrive in a nonhomogeneous Poisson stream whose rate
    follows a sinusoid ("daily" load swings compressed into the simulated
    horizon) — instead of the closed terminal loop.  The offered-load axis
    scales the *mean arrival rate* (``rate_per_load`` transactions per
    simulated second per offered-load unit) the way the closed sweeps
    scale the terminal count, so the familiar grid now spans under-load
    through sustained overload: past the saturation point the backlog
    grows through each diurnal peak and the tail percentiles — pinned per
    cell as ``p95_response_time``/``p99_response_time`` — separate sharply
    from the mean.  The concurrency-control scheme is blocking 2PL under
    IS control (with the uncontrolled series as the reference), and every
    cell carries the ``arrival_backlog`` probe, whose growth-vs-bounded
    trajectory is exactly the open-system thrashing signature.
    """
    base = base_params or default_system_params(seed=67)
    cc = CCSpec.make("two_phase_locking", victim_policy=victim_policy)
    period = scale.stationary_horizon / 2.0

    def diurnal(offered_load: int) -> OpenArrivals:
        mean = rate_per_load * offered_load
        return OpenArrivals(SinusoidSchedule(
            mean=mean, amplitude=relative_amplitude * mean, period=period))

    return _stationary_cells("open_diurnal", scale, base, [
        ("without control", None),
        ("IS control", ControllerSpec.make("incremental_steps")),
    ], cc=cc, probes=("arrival_backlog",), arrivals=diurnal)


@register_scenario(
    "flash_crowd",
    "Partly-open flash crowd: a session arrival-rate jump against two tenants "
    "with admission/queue quotas — load control must shed the bursting tenant "
    "while the steady tenant keeps its SLO",
)
def _flash_crowd(scale: ExperimentScale, base_params: Optional[SystemParams],
                 rate_per_load: float = 0.10,
                 surge_factor: float = 3.5,
                 burst_admission_quota: int = 6,
                 burst_queue_quota: int = 6) -> SweepSpec:
    """Two tenants, one flash crowd, and the quota machinery between them.

    The arrival source is :class:`~repro.tp.arrivals.PartlyOpenArrivals`:
    *sessions* arrive in a Poisson stream and each issues a bounded-Pareto
    number of transactions with a short think time in between — the
    partly-open middle ground that models real front-ends better than
    either pure closed or pure open.  Midway through the measured window
    the session arrival rate jumps by ``surge_factor`` (the flash crowd).
    Two transaction classes act as tenants: ``steady`` (25 % of
    submissions, no quotas — it is never busy-signaled, at any scale) and
    ``burst`` (75 % of submissions, tight admission *and* queue quotas).
    When the crowd hits, the gate's per-tenant quotas make the admission
    decision discriminating: ``burst`` arrivals beyond quota are shed
    outright (``tenant_shed_burst``) while ``steady`` keeps flowing, so
    the steady tenant's pinned ``tenant_p95_response_time_steady`` stays
    within SLO as the burst tenant's tail blows out — the per-tenant
    assertion the golden suite makes on this scenario.  IS control runs
    against the uncontrolled reference under common random numbers.
    """
    base = base_params or default_system_params(seed=71)
    classes = (
        TransactionClassSpec(name="steady", weight=0.25, accesses_per_txn=8,
                             write_fraction=0.3),
        TransactionClassSpec(name="burst", weight=0.75, accesses_per_txn=8,
                             write_fraction=0.3,
                             admission_quota=burst_admission_quota,
                             queue_quota=burst_queue_quota),
    )
    jump_time = scale.warmup + scale.stationary_horizon / 2.0

    def crowd(offered_load: int) -> PartlyOpenArrivals:
        before = rate_per_load * offered_load
        return PartlyOpenArrivals(
            JumpSchedule(before=before, after=surge_factor * before,
                         jump_time=jump_time),
            session_alpha=1.5, min_session=1, max_session=20,
            session_think_time=0.05)

    return _stationary_cells("flash_crowd", scale, base, [
        ("without control", None),
        ("IS control", ControllerSpec.make("incremental_steps")),
    ], workload_classes=classes, arrivals=crowd)
