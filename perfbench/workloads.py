"""The benchmark's workloads: which cells run, how, and how results are checked.

* ``tracking`` — six long OCC tracking cells (IS and PA on a jump and on
  a sinusoid, IS with two displacement criteria) run serially in-process.
* ``contended`` — every cell of the four locking/isolation scenarios run
  serially in-process.
* ``service`` — every stationary cell submitted as one job to a
  ``SweepService`` with a fresh on-disk cache and two local worker
  processes; one cold job, then a closed loop of warm jobs.

The seed is an offset added to every cell's ``params.seed``; offset 0
runs the registered seeds, where every cell must reproduce its golden
fixture under ``tests/golden/`` bit for bit.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import heapq
import json
import math
import os
import pickle
import random
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.canonical import canonical_json, sanitize
from repro.experiments.config import ExperimentScale
from repro.runner.cells import execute_run_spec
from repro.runner.registry import available_scenarios, build_sweep
from repro.runner.specs import KIND_STATIONARY, RunSpec

WORKLOADS = ("tracking", "contended", "service")

#: both controllers on both schedules, plus two displacement criteria
#: (all ten tracking cells take 15-40 s a pass, too long for one run)
TRACKING_CELLS = ("displacement_policies/youngest", "displacement_policies/least_work",
                  "fig13_is_jump/IS", "fig14_pa_jump/PA", "sinusoid/IS", "sinusoid/PA")
CONTENDED_SCENARIOS = ("cc_compare", "deadlock_resolution", "isolation_tradeoff",
                       "probe_calibration")
SERVICE_WORKERS = 2
WARM_JOBS = 50
JOB_TIMEOUT_S = 170.0
#: the calibration workloads' times on the reference host (see ``HostSpeed``)
LOOP_REFERENCE_S = 0.015
QUEUE_REFERENCE_S = 0.010
#: least time between two calibrations
CALIBRATION_INTERVAL_S = 0.25


def calibration_loop_s() -> float:
    """Time a fixed pure-Python loop of dict updates and integer arithmetic."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(150_000):
        key = i % 97
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - started


def calibration_queue_s() -> float:
    """Time a fixed toy closed queueing model: generators, a heap, a lock dict.

    150 terminals each run 12 transactions (think, lock four of 500 items,
    queue for one of two servers, release) through a heap of pending
    resumptions, in the style of the program's engine but sharing none of
    its code.
    """
    started = time.perf_counter()
    rng = random.Random(7)
    heap: List[tuple] = []
    waiting: collections.deque = collections.deque()
    locks: Dict[int, int] = {}
    busy = seq = 0

    def terminal():
        for _ in range(12):
            yield rng.expovariate(1.0)
            items = [rng.randrange(500) for _ in range(4)]
            for item in items:
                locks[item] = locks.get(item, 0) + 1
            yield "acquire"
            yield rng.expovariate(4.0)
            for item in items:
                locks[item] -= 1
            yield "release"

    processes = [terminal() for _ in range(150)]
    for index in range(len(processes)):
        heap.append((0.0, index, index))
    seq = len(processes)
    while heap:
        now, _, index = heapq.heappop(heap)
        try:
            step = next(processes[index])
        except StopIteration:
            continue
        if step == "acquire":
            if busy < 2:
                busy += 1
            else:
                waiting.append(index)
                continue
        elif step == "release":
            if waiting:
                seq += 1
                heapq.heappush(heap, (now, seq, waiting.popleft()))
            else:
                busy -= 1
        else:
            now += step
        seq += 1
        heapq.heappush(heap, (now, seq, index))
    return time.perf_counter() - started


class HostSpeed:
    """How fast the host runs during a run, from two calibration workloads.

    The hosts this benchmark runs on are shared, and their speed drifts by
    tens of percent, up to 2x, within minutes.  :meth:`sample` times
    :func:`calibration_loop_s` and :func:`calibration_queue_s` between
    measurements, while the program is idle, at most once per
    ``CALIBRATION_INTERVAL_S``.  :meth:`scale` is the factor that brings a
    time measured in this run to the reference host: the geometric mean of
    each workload's reference time over its median sample.  Neither
    workload uses the program's code, and the garbage collector is off
    while they run, so a change to the program cannot move the scale.
    Each alone tracked the simulation's speed changes imperfectly (the
    loop under-corrected a crowded host, the queueing model is noisier),
    so the scale averages the two.
    """

    def __init__(self):
        self.loop: List[float] = []
        self.queue: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            # a collection would traverse the program's heap, whose size a
            # program change may move; with it off the calibrations see
            # only the host
            gc.disable()
            try:
                self.loop.append(calibration_loop_s())
                self.queue.append(calibration_queue_s())
            finally:
                gc.enable()
            self._last = time.perf_counter()

    def scale(self) -> float:
        return math.sqrt(LOOP_REFERENCE_S / statistics.median(self.loop)
                         * QUEUE_REFERENCE_S / statistics.median(self.queue))


class CellChecks:
    """Counts cells attempted and failed, with the first failure messages."""

    def __init__(self, golden: Optional[Dict[str, str]]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def fail(self, cell_id: str, reason: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{cell_id}: {reason}")

    def check(self, cell_id: str, metrics: dict, reference: Optional[str] = None) -> str:
        """Check one cell's metrics; returns their canonical JSON."""
        self.attempted += 1
        encoded = canonical_json(sanitize(metrics))
        if not metrics.get("commits", 0) > 0:
            self.fail(cell_id, "no commits")
        elif self.golden is not None and encoded != self.golden.get(cell_id):
            self.fail(cell_id, "metrics differ from the golden fixture")
        elif reference is not None and encoded != reference:
            self.fail(cell_id, "metrics differ from the first run of the cell")
        return encoded


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
def stationary_scenarios() -> List[str]:
    """Registered scenarios whose smoke cells are all stationary."""
    smoke = ExperimentScale.smoke()
    return [name for name in available_scenarios()
            if all(cell.kind == KIND_STATIONARY
                   for cell in build_sweep(name, scale=smoke).cells)]


def workload_scenarios(workload: str) -> List[str]:
    if workload == "tracking":
        return sorted({cell_id.split("/")[0] for cell_id in TRACKING_CELLS})
    if workload == "contended":
        return list(CONTENDED_SCENARIOS)
    if workload == "service":
        return stationary_scenarios()
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def build_cells(workload: str, seed: int) -> List[RunSpec]:
    """The workload's smoke-scale cells with every seed offset by ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    smoke = ExperimentScale.smoke()
    cells = [cell for name in workload_scenarios(workload)
             for cell in build_sweep(name, scale=smoke).cells]
    if workload == "tracking":
        by_id = {cell.cell_id: cell for cell in cells}
        cells = [by_id[cell_id] for cell_id in TRACKING_CELLS]
    if seed:
        cells = [dataclasses.replace(
            cell, params=dataclasses.replace(cell.params, seed=cell.params.seed + seed))
            for cell in cells]
    return cells


def load_golden(golden_dir: Path, cells: List[RunSpec]) -> Dict[str, str]:
    """cell_id -> canonical JSON of the golden metrics, for these cells."""
    golden = {}
    for name in sorted({cell.cell_id.split("/")[0] for cell in cells}):
        payload = json.loads((golden_dir / f"{name}.json").read_text(encoding="utf-8"))
        for cell in payload["cells"]:
            golden[cell["cell_id"]] = canonical_json(cell["metrics"])
    return golden


# ----------------------------------------------------------------------
# in-process passes (tracking, contended)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PassResult:
    #: the cells' summed execution time
    wall_s: float
    commits: float
    cell_walls: Dict[str, float]
    metrics: Dict[str, str]


def run_pass(cells: List[RunSpec], checks: CellChecks,
             reference: Optional[Dict[str, str]] = None,
             speed: Optional[HostSpeed] = None) -> PassResult:
    """Run every cell serially in this process, checking each result.

    ``speed`` is sampled between cells; its time stays out of the walls.
    """
    clock = time.perf_counter
    walls, encoded = {}, {}
    commits = 0.0
    for cell in cells:
        if speed is not None:
            speed.sample()
        cell_started = clock()
        try:
            result = execute_run_spec(cell)
        except Exception as exc:  # a raising cell is a counted failure
            checks.attempted += 1
            checks.fail(cell.cell_id, f"raised {type(exc).__name__}: {exc}")
            continue
        walls[cell.cell_id] = clock() - cell_started
        # suspended lifecycle generators left at the horizon release their
        # resources when collected; collecting here keeps that work (and
        # its traced counts) with the cell that made it
        gc.collect()
        commits += result.metrics.get("commits", 0.0)
        encoded[cell.cell_id] = checks.check(
            cell.cell_id, result.metrics,
            None if reference is None else reference.get(cell.cell_id))
    return PassResult(sum(walls.values()), commits, walls, encoded)


# ----------------------------------------------------------------------
# the sweep service (service)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ServiceRep:
    cold_wall_s: float
    cold_commits: float
    cold_misses: int
    warm_hits: int
    warm_latencies_s: List[float]
    worker_peak_kib: List[int]
    #: cell_id -> canonical JSON of the cold job's metrics
    metrics: Dict[str, str]
    #: pickled size of the cold job's results (measured when asked for)
    result_bytes: int = 0


def _peak_rss_kib(pid: int) -> int:
    """VmHWM of a live process, 0 where /proc is unavailable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _run_job(service, client, cells: List[RunSpec], checks: CellChecks):
    """Submit over TCP, wait in-process, fetch the results document over TCP.

    A job that does not finish counts every cell as failed and gives None.
    """
    job_id = client.submit("stationary", cells)
    status = service.wait(job_id, timeout=JOB_TIMEOUT_S)
    if status["state"] != "done":
        checks.attempted += len(cells)
        checks.failed += len(cells)
        checks.messages.append(f"{job_id} {status['state']}: {status.get('error')}")
        return None
    return job_id, status, client.results(job_id)


def run_service_rep(cells: List[RunSpec], checks: CellChecks, work_dir: Path,
                    reference: Optional[Dict[str, str]] = None,
                    warm_jobs: int = WARM_JOBS, after_cold=None,
                    measure_bytes: bool = False,
                    speed: Optional[HostSpeed] = None) -> ServiceRep:
    """Start a service on a fresh cache, run one cold and ``warm_jobs`` warm jobs.

    The cold job's cells are checked against ``reference`` (an earlier
    repetition's ``metrics``) as well as the golden fixtures.
    ``after_cold`` is called once the cold job is done (the tracer uses it
    to split cold from warm counts).  ``speed`` is sampled between jobs.
    """
    def sample_speed() -> None:
        if speed is not None:
            speed.sample()

    # imported here so the in-process workloads' set-up leaves them out
    from repro.dist.cluster import spawn_local_workers
    from repro.svc.client import ServiceClient
    from repro.svc.service import SweepService

    clock = time.perf_counter
    n = len(cells)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work_dir))
    service = SweepService(cache=cache_dir)
    workers = []
    try:
        workers = spawn_local_workers(service.worker_address, SERVICE_WORKERS)
        service.executor.wait_for_workers(SERVICE_WORKERS, timeout=60.0)
        client = ServiceClient(service.control_address)

        sample_speed()
        started = clock()
        cold = _run_job(service, client, cells, checks)
        cold_wall_s = clock() - started
        cold_commits, cold_misses, metrics, result_bytes = 0.0, 0, {}, 0
        if cold is not None:
            job_id, status, doc = cold
            cold_misses = status["cache_misses"]
            counts_wrong = (status["cache_hits"], cold_misses) != (0, n)
            for cell in doc["cells"]:
                cell_id = cell["cell_id"]
                cold_commits += cell["metrics"].get("commits", 0.0)
                if counts_wrong:
                    checks.attempted += 1
                    checks.fail(cell_id, f"cold job hit/miss {status['cache_hits']}/"
                                f"{cold_misses}, expected 0/{n}")
                else:
                    metrics[cell_id] = checks.check(
                        cell_id, cell["metrics"],
                        None if reference is None else reference.get(cell_id))
            cold_doc = canonical_json(doc)
            if measure_bytes:
                result_bytes = sum(len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
                                   for result in client.result_cells(job_id))
        if after_cold is not None:
            after_cold()

        latencies, warm_hits = [], 0
        for _ in range(warm_jobs if cold is not None else 0):
            sample_speed()
            started = clock()
            warm = _run_job(service, client, cells, checks)
            if warm is None:
                continue
            latencies.append(clock() - started)
            _, status, doc = warm
            checks.attempted += n
            warm_hits = status["cache_hits"]
            if (warm_hits, status["cache_misses"]) != (n, 0):
                checks.failed += n
                checks.messages.append(f"warm job hit/miss {warm_hits}/"
                                       f"{status['cache_misses']}, expected {n}/0")
            elif canonical_json(doc) != cold_doc:
                checks.failed += n
                checks.messages.append("warm results document differs from the cold one")
        worker_peaks = [_peak_rss_kib(worker.pid) for worker in workers]
    finally:
        service.close()
        for worker in workers:
            try:
                worker.wait(timeout=15)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return ServiceRep(cold_wall_s, cold_commits, cold_misses, warm_hits, latencies,
                      worker_peaks, metrics, result_bytes)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: List[float]) -> float:
    return statistics.median(values)


def work_dir(root: Path) -> Path:
    """A fresh scratch directory inside the checkout, for caches and spans."""
    base = root / ".perfbench-work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base))
