"""Crash-recovery: a service killed mid-job loses no cached work.

A real ``repro serve`` subprocess is armed with the test-only
``--exit-after-fills N`` fault injection (the service-side mirror of the
worker's ``--fail-after-cells``): it hard-exits (``os._exit(17)``, no
shutdown courtesies) the moment the Nth result lands in the cache — mid
job, with results in flight.  A second service is then started on the
*same cache directory*: resubmitting the job must re-simulate only the
cells the crash lost (exact hit/miss accounting), and the final results
document must be byte-identical to an uninterrupted in-process run.

With one worker, cells complete in submission order, so exactly the first
N cells are cached at the moment of death — the assertions below are
deterministic, not statistical.
"""

import subprocess
import sys

import pytest

from repro.canonical import canonical_json
from repro.dist.cluster import _worker_env
from repro.runner.cells import execute_run_spec
from repro.runner.executor import SerialExecutor
from repro.runner.specs import run_spec_fingerprint
from repro.svc.cache import ResultCache
from repro.svc.client import ServiceClient
from repro.svc.service import results_document, scenario_cells

SCENARIO = "thrashing"  # 3 cells: crash after 2 fills, recover the third
FILLS_BEFORE_CRASH = 2


def _start_serve(cache_dir, *extra_args):
    """Launch ``repro serve`` and scrape its bound addresses."""
    argv = [sys.executable, "-m", "repro", "serve",
            "--cache", str(cache_dir), "--local-workers", "1",
            *extra_args]
    process = subprocess.Popen(argv, env=_worker_env(),
                               stdout=subprocess.PIPE, text=True)
    addresses = {}
    for _ in range(2):  # "worker address: ..." then "control address: ..."
        line = process.stdout.readline()
        name, separator, value = line.strip().partition(" address: ")
        assert separator, f"unexpected serve output line: {line!r}"
        addresses[name] = value
    return process, addresses


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


def test_crash_mid_job_then_recovery_completes_byte_identically(cache_dir):
    cells = scenario_cells(SCENARIO)
    assert len(cells) == 3

    # --- phase 1: the service dies mid-job after exactly 2 cache fills
    crashing, addresses = _start_serve(
        cache_dir, "--exit-after-fills", str(FILLS_BEFORE_CRASH))
    try:
        ServiceClient(addresses["control"]).submit_scenario(SCENARIO)
        assert crashing.wait(timeout=120) == 17  # the injected hard exit
    finally:
        if crashing.poll() is None:
            crashing.kill()
            crashing.wait()

    # the atomic cache holds exactly the first N cells, nothing torn
    cache = ResultCache(cache_dir)
    assert cache.entries() == FILLS_BEFORE_CRASH
    for cell in cells[:FILLS_BEFORE_CRASH]:
        assert cache.path_for(run_spec_fingerprint(cell)).exists()
    assert not cache.path_for(run_spec_fingerprint(cells[-1])).exists()

    # --- phase 2: a fresh service on the same cache directory recovers
    recovered, addresses = _start_serve(cache_dir)
    try:
        client = ServiceClient(addresses["control"])
        job_id = client.submit_scenario(SCENARIO)
        status = client.wait(job_id, timeout=120.0)
        assert status["state"] == "done"
        # only the cell the crash lost is re-simulated
        assert status["cache_hits"] == FILLS_BEFORE_CRASH
        assert status["cache_misses"] == len(cells) - FILLS_BEFORE_CRASH
        document = client.results(job_id)

        # byte-identical to an uninterrupted (never-crashed) serial run
        uninterrupted = results_document(
            SCENARIO, SerialExecutor().execute(execute_run_spec, cells))
        assert canonical_json(document) == canonical_json(uninterrupted)

        client.shutdown()
        assert recovered.wait(timeout=60) == 0  # clean exit this time
    finally:
        if recovered.poll() is None:
            recovered.kill()
            recovered.wait()
