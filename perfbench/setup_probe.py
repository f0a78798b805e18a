"""Time the benchmark's set-up once, in a fresh interpreter.

Set-up is importing the program, building the workload's cells and, for
the ``service`` workload, starting a sweep service on an empty cache with
both local workers connected.  Prints the CPU seconds it took: this
process's and, on ``service``, its two workers'.  ``run.py`` runs this
many times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD WORK_DIR
"""

import time

STARTED = time.process_time()

import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str, work_dir: str) -> float:
    import workloads

    workloads.build_cells(workload, 0)
    if workload != "service":
        return time.process_time() - STARTED
    from repro.dist.cluster import spawn_local_workers
    from repro.svc.service import SweepService

    service = SweepService(cache=work_dir)
    workers = []
    try:
        workers = spawn_local_workers(service.worker_address, workloads.SERVICE_WORKERS)
        service.executor.wait_for_workers(workloads.SERVICE_WORKERS, timeout=60.0)
        ready = time.process_time() - STARTED
    finally:
        service.close()
        for worker in workers:
            try:
                worker.wait(timeout=15)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
    # the reaped workers' CPU time: their start-up, and a short shutdown
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ready + children.ru_utime + children.ru_stime


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2])))
