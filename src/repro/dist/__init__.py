"""Distributed sweep execution: coordinator, workers, archives.

The paper's evaluation grid is embarrassingly parallel and every cell is a
deterministic function of its picklable spec (PR 1), so scaling beyond one
host is a dispatch problem, not a simulation problem.  This package solves
it with a small TCP protocol:

* :mod:`~repro.dist.protocol` — length-prefixed pickle framing;
* :mod:`~repro.dist.coordinator` — :class:`DistributedExecutor`, serving
  cells from a work queue to connected workers and reassembling results in
  deterministic cell order, re-queueing the in-flight cells of dead
  workers (the sweep completes as long as one worker survives);
* :mod:`~repro.dist.worker` — the cell-executing loop with heartbeats;
* :mod:`~repro.dist.cluster` — :func:`launch_local_cluster`, a
  coordinator plus N localhost subprocess workers for tests and CI, and
  the spawn/reap helpers the ``repro`` command shares;
* :mod:`~repro.dist.archive` — versioned JSON artifacts of replicated
  runs with mean ± confidence-interval summaries.

The determinism contract is unchanged from the in-process executors: for
any worker count, join order, or mid-run worker crash, a sweep's results
are bit-identical to :class:`~repro.runner.executor.SerialExecutor` —
asserted against the golden trajectories in ``tests/dist/``.

From the shell, ``repro run <scenario>`` serves one sweep to the cluster
and ``repro worker --connect HOST:PORT`` joins one (see :mod:`repro.cli`).
"""

from repro.dist.archive import (
    ARCHIVE_FORMAT,
    archive_sweep,
    build_archive,
    format_archive_table,
    load_archive,
    write_archive,
)
from repro.dist.cluster import LocalCluster, launch_local_cluster, reap_workers, spawn_local_workers
from repro.dist.coordinator import DistributedExecutor
from repro.dist.protocol import (
    ConnectionClosed,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.dist.worker import Worker

__all__ = [
    "ARCHIVE_FORMAT",
    "archive_sweep",
    "build_archive",
    "format_archive_table",
    "load_archive",
    "write_archive",
    "LocalCluster",
    "launch_local_cluster",
    "reap_workers",
    "spawn_local_workers",
    "DistributedExecutor",
    "ConnectionClosed",
    "ProtocolError",
    "recv_message",
    "send_message",
    "Worker",
]
