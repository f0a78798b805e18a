"""Serial and process-parallel execution of experiment cells.

Both executors share one tiny interface: :meth:`map` applies a picklable
function to an iterable of picklable items and *streams* the results back
in the items' order (so a sweep's results arrive in deterministic cell
order regardless of which worker finishes first), and :meth:`execute`
collects them into a list.

``make_executor`` selects the implementation from a ``workers`` count the
way the experiment entry points expose it:

* ``workers=0`` or ``1`` — run in-process (no pickling requirements, exact
  same code path the tests exercise);
* ``workers=N>1`` — fan out over ``N`` ``multiprocessing`` workers;
* ``workers=None`` — one worker per available CPU;
* ``address="host:port"`` — serve the cells to networked workers through
  the :class:`~repro.dist.coordinator.DistributedExecutor`.

Because each cell seeds its own random streams from its spec (seed,
replicate), results are bitwise identical between the serial, the parallel
and the distributed executor.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar

from repro.obs import telemetry
from repro.runner.errors import CellErrorContext

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def _timed_execute(executor, kind: str,
                   function: Callable[[ItemT], ResultT],
                   items: Iterable[ItemT]) -> List[ResultT]:
    """Collect ``executor.map`` results, in a ``sweep`` span when telemetered.

    Only :meth:`execute` is instrumented — a lazy :meth:`map` generator has
    no well-defined end to time.  Without an active sink no clock is read.
    """
    if telemetry.active_sink() is None:
        return list(executor.map(function, items))
    started = time.monotonic()
    results = list(executor.map(function, items))
    telemetry.emit(
        "sweep",
        executor=kind,
        workers=executor.workers,
        cells=len(results),
        duration=time.monotonic() - started,
    )
    return results


class SerialExecutor:
    """Run every cell in the current process, in order."""

    workers = 0

    def map(self, function: Callable[[ItemT], ResultT],
            items: Iterable[ItemT]) -> Iterator[ResultT]:
        """Lazily apply ``function`` to ``items`` in order."""
        return (function(item) for item in items)

    def execute(self, function: Callable[[ItemT], ResultT],
                items: Iterable[ItemT]) -> List[ResultT]:
        """Apply ``function`` to every item and return the ordered results."""
        return _timed_execute(self, "serial", function, items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan cells out over a pool of worker processes.

    Results are streamed back in submission order, so consumers see the
    same deterministic ordering the serial executor produces while later
    cells are still running.  ``function`` and every item must be
    picklable.  When the consumer stops early (a failed cell, an abandoned
    iterator), queued cells are cancelled and the workers exit gracefully:
    ``multiprocessing.Pool.terminate`` could kill a worker holding the
    result queue's lock and hang the shutdown.

    Failures inside a worker process are re-raised as
    :class:`~repro.runner.errors.CellExecutionError` naming the failing
    cell's identity (see :mod:`repro.runner.errors`), instead of a bare
    pool traceback.
    """

    def __init__(self, workers: Optional[int] = None, mp_context: Optional[str] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 2:
            raise ValueError(
                f"ParallelExecutor needs >= 2 workers, got {workers}; "
                "use SerialExecutor (workers=0 or 1) instead"
            )
        self.workers = int(workers)
        self._mp_context = mp_context

    def map(self, function: Callable[[ItemT], ResultT],
            items: Iterable[ItemT]) -> Iterator[ResultT]:
        """Apply ``function`` to ``items`` in parallel, yielding in order."""
        materialised = list(items)

        def stream() -> Iterator[ResultT]:
            if not materialised:
                return
            pool = ProcessPoolExecutor(min(self.workers, len(materialised)),
                                       multiprocessing.get_context(self._mp_context))
            try:
                futures = [pool.submit(CellErrorContext(function), item) for item in materialised]
                yield from (future.result() for future in futures)
            finally:
                pool.shutdown(wait=True, cancel_futures=True)

        return stream()

    def execute(self, function: Callable[[ItemT], ResultT],
                items: Iterable[ItemT]) -> List[ResultT]:
        """Apply ``function`` to every item and return the ordered results."""
        return _timed_execute(self, "parallel", function, items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(workers={self.workers})"


def make_executor(workers: Optional[int] = 0, mp_context: Optional[str] = None,
                  address: Optional[str] = None, **distributed_options):
    """Select an executor from a ``workers`` count (see module docstring).

    With ``address="host:port"`` a
    :class:`~repro.dist.coordinator.DistributedExecutor` is returned
    instead: it binds the address and serves cells to every
    ``repro worker`` that connects (``workers`` is ignored — the
    cluster size is however many workers join).  Extra keyword options
    (``heartbeat_timeout``, ``worker_timeout``) are forwarded to it.
    """
    if address is not None:
        # imported lazily: repro.dist depends on repro.runner, not vice versa
        from repro.dist.coordinator import DistributedExecutor

        return DistributedExecutor(address, **distributed_options)
    if distributed_options:
        raise TypeError(
            "distributed options "
            f"{sorted(distributed_options)} require address='host:port'"
        )
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers=workers, mp_context=mp_context)
