"""Worker side of distributed sweep execution.

A :class:`Worker` connects to a coordinator, pulls one cell at a time
(``ready`` -> ``task``), executes it, and streams the result back.  While
a cell executes — seconds to minutes of pure simulation — a background
thread sends heartbeats so the coordinator keeps trusting the connection;
a worker that stops heartbeating (killed host, severed network) has its
in-flight cell re-queued there.

Cell failures go through the same
:func:`~repro.runner.errors.run_with_cell_context` path the
multiprocessing executor uses: the coordinator receives a
:class:`~repro.runner.errors.CellExecutionError` naming the failing cell,
not a bare remote traceback.  A worker survives its own cell errors — it
reports them and keeps serving.

``repro worker`` (:mod:`repro.cli`) runs one from the shell; local
clusters spawn it as ``python -m repro worker``.  ``fail_after_cells=N``
(``--fail-after-cells N``) is deliberate fault injection for the
fault-tolerance tests: the worker accepts its ``N+1``-th cell and then
dies abruptly (``os._exit``), exactly like a crashed host with a cell in
flight.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Optional

from repro.dist import protocol
from repro.obs import telemetry
from repro.dist.protocol import (
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_READY,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TASK,
    MSG_TASK_ERROR,
    ConnectionClosed,
    ProtocolError,
)
from repro.runner.errors import CellExecutionError, run_with_cell_context


class Worker:
    """One cell-executing loop bound to a coordinator address."""

    def __init__(self, address: str, *,
                 name: Optional[str] = None,
                 heartbeat_interval: float = 1.0,
                 connect_retry: float = 0.0,
                 fail_after_cells: Optional[int] = None):
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        self.address = address
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.heartbeat_interval = float(heartbeat_interval)
        self.connect_retry = float(connect_retry)
        self.fail_after_cells = fail_after_cells
        #: cells executed over the worker's lifetime (successes and errors)
        self.cells_executed = 0

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        host, port = protocol.parse_address(self.address)
        deadline = time.monotonic() + self.connect_retry
        while True:
            try:
                return socket.create_connection((host, port))
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)

    def _heartbeat_loop(self, send, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                send((MSG_HEARTBEAT,))
            except OSError:
                return

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve cells until the coordinator shuts the connection down.

        Returns the number of cells executed.  A vanished coordinator ends
        the loop cleanly (the results it missed are simply lost — it is
        the coordinator that owns re-queueing, not the worker).
        """
        # telemetry spans emitted while executing cells (cell_execute) carry
        # the worker's announced name, matching the coordinator's logs
        telemetry.set_worker_name(self.name)
        sock = self._connect()
        send_lock = threading.Lock()

        def send(message) -> None:
            # the heartbeat thread shares the socket with the main loop;
            # the lock keeps frames whole on the wire
            with send_lock:
                protocol.send_message(sock, message)

        try:
            send((MSG_HELLO, self.name))
            while True:
                send((MSG_READY,))
                sock.settimeout(None)  # idle waits between sweeps are unbounded
                message = protocol.recv_message(sock)
                kind = message[0]
                if kind == MSG_SHUTDOWN:
                    return self.cells_executed
                if kind != MSG_TASK:
                    raise ProtocolError(f"expected a task, got {kind!r}")
                _, generation, index, function, item = message
                if (self.fail_after_cells is not None
                        and self.cells_executed >= self.fail_after_cells):
                    # fault injection: die like a crashed host, cell in flight
                    os._exit(17)
                stop = threading.Event()
                heartbeats = threading.Thread(
                    target=self._heartbeat_loop, args=(send, stop),
                    name="dist-heartbeat", daemon=True,
                )
                heartbeats.start()
                error = None
                payload = None
                try:
                    try:
                        payload = run_with_cell_context(function, item)
                    except CellExecutionError as exc:
                        error = exc
                finally:
                    stop.set()
                    heartbeats.join()
                if error is not None:
                    send((MSG_TASK_ERROR, generation, index, error))
                else:
                    send((MSG_RESULT, generation, index, payload))
                self.cells_executed += 1
        except (ConnectionClosed, ConnectionError, OSError):
            return self.cells_executed
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
