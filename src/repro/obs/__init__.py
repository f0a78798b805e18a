"""Deterministic observability: in-sim probes and structured run telemetry.

The package has two halves, both opt-in and both zero-cost when off:

* :mod:`repro.obs.probes` — **in-sim probes**: counters, gauges and
  time-weighted statistics sampled on *simulation-time* intervals inside a
  running :class:`~repro.tp.system.TransactionSystem`.  Probes are selected
  per cell via :attr:`~repro.runner.specs.RunSpec.probes` and surface as
  ``probe_<name>`` metrics on the cell result.  They are deterministic and
  trajectory-preserving: a probed cell commits and aborts exactly the
  transactions the unprobed cell does, and probe metrics are bit-identical
  across the serial, multiprocessing and distributed executors.
* :mod:`repro.obs.telemetry` — **structured run telemetry**: *wall-clock*
  spans (cell execute times, sweep durations, dispatch/queue waits,
  heartbeat gaps) emitted as canonical JSONL by the executors and the
  distributed coordinator, attributed to the worker process that produced
  them.  Summarise a telemetry file with ``repro obs``
  (:mod:`repro.obs.cli` renders the tables).

:mod:`repro.obs.calibration` closes the loop into the analytic layer: the
lock-wait probe's measured statistics calibrate
:class:`~repro.analytic.tay.TayThroughputModel`'s waiting share instead of
the 0.5 default.

See ``docs/observability.md`` for the propagation contract (what reaches
worker processes and how) and a tour of every built-in probe.
"""

from repro.obs.calibration import DEFAULT_WAITING_SHARE, calibrated_tay_model, measured_wait_share
from repro.obs.probes import PROBE_NAMES, ProbeSet, validate_probes
from repro.obs.telemetry import (
    TELEMETRY_ENV,
    TelemetrySink,
    active_sink,
    configure_cli_logging,
    emit,
    install_sink,
    set_worker_name,
    telemetry_to,
    worker_name,
)

__all__ = [
    "DEFAULT_WAITING_SHARE",
    "PROBE_NAMES",
    "ProbeSet",
    "TELEMETRY_ENV",
    "TelemetrySink",
    "active_sink",
    "calibrated_tay_model",
    "configure_cli_logging",
    "emit",
    "install_sink",
    "measured_wait_share",
    "set_worker_name",
    "telemetry_to",
    "validate_probes",
    "worker_name",
]
