"""The ``repro`` command: every console surface behind one entry point.

Subcommands::

    repro run fig12_stationary --scale smoke --local-workers 2   # one sweep on a cluster
    repro worker --connect HOST:PORT                            # join a run or a service
    repro serve --cache DIR --local-workers 2                   # persistent sweep service
    repro submit fig12_stationary --address HOST:PORT --wait    # service clients, one
    repro status | results | cache | shutdown --address HOST:PORT   # request each
    repro fuzz --seed 7 --budget 15 --expect-counterexample     # counterexample hunt
    repro obs /tmp/run.jsonl                                    # telemetry summary

``--quiet`` / ``--verbose`` go before the subcommand.  Diagnostics are
logged to stderr; tables, JSON documents and verdicts go to stdout.  An
expected failure — a refused or unreachable address, a service error, a
timeout, an unknown scenario, a failing cell — prints one
``repro <subcommand>: <message>`` line on stderr and exits 1 (``--verbose``
also logs its traceback).

``run`` and ``serve`` share the cluster flags (``--bind``,
``--local-workers``, ``--min-workers``, ``--worker-wait``,
``--heartbeat-timeout``) and one spawn-and-reap path for local workers.
Each handler imports its subsystem lazily, so ``python -m repro worker``
(how local clusters spawn workers) loads no more than a worker needs.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import logging
import os
import sys
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.config import SCALE_PRESETS
from repro.obs.telemetry import configure_cli_logging

logger = logging.getLogger("repro.cli")


class _UsageError(Exception):
    """A bad scenario name or flag combination, caught before any work starts."""


def _expected_errors() -> tuple:
    """Failures reported as one stderr line instead of a traceback.

    Refused or unreachable addresses and timeouts are ``OSError``s; the
    rest are the service, wire-protocol and cell failures plus
    :class:`_UsageError`.  Imported only once a handler has failed, so a
    worker's start-up stays lean; any other exception is a bug and keeps
    its traceback.
    """
    from repro.dist.protocol import ProtocolError
    from repro.runner.errors import CellExecutionError
    from repro.svc.client import ServiceError

    return (OSError, ServiceError, ProtocolError, CellExecutionError, _UsageError)


def _check_scenario(name: str) -> None:
    """Reject an unknown registry scenario before binding or connecting."""
    from repro.runner.registry import get_scenario

    try:
        get_scenario(name)
    except KeyError as error:
        raise _UsageError(error.args[0]) from None


# ----------------------------------------------------------------------
# cluster flags and local workers, shared by run and serve
# ----------------------------------------------------------------------
def _add_cluster_flags(parser: argparse.ArgumentParser, *, min_workers: int,
                       worker_wait: float) -> None:
    parser.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="address workers connect to (default: 127.0.0.1:0, ephemeral)")
    parser.add_argument("--local-workers", type=int, default=0, metavar="N",
                        help="also spawn N worker subprocesses on this host")
    parser.add_argument("--min-workers", type=int, default=min_workers, metavar="N",
                        help="wait for N workers before starting (default: %(default)s)")
    parser.add_argument("--worker-wait", type=float, default=worker_wait, metavar="SECONDS",
                        help="how long to wait for workers, and how long a sweep may "
                             "stall with none connected (default: %(default)s)")
    parser.add_argument("--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
                        help="declare a silent worker dead after this long (default: %(default)s)")


@contextlib.contextmanager
def _local_workers(args, executor, min_workers: int):
    """Spawn ``--local-workers`` and wait for ``min_workers`` to join.

    On exit the executor is closed, which tells its workers to shut down,
    and the local ones are reaped.
    """
    from repro.dist.cluster import reap_workers, spawn_local_workers

    processes = []
    try:
        if args.local_workers:
            processes = spawn_local_workers(executor.bound_address, args.local_workers)
        if min_workers:
            executor.wait_for_workers(min_workers, timeout=args.worker_wait)
        yield
    finally:
        executor.close()
        reap_workers(processes)


def _add_scale(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--scale", default=default, choices=SCALE_PRESETS,
                        help="experiment scale preset (default: %(default)s)")


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
def _run(args) -> int:
    """Serve one registry scenario to a cluster; print its aggregate table."""
    from repro.dist.archive import build_archive, write_archive
    from repro.dist.coordinator import DistributedExecutor
    from repro.experiments.config import ExperimentScale
    from repro.experiments.report import format_aggregate_table
    from repro.runner.api import run_sweep

    _check_scenario(args.scenario)
    scale = ExperimentScale.preset(args.scale)
    executor = DistributedExecutor(args.bind, heartbeat_timeout=args.heartbeat_timeout,
                                   worker_timeout=args.worker_wait)
    logger.info("coordinator listening on %s", executor.bound_address)
    with _local_workers(args, executor, max(args.min_workers, 1)):
        logger.info("%d worker(s) connected; running %r at %s scale, replicates=%d",
                    executor.workers, args.scenario, args.scale, args.replicates)
        started = time.monotonic()
        result = run_sweep(args.scenario, scale=scale, replicates=args.replicates,
                           executor=executor, confidence=args.confidence)
        elapsed = time.monotonic() - started
    cells = len(result.results)
    logger.info("%d cells in %.1fs (%.2f cells/s)", cells, elapsed, cells / max(elapsed, 1e-9))
    print(format_aggregate_table(result.aggregates))
    if args.archive is not None:
        archive = build_archive(result, scenario=args.scenario, scale_name=args.scale,
                                confidence=args.confidence)
        logger.info("archive written to %s", write_archive(archive, args.archive))
    return 0


def _worker(args) -> int:
    """Join a coordinator or service and execute cells until shut down."""
    from repro.dist.worker import Worker

    worker = Worker(args.connect, name=args.name,
                    heartbeat_interval=args.heartbeat_interval,
                    connect_retry=args.retry, fail_after_cells=args.fail_after_cells)
    cells = worker.run()
    logger.info("worker %s: executed %d cell(s)", worker.name, cells)
    return 0


def _crash_after_fills(cache, limit: int) -> None:
    """Arm the hidden ``--exit-after-fills`` fault injection on ``cache``.

    The process hard-exits, without shutdown courtesies, the moment the
    ``limit``-th result lands in the cache — the service-side mirror of
    ``repro worker --fail-after-cells`` behind the crash-recovery test.
    With one worker, cells complete in submission order, so exactly the
    first ``limit`` cells are cached.  Exit code 17 tells the injected
    crash from a real failure.
    """
    put = cache.put
    fills = itertools.count(1)

    def put_then_crash(spec, result):
        key = put(spec, result)
        if key is not None and next(fills) >= limit:
            logging.shutdown()
            os._exit(17)
        return key

    cache.put = put_then_crash


def _serve(args) -> int:
    """Run a sweep service until a shutdown request (or Ctrl-C) arrives."""
    from repro.svc.cache import ResultCache
    from repro.svc.service import SweepService

    cache = None
    if args.cache is not None:
        cache = ResultCache(args.cache)
        if args.exit_after_fills is not None:
            _crash_after_fills(cache, args.exit_after_fills)
    elif args.exit_after_fills is not None:
        raise _UsageError("--exit-after-fills requires --cache")
    service = SweepService(worker_bind=args.bind, control_bind=args.control, cache=cache,
                           heartbeat_timeout=args.heartbeat_timeout,
                           worker_timeout=args.worker_wait)
    http_server = None
    try:
        # scripts and tests scrape these lines for the ephemeral ports
        print(f"worker address: {service.worker_address}", flush=True)
        print(f"control address: {service.control_address}", flush=True)
        if args.http is not None:
            from repro.svc.http import make_http_server

            http_server = make_http_server(service, args.http)
            host, port = http_server.server_address[:2]
            print(f"http address: {host}:{port}", flush=True)
            threading.Thread(target=http_server.serve_forever,
                             name="svc-http", daemon=True).start()
        with _local_workers(args, service.executor, args.min_workers):
            logger.info("service ready: %d worker(s), cache=%s", service.executor.workers,
                        cache.directory if cache is not None else "off")
            while not service.closed:
                time.sleep(0.2)
        logger.info("service shut down")
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        logger.info("interrupted")
    finally:
        if http_server is not None:
            http_server.shutdown()
        service.close()
    return 0


def _print_reply(reply) -> None:
    print(reply if isinstance(reply, str) else json.dumps(reply, indent=1, sort_keys=True))


def _submit(args) -> int:
    """Submit a registry scenario as a job; with ``--wait``, its final status."""
    from repro.svc.client import ServiceClient

    _check_scenario(args.scenario)
    client = ServiceClient(args.address)
    job_id = client.submit_scenario(args.scenario, scale=args.scale,
                                    replicates=args.replicates)
    print(job_id)
    if not args.wait:
        return 0
    status = client.wait(job_id, timeout=args.timeout)
    _print_reply(status)
    return 0 if status["state"] == "done" else 1


def _request(args) -> int:
    """One request to a running service (``args.request``); print the reply."""
    from repro.svc.client import ServiceClient

    _print_reply(args.request(ServiceClient(args.address), args))
    return 0


def _adversary_kind(name: str) -> str:
    """``--kinds`` values, checked only when given (keeps start-up lean)."""
    from repro.fuzz.adversaries import adversary_kinds

    if name not in adversary_kinds():
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(adversary_kinds())})")
    return name


def _fuzz(args) -> int:
    """Run one deterministic fuzz campaign; print verdicts and a summary."""
    from repro.experiments.config import ExperimentScale
    from repro.fuzz.corpus import archive_counterexamples
    from repro.fuzz.executor import run_campaign
    from repro.fuzz.oracle import FailureThresholds

    thresholds = FailureThresholds(rescue_fraction=args.rescue_fraction,
                                   livelock_ratio=args.livelock_ratio,
                                   min_commit_rate=args.min_commit_rate)
    logger.info("seed=%d budget=%d scale=%s workers=%d service=%s",
                args.seed, args.budget, args.scale, args.workers, args.service)
    report = run_campaign(seed=args.seed, budget=args.budget,
                          scale=ExperimentScale.preset(args.scale), workers=args.workers,
                          thresholds=thresholds, kinds=args.kinds,
                          service_address=args.service)
    for verdict in report.verdicts:
        status = f"FAIL({','.join(verdict.reasons)})" if verdict.failed else "ok"
        print(f"  {verdict.cell_id:<40} tput={verdict.throughput:8.2f} "
              f"peak-fraction={verdict.throughput_fraction:6.3f} "
              f"[{verdict.reference}] {status}")
    print(f"{report.found} counterexample(s) in {len(report.verdicts)} candidates")
    if args.archive is not None and report.counterexamples:
        for path in archive_counterexamples(report.counterexamples, args.archive):
            print(f"archived {path}")
    if args.expect_counterexample and report.found == 0:
        print("expected at least one counterexample, found none", file=sys.stderr)
        return 1
    return 0


def _obs(args) -> int:
    """Print the span and per-worker tables of a telemetry file."""
    from repro.obs.cli import read_spans, summarize

    records, malformed = read_spans(args.telemetry)
    if malformed:
        logger.warning("skipped %d malformed line(s)", malformed)
    print(summarize(records))
    return 0


# ----------------------------------------------------------------------
# the parser and the error boundary
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run, distribute, serve, fuzz and inspect the adaptive "
                    "load-control experiments.")
    parser.add_argument("--quiet", action="store_true", help="log warnings and errors only")
    parser.add_argument("--verbose", action="store_true", help="log debug diagnostics")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    run = commands.add_parser(
        "run", help="serve one registry scenario to a cluster and print its table")
    run.add_argument("scenario", help="registry scenario name (e.g. fig12_stationary)")
    _add_cluster_flags(run, min_workers=1, worker_wait=300.0)
    _add_scale(run, "benchmark")
    run.add_argument("--replicates", type=int, default=1,
                     help="independent replicates per cell (default: %(default)s)")
    run.add_argument("--archive", type=Path, default=None, metavar="DIR",
                     help="write a versioned JSON archive artifact into DIR")
    run.add_argument("--confidence", type=float, default=0.95,
                     help="confidence level of the CI aggregation (default: %(default)s)")
    run.set_defaults(handler=_run)

    worker = commands.add_parser("worker", help="join a coordinator or service and execute cells")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator or service worker address to join")
    worker.add_argument("--name", default=None,
                        help="worker name shown by the coordinator (default: host-pid)")
    worker.add_argument("--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
                        help="heartbeat period while executing a cell (default: %(default)s)")
    worker.add_argument("--retry", type=float, default=0.0, metavar="SECONDS",
                        help="keep retrying the initial connection this long "
                             "(lets workers start before the coordinator)")
    # fault injection for the fault-tolerance tests
    worker.add_argument("--fail-after-cells", type=int, default=None, help=argparse.SUPPRESS)
    worker.set_defaults(handler=_worker)

    serve = commands.add_parser("serve", help="run a sweep service until shut down")
    _add_cluster_flags(serve, min_workers=0, worker_wait=600.0)
    serve.add_argument("--control", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="TCP control port (default: 127.0.0.1:0)")
    serve.add_argument("--http", default=None, metavar="HOST:PORT",
                       help="also serve the HTTP/JSON control plane here")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="content-addressed result cache directory "
                            "(persistent across restarts; default: uncached)")
    # crash injection for the crash-recovery test
    serve.add_argument("--exit-after-fills", type=int, default=None, metavar="N",
                       help=argparse.SUPPRESS)
    serve.set_defaults(handler=_serve)

    def client_command(name: str, help_text: str, **defaults) -> argparse.ArgumentParser:
        command = commands.add_parser(name, help=help_text)
        command.add_argument("--address", required=True, metavar="HOST:PORT",
                             help="the service's control address")
        command.set_defaults(handler=_request, **defaults)
        return command

    submit = client_command("submit", "submit a registry scenario as a job")
    submit.add_argument("scenario", help="registry scenario name")
    _add_scale(submit, "smoke")
    submit.add_argument("--replicates", type=int, default=1,
                        help="independent replicates per cell (default: %(default)s)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes; exit 1 on failure")
    submit.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS",
                        help="--wait budget (default: %(default)s)")
    submit.set_defaults(handler=_submit)
    status = client_command("status", "job status (one or all)",
                            request=lambda client, args: client.status(args.job_id))
    status.add_argument("job_id", nargs="?", default=None, help="job id (omit for every job)")
    results = client_command("results", "results document of a finished job",
                             request=lambda client, args: client.results(args.job_id))
    results.add_argument("job_id", help="job id")
    client_command("cache", "cache hit/miss counters",
                   request=lambda client, args: client.cache_stats())
    client_command("shutdown", "stop the service",
                   request=lambda client, args: client.shutdown())

    fuzz = commands.add_parser(
        "fuzz", help="hunt adaptive-load-control failures with adversarial workloads")
    fuzz.add_argument("--seed", type=int, default=1,
                      help="campaign seed; same seed + budget = same candidates")
    fuzz.add_argument("--budget", type=int, default=10,
                      help="number of distinct candidates to run (default: %(default)s)")
    _add_scale(fuzz, "smoke")
    fuzz.add_argument("--workers", type=int, default=0,
                      help="worker processes (0/1 = in-process serial)")
    fuzz.add_argument("--service", default=None, metavar="HOST:PORT",
                      help="route cells through a running service's control address "
                           "(repeat candidates hit its result cache)")
    fuzz.add_argument("--kinds", nargs="+", default=None, metavar="KIND", type=_adversary_kind,
                      help="restrict adversary kinds (default: every kind in the catalog)")
    fuzz.add_argument("--archive", type=Path, default=None, metavar="DIR",
                      help="write every counterexample found to DIR as replayable JSON")
    fuzz.add_argument("--rescue-fraction", type=float, default=0.35,
                      help="fail a run below this fraction of the analytic peak "
                           "(default: %(default)s)")
    fuzz.add_argument("--livelock-ratio", type=float, default=3.0,
                      help="fail when displaced > ratio * commits (default: %(default)s)")
    fuzz.add_argument("--min-commit-rate", type=float, default=0.5,
                      help="fail below this commit rate per simulated second "
                           "(default: %(default)s)")
    fuzz.add_argument("--expect-counterexample", action="store_true",
                      help="exit 1 if the campaign finds no counterexample")
    fuzz.set_defaults(handler=_fuzz)

    obs = commands.add_parser(
        "obs", help="summarise a structured-telemetry JSONL file "
                    "(written when REPRO_TELEMETRY is exported)")
    obs.add_argument("telemetry", help="path to the telemetry JSONL file")
    obs.set_defaults(handler=_obs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one ``repro`` subcommand; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_cli_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        return args.handler(args)
    except Exception as error:
        if not isinstance(error, _expected_errors()):
            raise
        logger.debug("repro %s failed", args.command, exc_info=True)
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 1
