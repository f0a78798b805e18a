"""The repository benchmark: one workload per run, checked against pinned outputs.

    python3 perfbench/run.py --workload {tracking,contended,service} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  ``--seed 0`` runs every cell at its
registered seed and checks it against ``tests/golden/``; any other seed
offsets every cell's seed and keeps the seed-independent checks (commits
in every cell, repeated runs identical, warm service results byte-equal
to cold ones, exact cache hit/miss counts).

``--trace 0`` measures the end-to-end metrics untraced, repeating the
workload at least twice and while another repetition fits in
``--seconds``, and reports medians.  Before each repetition it times the
set-up in fresh interpreters (``setup_probe.py``), in CPU seconds.  Every
other time it reports is scaled to a reference host speed by calibration
workloads timed between measurements (``workloads.HostSpeed``), because
shared hosts drift in speed.
``--trace 1`` runs the workload once untraced and once with every layer's
entry points wrapped (``tracer.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed; it is 2, with no result line, when the
program or its golden fixtures are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up probes before each untraced repetition
SETUP_PROBES_PER_REP = 8
#: warm jobs per service repetition in the traced run (counts must repeat)
TRACED_WARM_JOBS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_commits_per_s": "1/s",
    "job_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}


def per_layer_units(scenarios: List[str]) -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "sim.timeouts": "count", "sim.processes": "count",
        "sim.resource_requests": "count", "sim.events": "count",
        "sim.resource_s": "s", "sim.run_self_s": "s", "sim.us_per_event": "us",
        "tp.txns_generated": "count", "tp.workload_s": "s",
        "tp.metrics_calls": "count", "tp.metrics_s": "s", "tp.commit_share": "ratio",
        "cc.accesses": "count", "cc.blocked_share": "ratio", "cc.access_s": "s",
        "cc.commit_s": "s", "cc.aborts_deadlock": "count", "cc.aborts_wound": "count",
        "cc.aborts_die": "count", "cc.aborts_certification": "count",
        "cc.isolation_check_s": "s",
        "core.gate_submits": "count", "core.gate_s": "s",
        "core.controller_updates": "count", "core.controller_s": "s",
        "core.displaced": "count", "core.shed": "count",
        "analytic.reference_s": "s",
        "runner.build_s": "s",
    }
    for name in scenarios:
        units[f"runner.scenario.{name}.wall_s"] = "s"
    units.update({
        "dist.dispatch_overhead_ms": "ms", "dist.queue_wait_ms": "ms",
        "dist.worker_busy_share": "ratio", "dist.result_bytes": "bytes",
        "svc.hits": "count", "svc.misses": "count", "svc.fingerprint_us": "us",
        "svc.cache_get_us": "us", "svc.cache_put_us": "us",
        "svc.job_overhead_ms": "ms",
        "trace.overhead_share": "ratio",
    })
    return units


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tracking", "contended", "service"))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every cell's seed (0: registered seeds)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the untraced repetitions may take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# untraced: end-to-end metrics
# ----------------------------------------------------------------------
def measure_setup(workload: str, work: Path, speed) -> List[float]:
    """Set-up CPU seconds of ``SETUP_PROBES_PER_REP`` fresh interpreters.

    ``speed`` is sampled between them: they leave the host idle otherwise.
    """
    samples = []
    for index in range(SETUP_PROBES_PER_REP):
        speed.sample()
        probe_dir = work / f"setup-{index}"
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _repeat(step, seconds: float) -> list:
    """Call ``step`` twice, then again while another call fits in ``seconds``."""
    clock = time.perf_counter
    started = clock()
    results = [step(), step()]
    while (clock() - started) * (len(results) + 1) / len(results) <= seconds:
        results.append(step())
    return results


def end_to_end(wl, workload: str, cells, checks, seconds: float, work: Path):
    """Repeat the workload for ``seconds``; returns (metrics, summary line)."""
    speed = wl.HostSpeed()
    setup: List[float] = []
    firsts = []  # every repetition must reproduce the first one's metrics

    def one_rep():
        # set-up probes run between repetitions, so they see the same host
        setup.extend(measure_setup(workload, work, speed))
        reference = firsts[0] if firsts else None
        if workload == "service":
            result = wl.run_service_rep(cells, checks, work, reference, speed=speed)
        else:
            result = wl.run_pass(cells, checks, reference, speed)
        firsts.append(result.metrics)
        return result

    reps = _repeat(one_rep, seconds)
    if workload == "service":
        wall = wl.median([rep.cold_wall_s for rep in reps])
        commits = reps[0].cold_commits
        latencies = [lat for rep in reps for lat in rep.warm_latencies_s]
        # each worker slot's largest peak over the repetitions
        workers_kib = sum(max(peaks) for peaks in zip(*(rep.worker_peak_kib for rep in reps)))
        peak = _peak_rss_mib() + workers_kib / 1024.0
        summary = f"{len(reps)} cold jobs, {len(latencies)} warm jobs"
    else:
        # each cell's median over the passes is robust to a slow moment of
        # the host; a pass's wall is the sum of its cells (a cell that
        # raised in every pass has no time and is a counted failure)
        latencies = [wl.median(walls) for walls in (
            [p.cell_walls[cell.cell_id] for p in reps if cell.cell_id in p.cell_walls]
            for cell in cells) if walls]
        wall = sum(latencies)
        commits = reps[0].commits
        peak = _peak_rss_mib()
        summary = f"{len(reps)} passes, per-cell medians of {len(latencies)} cells"
    speed.sample()
    scale = speed.scale()
    p50_ms, p90_ms = (wl.percentile(latencies, fraction) * 1000.0 * scale if latencies
                      else 0.0 for fraction in (0.5, 0.9))
    values = {
        # not scaled: the calibrations, made in this process, tracked the
        # probes' fresh interpreters worse than no scale at all
        "setup_s": wl.median(setup),
        "wall_s": wall * scale,
        "sim_commits_per_s": _ratio(commits, wall * scale),
        "job_p50_ms": p50_ms,
        "peak_rss_mib": peak,
    }
    # the p90 is printed, not reported: on a shared host its run-to-run
    # spread exceeds any bound the benchmark may set
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in END_TO_END_UNITS.items()},
            f"{summary}; job p90 {p90_ms:.3f} ms over {len(latencies)} samples; raw wall "
            f"{wall:.3f} s, host speed scale {scale:.4f} from "
            f"{len(speed.loop)} calibrations; {len(setup)} set-up probes")


# ----------------------------------------------------------------------
# traced: per-layer metrics
# ----------------------------------------------------------------------
def _layer_values(counts, own, untraced_wall: float) -> Dict[str, float]:
    """The sim/tp/cc/core/analytic metrics from the tracer's totals."""
    commits, aborts = counts["tp.commits"], counts["tp.aborts"]
    return {
        "sim.timeouts": counts["sim.timeout"],
        "sim.processes": counts["sim.process"],
        "sim.resource_requests": counts["sim.resource_request"],
        "sim.events": counts["sim.events"],
        "sim.resource_s": own["sim.resource_request"] + own["sim.resource_release"],
        "sim.run_self_s": own["sim.run"],
        "sim.us_per_event": _ratio(untraced_wall * 1e6, counts["sim.events"]),
        "tp.txns_generated": counts["tp.workload"],
        "tp.workload_s": own["tp.workload"],
        "tp.metrics_calls": counts["tp.metrics"],
        "tp.metrics_s": own["tp.metrics"],
        "tp.commit_share": _ratio(commits, commits + aborts),
        "cc.accesses": counts["cc.access"],
        "cc.blocked_share": _ratio(counts["cc.blocked"], counts["cc.access"]),
        "cc.access_s": own["cc.access"],
        "cc.commit_s": own["cc.commit"],
        "cc.aborts_deadlock": counts["cc.aborts_deadlock"],
        "cc.aborts_wound": counts["cc.aborts_wound"],
        "cc.aborts_die": counts["cc.aborts_die"],
        "cc.aborts_certification": counts["cc.aborts_certification"],
        "cc.isolation_check_s": own["cc.isolation_check"],
        "core.gate_submits": counts["core.gate_submit"],
        "core.gate_s": own["core.gate_submit"] + own["core.gate_depart"],
        "core.controller_updates": counts["core.controller"],
        "core.controller_s": own["core.controller"],
        "core.displaced": counts["core.displaced"],
        "core.shed": counts["core.shed"],
        "analytic.reference_s": own["analytic.reference"],
    }


def _span_values(wl, spans_path: Path, cold_wall: float) -> Dict[str, float]:
    """dist.* metrics and per-scenario busy time from the telemetry spans."""
    executes, results, waits = {}, {}, []
    scenario_busy: Dict[str, float] = {}
    if spans_path.exists():
        for line in spans_path.read_text(encoding="utf-8").splitlines():
            span = json.loads(line)
            if span["span"] == "cell_execute":
                executes.setdefault(span["worker"], []).append(span["duration"])
                scenario = span["cell_id"].split("/")[0]
                scenario_busy[scenario] = scenario_busy.get(scenario, 0.0) + span["duration"]
            elif span["span"] == "cell_result":
                results.setdefault(span["peer"], []).append(span["duration"])
            elif span["span"] == "dispatch":
                waits.append(span["queue_wait"])
    # a worker runs its cells one at a time, so the i-th result the
    # coordinator saw from it pairs with the i-th cell it executed
    overheads = [result - execute for worker, durations in results.items()
                 for result, execute in zip(durations, executes.get(worker, ()))]
    busy = sum(sum(durations) for durations in executes.values())
    values = {
        "dist.dispatch_overhead_ms": wl.median(overheads) * 1000.0 if overheads else 0.0,
        "dist.queue_wait_ms": wl.median(waits) * 1000.0 if waits else 0.0,
        "dist.worker_busy_share": _ratio(busy, wl.SERVICE_WORKERS * cold_wall),
    }
    values.update({f"runner.scenario.{name}.wall_s": seconds
                   for name, seconds in scenario_busy.items()})
    return values


def per_layer(wl, workload: str, cells, checks, build_s: float, work: Path):
    """One untraced and one traced run; returns (metrics, summary line)."""
    from repro.obs.telemetry import TELEMETRY_ENV
    from repro.runner.registry import available_scenarios
    from tracer import LayerTracer

    units = per_layer_units(list(available_scenarios()))
    values = dict.fromkeys(units, 0.0)
    values["runner.build_s"] = build_s
    tracer = LayerTracer()
    if workload == "service":
        untraced = wl.run_service_rep(cells, checks, work, warm_jobs=TRACED_WARM_JOBS)
        untraced_wall = untraced.cold_wall_s
        spans = work / "spans.jsonl"
        cold = {}
        os.environ[TELEMETRY_ENV] = str(spans)
        tracer.install()
        try:
            traced = wl.run_service_rep(
                cells, checks, work, untraced.metrics, warm_jobs=TRACED_WARM_JOBS,
                measure_bytes=True,
                after_cold=lambda: cold.update(zip(("counts", "incl"),
                                                   tracer.totals()[::2])))
        finally:
            tracer.uninstall()
            del os.environ[TELEMETRY_ENV]
        traced_wall = traced.cold_wall_s
        counts, own, incl = tracer.totals()
        warm_gets = counts["svc.cache_get"] - cold["counts"]["svc.cache_get"]
        warm_get_s = incl["svc.cache_get"] - cold["incl"]["svc.cache_get"]
        values.update(_span_values(wl, spans, traced_wall))
        values.update({
            "dist.result_bytes": traced.result_bytes,
            "svc.hits": traced.warm_hits,
            "svc.misses": traced.cold_misses,
            "svc.fingerprint_us": _ratio(own["svc.fingerprint"] * 1e6,
                                         counts["svc.fingerprint"]),
            "svc.cache_get_us": _ratio(warm_get_s * 1e6, warm_gets),
            "svc.cache_put_us": _ratio(own["svc.cache_put"] * 1e6, counts["svc.cache_put"]),
            "svc.job_overhead_ms": (wl.median(traced.warm_latencies_s)
                                    - warm_get_s / TRACED_WARM_JOBS) * 1000.0,
        })
    else:
        untraced = wl.run_pass(cells, checks)
        untraced_wall = untraced.wall_s
        tracer.install()
        try:
            traced = wl.run_pass(cells, checks, untraced.metrics)
        finally:
            tracer.uninstall()
        traced_wall = traced.wall_s
        counts, own, _ = tracer.totals()
        for cell_id, seconds in untraced.cell_walls.items():
            key = f"runner.scenario.{cell_id.split('/')[0]}.wall_s"
            values[key] += seconds
    values.update(_layer_values(counts, own, untraced_wall))
    values["trace.overhead_share"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    return ({name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            f"untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    golden_dir = ROOT / "tests" / "golden"
    if not (ROOT / "src" / "repro").is_dir() or not golden_dir.is_dir():
        print(f"perfbench: no program under {ROOT / 'src'} or no golden fixtures "
              f"under {golden_dir}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    started = time.perf_counter()
    cells = wl.build_cells(args.workload, args.seed)
    build_s = time.perf_counter() - started
    golden = wl.load_golden(golden_dir, cells) if args.seed == 0 else None
    checks = wl.CellChecks(golden)
    work = wl.work_dir(ROOT)
    try:
        if args.trace:
            metrics, summary = per_layer(wl, args.workload, cells, checks, build_s, work)
        else:
            metrics, summary = end_to_end(wl, args.workload, cells, checks,
                                          args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only once no other run uses it
        except OSError:
            pass
    for message in checks.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    share = _ratio(checks.failed, checks.attempted)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"{len(cells)} cells; {summary}; failed_share={share:.6f} "
          f"({checks.failed}/{checks.attempted})")
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(checks.attempted, 1),
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
