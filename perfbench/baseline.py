"""Record a baseline: run every workload over many seeds and summarise each metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each of two sets, each workload runs once per seed with ``--trace 0``
(seeds 1-10, then 11-20), plus two runs with ``--trace 1`` at seed 1.
Every metric gets its median, quartiles (``statistics.quantiles(values,
n=4)``) and spread (interquartile distance over the median).  The
end-to-end metrics are then checked against ``BENCHMARK.json``: each
spread must stay within its bound, and the last set's median may be
worse than the first set's by at most the bound.  Exits 1 when a check fails or a
run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: untraced runs (seeds) per workload and set
SEEDS_PER_SET = 10
SETS = 2
#: traced runs per workload and set (two, to show their counts repeat)
TRACED_RUNS = 2


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
    result = json.loads(done.stdout.splitlines()[-1])
    result["exit_code"] = done.returncode
    result["host_s"] = time.perf_counter() - started
    return result


def summarise(values):
    """Median, quartiles and spread (interquartile distance over the median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None, help="write the summary here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in spec["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    ok = True
    sets = []
    for index in range(SETS):
        summary = {}
        for workload in workloads:
            untraced = [run_once(spec, workload, index * SEEDS_PER_SET + seed, 0)
                        for seed in range(1, SEEDS_PER_SET + 1)]
            traced = [run_once(spec, workload, 1, 1) for _ in range(TRACED_RUNS)]
            for result in untraced + traced:
                if result["exit_code"] != 0 or not result["correct"]:
                    print(f"{workload}: run not correct: {result}", file=sys.stderr)
                    ok = False
            metrics = {name: summarise([r["metrics"][name]["value"] for r in untraced])
                       for name in bounds}
            layers = {name: summarise([r["metrics"][name]["value"] for r in traced])
                      for name in traced[0]["metrics"]}
            summary[workload] = {
                "end_to_end": metrics, "per_layer": layers,
                "host_s": summarise([r["host_s"] for r in untraced + traced]),
            }
            for name, stats in metrics.items():
                within = stats["spread"] <= bounds[name]
                ok &= within
                print(f"set {index} {workload:10s} {name:18s} median {stats['median']:12.4f} "
                      f"spread {stats['spread']:.4f} / bound {bounds[name]}"
                      f"{'' if within else '  EXCEEDS BOUND'}", flush=True)
        sets.append(summary)
    for workload in workloads:
        for name, bound in bounds.items():
            first, last = (sets[0][workload]["end_to_end"][name]["median"],
                           sets[-1][workload]["end_to_end"][name]["median"])
            better = next(e["better"] for e in spec["end_to_end"] if e["name"] == name)
            worse = (first - last if better == "higher" else last - first) / first
            if worse > bound:
                ok = False
                print(f"{workload} {name}: last set worse by {worse:.4f} > {bound}")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "run_seconds": spec["run_seconds"], "seeds_per_set": SEEDS_PER_SET,
            "sets": sets,
        }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
