"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that the metric names agree with ``BENCHMARK.json``, that a
traced run's counts repeat exactly and leave results unchanged, that a
perturbed golden metric fails the command, and that the command refuses
to run without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LayerTracer  # noqa: E402

from repro.canonical import canonical_json  # noqa: E402
from repro.runner.registry import available_scenarios  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section: str) -> dict:
    return {entry["name"]: entry for entry in SPEC[section]}


def test_end_to_end_names_units_and_direction_match_the_spec():
    declared = _declared("end_to_end")
    assert set(declared) == set(run.END_TO_END_UNITS)
    for name, unit in run.END_TO_END_UNITS.items():
        assert NAME.fullmatch(name)
        assert declared[name]["unit"] == unit
        assert declared[name]["better"] in ("lower", "higher")
        assert 0 < declared[name]["bound"] <= 0.25


def test_per_layer_names_units_and_direction_match_the_spec():
    declared = _declared("per_layer")
    units = run.per_layer_units(list(available_scenarios()))
    assert set(declared) == set(units)
    for name, unit in units.items():
        assert NAME.fullmatch(name)
        assert declared[name]["unit"] == unit
        assert declared[name]["better"] in ("lower", "higher")


def test_workloads_match_the_spec():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_seed_offsets_every_cell_seed():
    base = wl.build_cells("contended", 0)
    shifted = wl.build_cells("contended", 7)
    assert [cell.cell_id for cell in shifted] == [cell.cell_id for cell in base]
    assert all(moved.params.seed == cell.params.seed + 7
               for cell, moved in zip(base, shifted))


def _traced_counts(cells):
    checks = wl.CellChecks(wl.load_golden(ROOT / "tests" / "golden", cells))
    tracer = LayerTracer().install()
    try:
        wl.run_pass(cells, checks)
    finally:
        tracer.uninstall()
    assert (checks.attempted, checks.failed) == (len(cells), 0), checks.messages
    return tracer.totals()[0]


def test_traced_counts_repeat_and_results_match_the_goldens():
    # one cell per locking variant plus an MVCC and an isolation-checked cell
    wanted = {"cc_compare/2PL without control/N=100",
              "deadlock_resolution/wound-wait without control/N=100",
              "deadlock_resolution/wait-die without control/N=100",
              "isolation_tradeoff/SI without control/N=100"}
    cells = [cell for cell in wl.build_cells("contended", 0) if cell.cell_id in wanted]
    assert len(cells) == len(wanted)
    first, second = _traced_counts(cells), _traced_counts(cells)
    assert first == second
    for key in ("sim.timeout", "sim.events", "tp.workload", "cc.access", "cc.blocked",
                "cc.aborts_deadlock", "cc.aborts_wound", "cc.aborts_die",
                "cc.isolation_check", "core.gate_submit"):
        assert first[key] > 0, key


def test_tracer_restores_every_entry_point():
    from repro.sim.engine import Simulator

    original = Simulator.__dict__["timeout"]
    tracer = LayerTracer().install()
    assert Simulator.__dict__["timeout"] is not original
    tracer.uninstall()
    assert Simulator.__dict__["timeout"] is original


def test_perturbed_golden_metric_fails_the_check():
    cells = wl.build_cells("contended", 0)[:2]
    golden = wl.load_golden(ROOT / "tests" / "golden", cells)
    metrics = json.loads(golden[cells[0].cell_id])
    metrics["commits"] += 1.0
    golden[cells[0].cell_id] = canonical_json(metrics)
    checks = wl.CellChecks(golden)
    wl.run_pass(cells, checks)
    assert (checks.attempted, checks.failed) == (2, 1)


def test_service_cold_results_are_checked_against_an_earlier_repetition(tmp_path):
    cells = wl.build_cells("service", 1)[:2]
    first = wl.run_service_rep(cells, wl.CellChecks(None), tmp_path, warm_jobs=1)
    reference = dict(first.metrics)
    metrics = json.loads(reference[cells[0].cell_id])
    metrics["commits"] += 1.0
    reference[cells[0].cell_id] = canonical_json(metrics)
    checks = wl.CellChecks(None)
    second = wl.run_service_rep(cells, checks, tmp_path, reference, warm_jobs=1)
    assert second.metrics == first.metrics
    # two cold cells and two warm ones; the perturbed cold cell fails
    assert (checks.attempted, checks.failed) == (4, 1), checks.messages


def test_a_cell_raising_in_every_pass_is_counted_not_fatal(tmp_path, monkeypatch):
    cells = wl.build_cells("contended", 1)[:2]
    execute = wl.execute_run_spec

    def failing(cell):
        if cell.cell_id == cells[0].cell_id:
            raise RuntimeError("injected")
        return execute(cell)

    monkeypatch.setattr(wl, "execute_run_spec", failing)
    checks = wl.CellChecks(None)
    metrics, _ = run.end_to_end(wl, "contended", cells, checks, 0.0, tmp_path)
    assert (checks.attempted, checks.failed) == (4, 2), checks.messages
    assert metrics["wall_s"]["value"] > 0


def _checkout(tmp_path: Path, with_program: bool) -> Path:
    """A copy of what a checkout holds: the benchmark, and the program if asked."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests" / "golden", tmp_path / "tests" / "golden",
                        ignore=ignore)
    return tmp_path


def _run(checkout: Path, workload: str, seed: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=checkout, timeout=300)


def test_perturbed_golden_metric_makes_the_command_exit_nonzero(tmp_path):
    checkout = _checkout(tmp_path, with_program=True)
    path = checkout / "tests" / "golden" / "probe_calibration.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["cells"][0]["metrics"]["commits"] += 1.0
    path.write_text(json.dumps(payload), encoding="utf-8")
    done = _run(checkout, "contended", 0)
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    # two passes of 54 cells; the perturbed cell fails in both
    assert result["failed"] == 2 and result["attempted"] == 108


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_command_refuses_to_run_without_the_program(tmp_path, workload):
    done = _run(_checkout(tmp_path, with_program=False), workload, 1)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
