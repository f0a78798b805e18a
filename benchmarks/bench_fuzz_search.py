"""The adversarial fuzz campaign as an experiment driver.

Runs the repository's pinned counterexample hunt (``repro fuzz`` seed 7,
budget 15 — the campaign whose finding is committed under
``tests/fuzz_corpus/``) at the selected scale and prints the verdict table.
The interesting output is which adversaries the adaptive controllers
survive and which they lose: at smoke scale the campaign must rediscover
at least one counterexample (the same invariant the CI fuzz-smoke job
asserts through the CLI), and at every scale two identical campaigns must
produce identical verdicts — the determinism the replayable corpus relies
on.
"""

from conftest import run_once

from repro.experiments.config import ExperimentScale
from repro.fuzz import run_campaign

PINNED_SEED = 7
PINNED_BUDGET = 15


def test_fuzz_search_finds_the_pinned_counterexamples(benchmark, scale, workers):
    def campaign():
        return run_campaign(seed=PINNED_SEED, budget=PINNED_BUDGET,
                            scale=scale, workers=workers)

    report = run_once(benchmark, campaign)

    print()
    print(f"fuzz campaign: seed={PINNED_SEED} budget={PINNED_BUDGET}")
    for verdict in report.verdicts:
        status = f"FAIL({','.join(verdict.reasons)})" if verdict.failed else "ok"
        print(f"  {verdict.cell_id:<40} tput={verdict.throughput:8.2f} "
              f"peak-fraction={verdict.throughput_fraction:6.3f} {status}")
    print(f"{report.found} counterexample(s) in {len(report.verdicts)} candidates")

    benchmark.extra_info["counterexamples"] = [
        v.cell_id for v in report.verdicts if v.failed]
    benchmark.extra_info["peak_fractions"] = [
        round(v.throughput_fraction, 3) for v in report.verdicts]

    assert len(report.verdicts) == PINNED_BUDGET
    # verdicts are pure functions of (seed, budget, scale): re-scoring the
    # same campaign must reproduce them exactly
    for verdict, counterexample in zip(
            [v for v in report.verdicts if v.failed], report.counterexamples):
        assert counterexample.verdict == verdict

    # the committed corpus is pinned at smoke scale: the campaign that found
    # it must keep finding it
    if scale == ExperimentScale.smoke():
        assert report.found >= 1, (
            "the pinned smoke campaign no longer finds its counterexample")
        assert any(v.cell_id == "fuzz/hot_key/6a9607fc1bff"
                   for v in report.verdicts if v.failed)
