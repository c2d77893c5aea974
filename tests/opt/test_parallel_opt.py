"""Tests for the batch optimize harness (Table 9's engine)."""

from repro.bench.corpus import BENCHMARKS
from repro.core.workers import run_batch
from repro.opt.parallel import OptimizeTask

NAMES = ("ck_spinlock_cas", "message_passing")


def _tasks():
    return [
        OptimizeTask(
            name=name, source=BENCHMARKS[name].mc_source(),
            level="atomig",
        )
        for name in NAMES
    ]


def test_sequential_batch_preserves_order_and_verdicts():
    reports = run_batch(_tasks())
    assert [r["module"] for r in reports] == [
        f"{name}.atomig" for name in NAMES
    ]
    for report in reports:
        assert report["verdict_preserved"]
        assert report["barrier_cost_after"] <= report["barrier_cost_before"]


def test_parallel_batch_matches_sequential():
    sequential = run_batch(_tasks())
    parallel = run_batch(_tasks(), jobs=2)
    for seq, par in zip(sequential, parallel):
        assert par["module"] == seq["module"]
        assert par["verdict_preserved"]
        assert par["barrier_cost_after"] == seq["barrier_cost_after"]
        assert par["weakened"] == seq["weakened"]
