"""Repair-seeded weakening: the optimizer starts from the minimal-
fence repaired module instead of the raw port.

A non-robust input normally forces the weakener's baseline check to
explore; with ``repair_seed=True`` the static repair runs first, the
baseline becomes robust, and the oracle answers its queries through
the robustness fast path — the repair evidence must land in
``report.repair`` and the saved exploration must be visible in the
counters.
"""

from repro.analysis.robustness import analyze_robustness
from repro.api import compile_source
from repro.mc.litmus import WEAKENED_LITMUS, weakened_source
from repro.opt import optimize_module
from repro.opt.parallel import OptimizeTask


def _relaxed_mp():
    _template, minimal, _too_weak = WEAKENED_LITMUS["MP"]
    overrides = {slot: "memory_order_relaxed" for slot in minimal}
    return compile_source(weakened_source("MP", overrides), "MP")


def test_repair_seed_repairs_then_weakens():
    optimized, report = optimize_module(
        _relaxed_mp(), model="wmm", require_marks=False, repair_seed=True,
    )
    assert report.repair, "repair evidence missing from the report"
    assert report.repair["robust_after"]
    assert report.baseline_robust
    assert report.verdict_preserved
    assert analyze_robustness(optimized, model="wmm").robust


def test_repair_seed_saves_exploration_on_non_robust_input():
    """A non-robust input with one over-strong access: the repair makes
    the baseline robust, then the oracle certifies the SC->acquire
    weakening through the fast path without exploring."""
    module = compile_source(weakened_source("MP", {
        "w_flag": "memory_order_relaxed",
        "r_flag": "memory_order_seq_cst",
    }), "MP")
    _optimized, seeded = optimize_module(
        module, model="wmm", require_marks=False, repair_seed=True,
    )
    assert seeded.baseline_robust
    assert seeded.weakened, "the over-strong load was not weakened"
    assert seeded.robustness_hits > 0
    assert seeded.robustness_states_saved > 0
    assert seeded.verdict_preserved


def test_repair_seed_noop_on_robust_input():
    module = compile_source(weakened_source("MP"), "MP")
    _optimized, report = optimize_module(
        module, model="wmm", require_marks=False, repair_seed=True,
    )
    assert report.repair["robust_after"]
    assert report.repair["rounds"] == []
    assert report.verdict_preserved


def test_optimize_task_carries_repair_seed_and_arch():
    _template, minimal, _too_weak = WEAKENED_LITMUS["MP"]
    overrides = {slot: "memory_order_relaxed" for slot in minimal}
    task = OptimizeTask(
        name="MP", source=weakened_source("MP", overrides), model="wmm",
        level=None, require_marks=False, repair_seed=True, arch="power",
    )
    report = task.run()
    assert report["repair"]["robust_after"]
    assert report["repair"]["arch"] == "power"
    assert report["verdict_preserved"]
