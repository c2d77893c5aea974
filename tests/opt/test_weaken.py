"""End-to-end tests for oracle-guided barrier weakening."""

import pytest

from repro.api import check_module, compile_source, port_module
from repro.core.config import PortingLevel
from repro.ir.instructions import MemoryOrder
from repro.ir.verifier import verify_module
from repro.opt import Oracle, optimize_module
from repro.opt.candidates import enumerate_candidates
from repro.vm.costs import CostModel

SPINLOCK = """
int lock = 0;
int shared_data = 0;

void worker() {
    while (atomic_cmpxchg(&lock, 0, 1) != 0) { }
    shared_data = shared_data + 1;
    lock = 0;
}

void thread_fn() {
    worker();
}

int main() {
    int t = thread_create(thread_fn);
    worker();
    thread_join(t);
    assert(shared_data == 2);
    return 0;
}
"""

MESSAGE_PASSING = """
int data = 0;
int flag = 0;

void producer() {
    data = 1;
    flag = 1;
}

int main() {
    int t = thread_create(producer);
    while (flag == 0) { }
    assert(data == 1);
    thread_join(t);
    return 0;
}
"""


def _ported(source, name="m"):
    module = compile_source(source, name)
    ported, _report = port_module(module, PortingLevel.ATOMIG)
    return ported


def test_spinlock_weakens_and_keeps_verdict():
    ported = _ported(SPINLOCK, "spinlock")
    optimized, report = optimize_module(ported)
    assert report.baseline_outcome == "ok"
    assert report.verdict_preserved
    assert report.cycles_saved > 0
    assert report.accesses_weakened > 0
    verify_module(optimized)
    # The oracle's word, independently re-checked.
    assert check_module(optimized, model="wmm", max_steps=2500).ok


def test_input_module_is_not_mutated():
    ported = _ported(SPINLOCK, "spinlock")
    before = [
        instr.order for instr in ported.instructions()
        if hasattr(instr, "order")
    ]
    optimize_module(ported)
    after = [
        instr.order for instr in ported.instructions()
        if hasattr(instr, "order")
    ]
    assert after == before


def test_weakening_is_actually_necessary_somewhere():
    """The ported MP shape must keep release/acquire on the flag."""
    ported = _ported(MESSAGE_PASSING, "mp")
    optimized, report = optimize_module(ported)
    assert report.verdict_preserved
    # Weakening everything to relaxed would break MP, so at least one
    # site keeps an ordering constraint (or froze at SC).
    keeping = [
        instr for instr in optimized.instructions()
        if getattr(instr, "order", None) in (
            MemoryOrder.ACQUIRE, MemoryOrder.RELEASE,
            MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST,
        )
    ]
    assert keeping or report.frozen


def test_buggy_module_verdict_preserved_as_violation():
    """A violating baseline stays violating — never 'fixed' silently."""
    module = compile_source("""
_Atomic int x = 0;
int main() {
    int t = thread_create(bump);
    bump();
    thread_join(t);
    assert(x == 1);
    return 0;
}

void bump() {
    atomic_fetch_add(&x, 1);
}
""", "buggy")
    ported, _report = port_module(module, PortingLevel.ATOMIG)
    baseline = check_module(ported, model="wmm", max_steps=2500)
    assert not baseline.ok
    optimized, report = optimize_module(ported)
    assert report.baseline_outcome == "violation"
    assert report.final_outcome == "violation"
    assert report.verdict_preserved


def test_missing_entry_is_a_note_not_a_crash():
    module = compile_source("int helper() { return 1; }", "noentry")
    optimized, report = optimize_module(module)
    assert report.notes == [
        "no entry function @main; module left unoptimized"
    ]
    assert report.candidates == 0
    assert not report.weakened


def test_truncated_baseline_reports_no_savings():
    """A baseline cut short by its budget certifies nothing, so the
    report must show the module's cost unchanged, not a saving."""
    ported = _ported(SPINLOCK, "spinlock")
    _optimized, report = optimize_module(ported, max_states=2)
    assert report.baseline_outcome == "truncated"
    assert report.barrier_cost_before > 0
    assert report.barrier_cost_after == report.barrier_cost_before
    assert report.cycles_saved == 0
    assert report.to_dict()["cycles_saved"] == 0


def test_report_attached_to_module_metadata():
    ported = _ported(SPINLOCK, "spinlock")
    optimized, report = optimize_module(ported)
    payload = optimized.metadata["optimization_report"]
    assert payload == report.to_dict()
    assert payload["verdict_preserved"]


def test_oracle_caches_repeat_verdicts():
    ported = _ported(SPINLOCK, "spinlock")
    oracle = Oracle(ported)
    oracle.establish()
    checks = oracle.checks_run
    assert oracle.matches()  # the baseline's own state
    assert oracle.checks_run == checks
    assert oracle.cache_hits == 1


def test_oracle_budget_derived_from_baseline():
    ported = _ported(SPINLOCK, "spinlock")
    oracle = Oracle(ported, max_states=400_000)
    result = oracle.establish()
    assert oracle.budget >= result.states_explored
    assert oracle.budget <= 400_000


def test_pipeline_integration_attaches_optimization():
    module = compile_source(SPINLOCK, "spinlock")
    ported, report = port_module(
        module, PortingLevel.ATOMIG, optimize=True
    )
    assert report.optimization
    assert report.optimization["verdict_preserved"]
    assert report.to_dict()["optimization"] == report.optimization
    # The returned module is the weakened one.
    assert any(
        getattr(instr, "order", None) is MemoryOrder.RELAXED
        for instr in ported.instructions()
    )


def test_rounds_walk_the_full_ladder():
    """Multi-rung descent: stores reach RELAXED where certified."""
    ported = _ported(SPINLOCK, "spinlock")
    optimized, report = optimize_module(ported)
    relaxed_stores = [
        entry for entry in report.weakened
        if entry["kind"] == "store" and entry["after"] == "relaxed"
    ]
    assert report.rounds >= 2
    assert relaxed_stores or report.frozen
