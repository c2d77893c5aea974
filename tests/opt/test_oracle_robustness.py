"""Oracle hardening tests: the robustness fast path and its counters."""

from repro.api import compile_source, port_module
from repro.core.config import PortingLevel
from repro.ir.instructions import MemoryOrder
from repro.ir.printer import print_module
from repro.opt import Oracle, enumerate_candidates, optimize_module
from repro.vm.costs import CostModel

TAS_SPINLOCK = """
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


def _ported(source=TAS_SPINLOCK, name="tas"):
    module = compile_source(source, name)
    ported, _report = port_module(module, PortingLevel.ATOMIG)
    # A disjoint copy: the session below writes the module in place.
    return ported.clone()


def _session(robustness=True):
    """An established oracle over a fresh port, tracking its candidates."""
    ported = _ported()
    oracle = Oracle(ported, model="wmm", robustness=robustness)
    oracle.establish()
    candidates = enumerate_candidates(ported, CostModel())
    oracle.track(candidates)
    return oracle, candidates


def _release_stores(oracle, candidates):
    """A genuinely different module state that stays robust.

    Demoting SC stores to release is exactly the optimizer's first
    ladder step; release stores still publish the lock word, so the
    safe-lock pruning keeps the module robust.  The stores are
    rewritten in place, through the session.
    """
    stores = [c for c in candidates if c.kind == "store"]
    assert stores
    for candidate in stores:
        assert candidate.proposal() is MemoryOrder.RELEASE
        oracle.apply(candidate)


# -- robustness fast path --------------------------------------------------


def test_fast_path_answers_without_exploration():
    oracle, candidates = _session()
    assert oracle.baseline_robust
    checks_before = oracle.checks_run
    _release_stores(oracle, candidates)
    assert oracle.verdict() == oracle.baseline_outcome
    assert oracle.robustness_hits == 1
    assert oracle.checks_run == checks_before  # no exploration happened
    # The answer is cached: asking again is a cache hit, not a re-proof.
    robustness_checks = oracle.robustness_checks
    oracle.verdict()
    assert oracle.robustness_checks == robustness_checks
    assert oracle.cache_hits >= 1


def test_fast_path_disabled_when_requested():
    oracle, _candidates = _session(robustness=False)
    assert not oracle.baseline_robust
    assert oracle.robustness_checks == 0


def test_counters_report_states_saved():
    oracle, candidates = _session()
    _release_stores(oracle, candidates)
    oracle.verdict()
    counters = oracle.counters()
    assert counters["robustness_hits"] == 1
    assert counters["robustness_states_saved"] == oracle.baseline_states
    assert counters["baseline_robust"] is True


def test_optimize_results_identical_with_and_without_fast_path():
    fast, fast_report = optimize_module(_ported(), robustness=True)
    slow, slow_report = optimize_module(_ported(), robustness=False)
    assert fast_report.verdict_preserved and slow_report.verdict_preserved
    assert fast_report.accesses_weakened == slow_report.accesses_weakened
    assert fast_report.fences_deleted == slow_report.fences_deleted
    assert fast_report.barrier_cost_after == slow_report.barrier_cost_after
    assert print_module(fast) == print_module(slow)
    assert fast_report.robustness_hits > 0
    assert slow_report.robustness_hits == 0
    assert fast_report.oracle_states < slow_report.oracle_states


def test_optimization_report_serializes_fast_path_counters():
    _optimized, report = optimize_module(_ported(), robustness=True)
    payload = report.to_dict()
    for key in ("robustness_checks", "robustness_hits",
                "robustness_states_saved", "baseline_robust"):
        assert key in payload
    assert payload["baseline_robust"] is True
