"""Oracle hardening tests: cache keys and the robustness fast path."""

import pytest

from repro.api import compile_source, port_module
from repro.core.config import PortingLevel
from repro.ir.instructions import MemoryOrder, Store
from repro.ir.printer import print_module
from repro.opt import Oracle, optimize_module

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
    return ported


def _release_store_candidate(ported):
    """A genuinely different candidate that stays robust.

    Demoting SC stores to release is exactly the optimizer's first
    ladder step; release stores still publish the lock word, so the
    safe-lock pruning keeps the module robust.
    """
    candidate = ported.clone()
    for instr in candidate.instructions():
        if isinstance(instr, Store) and instr.order is MemoryOrder.SEQ_CST:
            instr.order = MemoryOrder.RELEASE
    return candidate


# -- cache-key hardening ---------------------------------------------------


def test_digest_keys_on_every_configuration_parameter():
    """Two oracles differing in any verdict-relevant knob must never
    share verdicts."""
    text = print_module(_ported())
    base = dict(model="wmm", max_steps=2500, max_states=400_000)
    reference = Oracle(**base)._digest(text)
    variants = [
        {"model": "tso"},
        {"max_steps": 1000},
        {"max_states": 50_000},
    ]
    for override in variants:
        other = Oracle(**{**base, **override})._digest(text)
        assert other != reference, override


def test_digest_is_stable_for_identical_configuration():
    text = print_module(_ported())
    a = Oracle(model="wmm")._digest(text)
    b = Oracle(model="wmm")._digest(text)
    assert a == b


def test_digest_differs_across_module_texts():
    oracle = Oracle()
    ported = _ported()
    text = print_module(ported)
    assert oracle._digest(text) != oracle._digest(text + "\n")


def test_verdicts_do_not_leak_across_models():
    ported = _ported()
    wmm = Oracle(model="wmm", robustness=False)
    tso = Oracle(model="tso", robustness=False)
    wmm.establish(ported)
    tso.establish(ported)
    key_wmm = wmm._digest(print_module(ported))
    key_tso = tso._digest(print_module(ported))
    assert key_wmm != key_tso


# -- robustness fast path --------------------------------------------------


def test_fast_path_answers_without_exploration():
    ported = _ported()
    oracle = Oracle(model="wmm", robustness=True)
    oracle.establish(ported)
    assert oracle.baseline_robust
    checks_before = oracle.checks_run
    candidate = _release_store_candidate(ported)
    assert oracle.verdict(candidate) == oracle.baseline_outcome
    assert oracle.robustness_hits == 1
    assert oracle.checks_run == checks_before  # no exploration happened
    # The answer is cached: asking again is a cache hit, not a re-proof.
    robustness_checks = oracle.robustness_checks
    oracle.verdict(candidate)
    assert oracle.robustness_checks == robustness_checks
    assert oracle.cache_hits >= 1


def test_fast_path_disabled_when_requested():
    ported = _ported()
    oracle = Oracle(model="wmm", robustness=False)
    oracle.establish(ported)
    assert not oracle.baseline_robust
    assert oracle.robustness_checks == 0


def test_counters_report_states_saved():
    ported = _ported()
    oracle = Oracle(model="wmm", robustness=True)
    oracle.establish(ported)
    oracle.verdict(_release_store_candidate(ported))
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
