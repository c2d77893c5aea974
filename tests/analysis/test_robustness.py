"""Tests for the static robustness analysis (critical cycles).

Covers the litmus gallery (relaxed variants must be non-robust with a
plausible critical cycle; minimal and fully-fenced variants must be
robust), the order-aware safe-lock pruning, the dead-fence lint, and
the agreement between the static verdict and the model checker.
"""

import pytest

from repro.analysis.robustness import (
    RobustnessAnalyzer,
    analyze_robustness,
    find_dead_fences,
)
from repro.api import check_module, compile_source, port_module
from repro.core.config import PortingLevel
from repro.mc.litmus import (
    LITMUS_TESTS,
    WEAKENED_LITMUS,
    expected_verdict,
    run_litmus,
    weakened_source,
)


def _weakened_module(name, overrides=None):
    return compile_source(weakened_source(name, overrides), name)


def _litmus_module(name):
    source, _expected = LITMUS_TESTS[name]
    return compile_source(source, name)


# -- litmus gallery: relaxed variants are non-robust -----------------------


@pytest.mark.parametrize(
    "name,label",
    [
        (name, label)
        for name, (_t, _m, too_weak) in sorted(WEAKENED_LITMUS.items())
        for label in sorted(too_weak)
    ],
)
def test_too_weak_litmus_is_non_robust(name, label):
    _template, _minimal, too_weak = WEAKENED_LITMUS[name]
    module = _weakened_module(name, too_weak[label])
    result = analyze_robustness(module, model="wmm")
    assert not result.robust
    assert result.witnesses
    assert result.delayable_pairs > 0


@pytest.mark.parametrize("name", sorted(WEAKENED_LITMUS))
def test_minimal_orders_are_robust(name):
    result = analyze_robustness(_weakened_module(name), model="wmm")
    assert result.robust, result.render()
    assert not result.witnesses


@pytest.mark.parametrize("name", sorted(WEAKENED_LITMUS))
def test_fully_fenced_litmus_is_robust(name):
    _template, minimal, _too_weak = WEAKENED_LITMUS[name]
    sc_orders = {slot: "memory_order_seq_cst" for slot in minimal}
    result = analyze_robustness(
        _weakened_module(name, sc_orders), model="wmm"
    )
    assert result.robust, result.render()


def test_relaxed_mp_witness_names_both_locations():
    module = _weakened_module(
        "MP",
        {"w_flag": "memory_order_relaxed",
         "r_flag": "memory_order_relaxed"},
    )
    result = analyze_robustness(module, model="wmm")
    assert not result.robust
    witness = result.witnesses[0]
    # The delayable pair and the cycle carry per-access provenance.
    assert len(witness.delay) == 2
    for prov in witness.delay:
        assert {"function", "block", "index", "instr", "order"} <= set(prov)
    kinds = [edge["kind"] for edge in witness.edges]
    assert kinds[0] == "po-delay"
    assert kinds[-1] == "conflict"
    text = witness.describe()
    assert "data" in text and "flag" in text


def test_relaxed_iriw_is_non_robust_with_single_access_writers():
    # IRIW's writer threads contribute one access each: the cycle has
    # consecutive conflict edges, which minimal-cycle enumeration must
    # allow.
    _template, _minimal, too_weak = WEAKENED_LITMUS["IRIW"]
    module = _weakened_module("IRIW", too_weak["reader-relaxed"])
    result = analyze_robustness(module, model="wmm")
    assert not result.robust


# -- classic litmus tests: hard expectations per model ---------------------


@pytest.mark.parametrize(
    "name,model,robust",
    [
        ("SB", "tso", False),
        ("SB", "wmm", False),
        ("MP", "tso", True),       # TSO only delays store->load
        ("MP", "wmm", False),
        ("MP+atomics", "wmm", True),
        ("MP+fences", "wmm", True),
        ("SB+atomics", "wmm", True),
        ("CAS-overtake", "tso", True),   # RMW drains the TSO buffer
        ("CAS-overtake", "wmm", False),  # relaxed CAS halves may split
    ],
)
def test_litmus_classification(name, model, robust):
    result = analyze_robustness(_litmus_module(name), model=model)
    assert result.robust == robust, result.render()


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
@pytest.mark.parametrize("model", ["tso", "wmm"])
def test_litmus_robustness_is_sound(name, model):
    """Robust => the model's verdict equals the SC verdict."""
    result = analyze_robustness(_litmus_module(name), model=model)
    if result.robust:
        assert expected_verdict(name, model) == expected_verdict(name, "sc")


def test_sc_is_always_robust():
    result = analyze_robustness(_litmus_module("SB"), model="sc")
    assert result.robust
    assert result.nodes == 0


# -- safe-lock pruning -----------------------------------------------------

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


def test_unfenced_spinlock_is_non_robust_under_wmm():
    # The plain unlock store does not release: the lock word is not a
    # *safe* lock, so critical-section conflicts must stay in the graph.
    module = compile_source(TAS_SPINLOCK, "tas")
    result = analyze_robustness(module, model="wmm")
    assert not result.robust
    # ... and exploration agrees that this module misbehaves.
    assert not check_module(module, model="wmm", max_steps=2500).ok


def test_ported_spinlock_is_robust_via_safe_lock_pruning():
    module = compile_source(TAS_SPINLOCK, "tas")
    ported, _report = port_module(module, PortingLevel.ATOMIG)
    result = analyze_robustness(ported, model="wmm")
    assert result.robust, result.render()
    assert any("lock" in note for note in result.notes)
    assert check_module(ported, model="wmm", max_steps=2500).ok


def test_pruning_is_per_query_not_destructive():
    # The same analyzer instance must answer tso and a fresh wmm
    # analyzer identically after a wmm query pruned edges in its view.
    module = compile_source(TAS_SPINLOCK, "tas")
    analyzer = RobustnessAnalyzer(module, model="wmm")
    first = analyzer.analyze()
    second = analyzer.analyze()
    assert first.robust == second.robust
    assert first.conflict_edges == second.conflict_edges


# -- analyze() witness quota -----------------------------------------------


def test_zero_witness_quota_still_detects_non_robustness():
    module = _weakened_module(
        "MP",
        {"w_flag": "memory_order_relaxed",
         "r_flag": "memory_order_relaxed"},
    )
    result = analyze_robustness(module, model="wmm", max_witnesses=0)
    assert not result.robust
    assert result.witnesses == []


def test_witness_quota_caps_storage():
    module = compile_source(TAS_SPINLOCK, "tas")
    result = analyze_robustness(module, model="wmm", max_witnesses=1)
    assert not result.robust
    assert len(result.witnesses) == 1


# -- result plumbing -------------------------------------------------------


def test_result_to_dict_and_render():
    result = analyze_robustness(_litmus_module("MP"), model="wmm")
    payload = result.to_dict()
    assert payload["module"] == "MP"
    assert payload["model"] == "wmm"
    assert payload["robust"] is False
    assert payload["witnesses"]
    assert all(
        {"delay", "edges"} <= set(w) for w in payload["witnesses"]
    )
    text = result.render()
    assert "NON-ROBUST" in text
    assert "critical cycle 1" in text


# -- checker pre-pass ------------------------------------------------------


def test_check_module_fast_path_skips_exploration():
    module = _litmus_module("MP+atomics")
    result = check_module(module, model="wmm", robustness=True)
    assert result.ok
    assert result.verdict_source == "robustness"
    assert result.states_explored == 0


def test_check_module_fast_path_agrees_with_exploration():
    module = _litmus_module("MP+atomics")
    fast = check_module(module, model="wmm", robustness=True)
    slow = check_module(module, model="wmm", robustness=False)
    assert slow.verdict_source == "exploration"
    assert fast.ok == slow.ok
    assert fast.outcome == slow.outcome


def test_check_module_falls_back_for_non_robust_modules():
    module = _litmus_module("MP")
    result = check_module(module, model="wmm", robustness=True)
    assert result.verdict_source == "exploration"
    assert not result.ok  # MP misbehaves under the WMM


# -- dead-fence lint -------------------------------------------------------

DEAD_FENCE_EXAMPLE = """
int data = 0;
int flag = 0;

void producer() {
    atomic_thread_fence(memory_order_seq_cst);
    data = 1;
    atomic_thread_fence(memory_order_seq_cst);
    flag = 1;
    atomic_thread_fence(memory_order_seq_cst);
}

int main() {
    int t = thread_create(producer);
    int f = flag;
    atomic_thread_fence(memory_order_seq_cst);
    int d = data;
    assert(f == 0 || d == 1);
    thread_join(t);
    return 0;
}
"""


def test_dead_fence_lint_flags_edge_fences_only():
    module = compile_source(DEAD_FENCE_EXAMPLE, "fences")
    findings = find_dead_fences(module)
    # Leading fence (nothing shared before it) and trailing fence
    # (nothing shared after it) are dead; the two middle fences order
    # real pairs and must not be flagged.
    assert len(findings) == 2
    reasons = sorted(f["reason"] for f in findings)
    assert reasons == [
        "no shared access after it on any path",
        "no shared access before it on any path",
    ]
    for finding in findings:
        assert {"function", "block", "index", "order", "reason"} <= set(
            finding
        )


def test_live_fences_are_not_flagged():
    source, _expected = LITMUS_TESTS["MP+fences"]
    module = compile_source(source, "mp_fences")
    assert find_dead_fences(module) == []


DEAD_FENCES_IN_MAIN_AND_DEAD_CODE = """
int data = 0;
int flag = 0;

void unused(int x) {
    atomic_thread_fence(memory_order_seq_cst);
    data = x;
    atomic_thread_fence(memory_order_seq_cst);
    flag = 1;
    atomic_thread_fence(memory_order_release);
}

void producer() {
    data = 1;
    atomic_thread_fence(memory_order_seq_cst);
    flag = 1;
}

int main() {
    atomic_thread_fence(memory_order_seq_cst);
    int t = thread_create(producer);
    int f = flag;
    atomic_thread_fence(memory_order_acquire);
    int d = data;
    thread_join(t);
    if (f == 1) {
        atomic_thread_fence(memory_order_seq_cst);
    }
    assert(f == 0 || d == 1);
    return 0;
}
"""


def test_dead_fences_are_placed_in_main_and_in_dead_functions():
    """Each finding names its function, block and index in the block,
    in main (entry and branch blocks) and in a function nothing calls,
    whose accesses never run and so never order anything."""
    module = compile_source(DEAD_FENCES_IN_MAIN_AND_DEAD_CODE, "dead")
    neither = "no shared access on either side on any path"
    assert [
        (f["function"], f["block"], f["index"], f["order"], f["reason"])
        for f in find_dead_fences(module)
    ] == [
        ("main", "entry0", 0, "seq_cst",
         "no shared access before it on any path"),
        ("main", "if.then1", 0, "seq_cst",
         "no shared access after it on any path"),
        ("unused", "entry0", 2, "seq_cst", neither),
        ("unused", "entry0", 5, "seq_cst", neither),
        ("unused", "entry0", 7, "release", neither),
    ]


# -- RMW half delay semantics ----------------------------------------------
#
# Only the read half of an RMW acquires and only the write half
# releases (mirroring machine.WindowEntry).  ``delayable_pairs()``
# exposes the per-half provenance, so these tests pin down which half
# blocks a delay.

ACQUIRE_RMW = """
int x = 0;
int y = 0;

void worker() {
    atomic_fetch_add_explicit(&x, 1, memory_order_acquire);
    atomic_store_explicit(&y, 1, memory_order_relaxed);
}

int main() {
    int t = thread_create(worker);
    atomic_store_explicit(&x, 5, memory_order_relaxed);
    int r = atomic_load_explicit(&y, memory_order_relaxed);
    thread_join(t);
    return 0;
}
"""

RELEASE_RMW = """
int x = 0;
int y = 0;

void worker() {
    atomic_store_explicit(&y, 1, memory_order_relaxed);
    atomic_fetch_add_explicit(&x, 1, memory_order_release);
}

int main() {
    int t = thread_create(worker);
    atomic_store_explicit(&x, 5, memory_order_relaxed);
    int r = atomic_load_explicit(&y, memory_order_relaxed);
    thread_join(t);
    return 0;
}
"""


def _worker_pairs(source, model):
    module = compile_source(source, "rmw_halves")
    analyzer = RobustnessAnalyzer(module, model=model)
    return [
        (a, b) for a, b in analyzer.delayable_pairs()
        if a["function"] == "worker"
    ]


def test_acquire_rmw_read_half_blocks_delay_but_write_half_does_not():
    pairs = _worker_pairs(ACQUIRE_RMW, "wmm")
    halves = {a["half"] for a, _b in pairs if a["kind"].startswith("rmw")}
    # The acquiring read half pins every later access; the write half
    # of the same instruction does not acquire, so the later relaxed
    # store may still overtake it.
    assert halves == {"write"}
    for a, b in pairs:
        assert a["order"] == "acquire"
        assert b["kind"] == "store"


def test_release_rmw_write_half_blocks_delay_but_read_half_does_not():
    pairs = _worker_pairs(RELEASE_RMW, "wmm")
    halves = {b["half"] for _a, b in pairs if b["kind"].startswith("rmw")}
    # The releasing write half must wait for every earlier access; the
    # read half of the same instruction does not release, so it may
    # still commit early.
    assert halves == {"read"}
    for _a, b in pairs:
        assert b["order"] == "release"


def test_only_one_half_of_an_rmw_is_ever_the_culprit():
    """Regression: the two halves of one instruction must be tracked
    independently — a repair that strengthens the wrong half would
    leave the delayable half uncovered."""
    module = compile_source(RELEASE_RMW, "rmw_halves")
    analyzer = RobustnessAnalyzer(module, model="wmm")
    rmw_sides = [
        b["half"] for _a, b in analyzer.delayable_pairs()
        if b["kind"].startswith("rmw")
    ]
    assert rmw_sides == ["read"]


def test_tso_rmw_halves_drain_the_buffer():
    """Under TSO an RMW drains the store buffer: neither half can be
    delayed past, and neither half can itself overtake."""
    for source in (ACQUIRE_RMW, RELEASE_RMW):
        module = compile_source(source, "rmw_halves")
        analyzer = RobustnessAnalyzer(module, model="tso")
        for a, b in analyzer.delayable_pairs():
            assert not a["kind"].startswith("rmw"), (a, b)
            assert not b["kind"].startswith("rmw"), (a, b)
            assert a["kind"] == "store" and b["kind"] == "load"


def test_delayable_pairs_order_is_deterministic():
    module = compile_source(ACQUIRE_RMW, "rmw_halves")
    first = RobustnessAnalyzer(module, model="wmm").delayable_pairs()
    second = RobustnessAnalyzer(module, model="wmm").delayable_pairs()
    assert first == second


def test_lint_report_carries_dead_fences():
    from repro.api import lint_module
    from repro.core.report import LINT_SCHEMA_VERSION

    module = compile_source(DEAD_FENCE_EXAMPLE, "fences")
    report = lint_module(module)
    payload = report.to_dict()
    assert payload["schema_version"] == LINT_SCHEMA_VERSION == 4
    assert len(payload["dead_fences"]) == 2
    assert "dead fences" in report.summary()
    assert "[dead-fence]" in report.render()
