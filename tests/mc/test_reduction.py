"""Verdict-equivalence of the reduced explorer against the oracle.

The partial-order reduction (sleep sets + macro-stepping + self-loop
pruning, DESIGN.md §4b) must never change a verdict: for every litmus
test and corpus program, the default reduced backend and the unreduced
oracle (``por="none"``) must agree on ``ok``/``outcome`` —
while exploring strictly fewer states on the programs with real
scheduling redundancy.
"""

import pytest

from repro.api import compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.bench.tables import TABLE2_BENCHMARKS, _TABLE2_LEVELS
from repro.core.config import PortingLevel
from repro.mc.explorer import check_module
from repro.mc.litmus import LITMUS_TESTS

BOUNDS = dict(max_steps=600, max_states=400_000)
#: The unreduced oracle's knobs.
UNREDUCED = dict(por="none")


def _knobs(reduce):
    return {} if reduce else UNREDUCED


def _both(module, model="wmm", **kwargs):
    kwargs = {**BOUNDS, **kwargs}
    oracle = check_module(module, model=model, **UNREDUCED, **kwargs)
    reduced = check_module(module, model=model, **kwargs)
    return oracle, reduced


@pytest.mark.parametrize("model", ["sc", "tso", "wmm"])
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_verdict_equivalence(name, model):
    source, _expected = LITMUS_TESTS[name]
    module = compile_source(source, name)
    oracle, reduced = _both(module, model=model)
    assert reduced.ok == oracle.ok
    assert reduced.outcome == oracle.outcome
    # Litmus tests have a single assert, so even the message must agree.
    assert reduced.violation == oracle.violation


@pytest.mark.parametrize("level_name,level", _TABLE2_LEVELS)
@pytest.mark.parametrize("name", TABLE2_BENCHMARKS)
def test_corpus_verdict_equivalence_wmm(name, level_name, level):
    module = compile_source(BENCHMARKS[name].mc_source(), name)
    ported, _report = port_module(module, level)
    oracle, reduced = _both(ported, model="wmm")
    assert reduced.ok == oracle.ok, f"{name}/{level_name}"
    assert reduced.outcome == oracle.outcome, f"{name}/{level_name}"
    assert reduced.states_explored <= oracle.states_explored


@pytest.mark.parametrize("name", ["message_passing", "ck_sequence", "lf_hash"])
def test_reduction_strictly_smaller(name):
    """The ISSUE's floor: strictly fewer explored states on MP, the
    seqlock and lf-hash (AtoMig level, where the paper's Table 2 says
    the programs verify)."""
    module = compile_source(BENCHMARKS[name].mc_source(), name)
    ported, _report = port_module(module, PortingLevel.ATOMIG)
    oracle, reduced = _both(ported, model="wmm")
    assert reduced.ok == oracle.ok
    assert reduced.states_explored < oracle.states_explored


# Two-lock (ABBA) deadlock expressed with the language's one *blocking*
# primitive: each "lock" is held by the thread that owns it and released
# only when that thread finishes, so acquiring the other lock is a
# thread_join — holder A takes A then wants B while holder B takes B
# then wants A, and both block forever.
DEADLOCK_SOURCE = """
int holder_a = 0;
int holder_b = 0;
int published = 0;

void a_then_b() {
    while (published == 0) { cpu_relax(); }
    thread_join(holder_b);
}

void b_then_a() {
    while (published == 0) { cpu_relax(); }
    thread_join(holder_a);
}

int main() {
    holder_a = thread_create(a_then_b);
    holder_b = thread_create(b_then_a);
    published = 1;
    thread_join(holder_a);
    return 0;
}
"""


@pytest.mark.parametrize("model", ["sc", "wmm"])
@pytest.mark.parametrize("reduce", [False, True])
def test_two_lock_deadlock_reported_with_trace(model, reduce):
    module = compile_source(DEADLOCK_SOURCE, "two_lock_deadlock")
    result = check_module(module, model=model, **_knobs(reduce), **BOUNDS)
    assert result.outcome == "deadlock"
    assert result.deadlock
    assert result.ok  # a deadlock is not an assertion violation
    assert not result.truncated
    assert result.deadlock_trace
    assert "deadlock" in result.deadlock_trace[-1]
    assert any("deadlocked state" in note for note in result.notes)


def test_spinlock_abba_is_a_livelock_not_a_deadlock():
    """Spin-based ABBA never deadlocks in the formal sense: the spin
    loops keep an action enabled forever, so the stuck executions form a
    cycle the dedup closes — a liveness bug a safety checker must
    terminate on without flagging ``deadlock``."""
    module = compile_source("""
int lock_a = 0;
int lock_b = 0;
int entered = 0;

void take(int *lock) {
    while (atomic_cmpxchg_explicit(lock, 0, 1, memory_order_acquire) != 0) {
        cpu_relax();
    }
}

void ab_then_ba() {
    take(&lock_b);
    while (entered == 0) { cpu_relax(); }
    take(&lock_a);
    lock_a = 0;
    lock_b = 0;
}

int main() {
    int t = thread_create(ab_then_ba);
    take(&lock_a);
    entered = 1;
    take(&lock_b);
    lock_b = 0;
    lock_a = 0;
    thread_join(t);
    return 0;
}
""", "abba")
    for reduce in (False, True):
        result = check_module(module, model="sc", **_knobs(reduce),
                              **BOUNDS)
        assert not result.deadlock
        assert not result.violation


def test_digest_has_no_small_int_collisions():
    """Python ``hash`` maps -1 and -2 to the same value; the dedup key
    must not (a silent collision could prune an unexplored state and
    mask a violation)."""
    from repro.mc.encode import cell_hash, state_digest
    from repro.mc.machine import Context, Machine
    from repro.mc.models import get_model

    assert hash(-1) == hash(-2)
    assert cell_hash(0, -1) != cell_hash(0, -2)
    module = compile_source(LITMUS_TESTS["SB"][0], "sb")
    machine = Machine(Context(module, get_model("sc")))
    interner = machine.ctx.interner
    addr = machine.ctx.global_addr["x"]
    digests = []
    for value in (-1, -2):
        state = machine.initial_state()
        state.mem_write(addr, value)
        digests.append(state_digest(state, interner))
    assert digests[0] != digests[1]
    # Deterministic across calls (it keys the visited set).
    assert state_digest(state, interner) == digests[1]


def test_digest_names_the_cell_holding_a_pending_value():
    """A private store of an uncommitted load leaves a pending value in
    memory.  No thread's content says which cell holds it, so the
    pending-cell term of the key must: two states that differ only
    there get different keys."""
    from repro.mc.encode import state_digest
    from repro.mc.machine import Context, Machine
    from repro.mc.models import get_model

    source = """
int x = 0;
int main() {
    int a = 0;
    int b = 0;
    a = x;
    assert(a + b == 0);
    return 0;
}
"""
    machine = Machine(Context(compile_source(source, "pending_cell"),
                              get_model("wmm")))
    interner = machine.ctx.interner
    state = machine.initial_state()
    (addr, token), = state.pending_mem.items()
    frame = state.threads[0].frames[-1]
    other, = [slot for slot in frame.alloca_addrs.values() if slot != addr]
    moved = state.clone()
    moved.mem_write(other, ("p", token))
    moved.mem_write(addr, 0)
    assert moved.canonical() != state.canonical()
    assert state_digest(moved, interner) != state_digest(state, interner)


def test_stats_attached_and_consistent():
    module = compile_source(BENCHMARKS["ck_spinlock_cas"].mc_source(), "cas")
    ported, _report = port_module(module, PortingLevel.ATOMIG)
    result = check_module(ported, model="wmm", **BOUNDS)
    stats = result.stats
    assert stats is not None
    assert stats.states_explored == result.states_explored
    assert stats.states_visited >= stats.states_explored
    assert stats.transitions >= stats.states_visited - 1
    assert stats.wall_seconds > 0
    assert stats.states_per_second > 0
    data = stats.to_dict()
    for key in ("states_explored", "states_visited", "transitions",
                "macro_steps", "ample_steps", "sleep_prunes", "loop_prunes",
                "dedup_hits", "peak_frontier", "wall_seconds",
                "states_per_second", "compression_ratio"):
        assert key in data
    assert "decisions" in stats.summary()
