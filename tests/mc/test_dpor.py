"""Source-DPOR backend: verdict identity, reduction wins, plumbing.

The DPOR explorer (``repro.mc.dpor``) must be a drop-in verdict oracle:
same outcome as the sleep-set backend on every program, under every
model.  Where the two differ is *cost* — DPOR explores one
interleaving per happens-before equivalence class, which wins big on
conflict-light programs (locks, mostly-disjoint data) and loses to the
stateful sleep+dedup engine on convergent spin loops (where distinct
interleavings collapse into few unique states).  Both directions are
pinned here.
"""

import json

import pytest

from repro.api import compile_source, port_module
from repro.core.config import PortingLevel
from repro.mc.explorer import ExplorationStats, check_module
from repro.mc.litmus import LITMUS_TESTS

BOUNDS = dict(max_steps=600, max_states=400_000)
CORPUS = ("message_passing", "ck_ring", "ck_spinlock_cas", "ck_sequence",
          "lf_hash")


def _ported(name):
    from repro.bench.corpus import BENCHMARKS

    bench = BENCHMARKS[name]
    module, _report = port_module(
        compile_source(bench.mc_source(), name), PortingLevel.ATOMIG
    )
    return module


def _outcome(result):
    if result.violation is not None:
        return "violation"
    if result.deadlock:
        return "deadlock"
    return "ok"


# -- verdict identity -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_dpor_matches_expected(name):
    source, expected = LITMUS_TESTS[name]
    module = compile_source(source, f"litmus_{name}")
    for model, want_ok in expected.items():
        result = check_module(module, model=model, por="dpor", **BOUNDS)
        assert result.ok == want_ok, (name, model)


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("model", ["tso", "wmm"])
def test_corpus_dpor_matches_sleep(name, model):
    module = _ported(name)
    sleep = check_module(module, model=model, por="sleep", **BOUNDS)
    dpor = check_module(module, model=model, por="dpor", **BOUNDS)
    assert _outcome(sleep) == _outcome(dpor), (name, model)
    assert sleep.truncated == dpor.truncated, (name, model)


# -- reduction behaviour ----------------------------------------------------


def test_dpor_beats_sleep_on_conflict_light_program():
    """The headline win: lock-based code has few reversible races."""
    module = _ported("ck_spinlock_cas")
    sleep = check_module(module, model="wmm", por="sleep", **BOUNDS)
    dpor = check_module(module, model="wmm", por="dpor", **BOUNDS)
    assert dpor.stats.states_visited < sleep.stats.states_visited
    assert dpor.stats.equivalence_classes > 0


def test_dpor_stutter_applies_cycle_proviso():
    """A node whose only scheduled action spins must still expand.

    Regression: on this *unported* racy message-passing program the
    root's first pick is the reader's spin re-read — a self-loop.
    Sleeping it without the cycle proviso exhausted the node with the
    writer ignored forever, reporting ok where every other backend
    finds the WMM violation.
    """
    source = """
    int flag = 0;
    int msg = 0;
    void writer() {
        msg = 42;
        flag = 1;
    }
    int main() {
        int t = thread_create(writer);
        int data;
        while (flag != 1) { }
        data = msg;
        assert(data == 42);
        thread_join(t);
        return 0;
    }
    """
    module = compile_source(source, "mp_unported")
    for model in ("sc", "tso", "wmm"):
        sleep = check_module(module, model=model, por="sleep", **BOUNDS)
        dpor = check_module(module, model=model, por="dpor", **BOUNDS)
        assert _outcome(sleep) == _outcome(dpor), model
    assert _outcome(check_module(module, model="wmm", por="dpor",
                                 **BOUNDS)) == "violation"


CAS_LOCK = """
int lock_word = 0;
int counter = 0;
void thread_fn() {{
    while (atomic_cmpxchg_explicit(&lock_word, 0, 1, memory_order_relaxed) != 0) {{ }}
    int c = counter;
    counter = c + 1;
    atomic_store_explicit(&lock_word, 0, memory_order_{thread_unlock});
}}
int main() {{
    int t = thread_create(thread_fn);
    while (atomic_cmpxchg_explicit(&lock_word, 0, 1, memory_order_relaxed) != 0) {{ }}
    int c = counter;
    counter = c + 1;
    atomic_store_explicit(&lock_word, 0, memory_order_{main_unlock});
    thread_join(t);
    assert(counter == 2);
    return 0;
}}
"""
UNLOCK_ORDERS = ("relaxed", "release", "seq_cst")


@pytest.mark.parametrize("main_unlock", UNLOCK_ORDERS)
@pytest.mark.parametrize("thread_unlock", UNLOCK_ORDERS)
def test_dpor_reverses_races_behind_an_rmw_reservation(main_unlock,
                                                       thread_unlock):
    """Regression: a relaxed-CAS spin lock with per-thread unlock orders.

    At the root both CAS execs are enabled.  DPOR used to race the
    other thread's exec against main's rmw-store, which it can never
    precede: main's reservation disables it from main's exec on.  The
    reversal then landed after main's exec, so the thread-first order
    was never explored, and a relaxed unlock in ``thread_fn`` passed as
    ok.  Every backend must agree, and a relaxed unlock on either side
    lets the critical sections overlap under wmm.
    """
    module = compile_source(
        CAS_LOCK.format(main_unlock=main_unlock, thread_unlock=thread_unlock),
        f"cas_lock_{main_unlock}_{thread_unlock}",
    )
    outcomes = {
        (por, macro): _outcome(check_module(module, model="wmm", por=por,
                                            macro=macro, **BOUNDS))
        for por, macro in (("none", "off"), ("sleep", "on"),
                           ("dpor", "on"), ("dpor", "off"))
    }
    expected = ("violation" if "relaxed" in (main_unlock, thread_unlock)
                else "ok")
    assert set(outcomes.values()) == {expected}, outcomes


def test_dpor_counters_populated():
    source, _expected = LITMUS_TESTS["SB"]
    module = compile_source(source, "litmus_SB")
    result = check_module(module, model="wmm", por="dpor", **BOUNDS)
    stats = result.stats
    assert stats.por == "dpor"
    assert stats.equivalence_classes > 0
    assert stats.races_detected > 0


# -- knob resolution --------------------------------------------------------


def test_resolve_reduction_defaults():
    """check_module defaults to sleep sets with macro-stepping on."""
    source, _expected = LITMUS_TESTS["SB"]
    module = compile_source(source, "litmus_SB")
    default = check_module(module, model="wmm", **BOUNDS)
    explicit = check_module(module, model="wmm", por="sleep", macro="on",
                            **BOUNDS)
    assert (default.stats.por, default.stats.macro) == ("sleep", "on")
    assert default.states_explored == explicit.states_explored
    assert default.stats.transitions == explicit.stats.transitions


def test_resolve_reduction_rejects_unknown():
    module = compile_source(LITMUS_TESTS["SB"][0], "litmus_SB")
    for knobs in ({"por": "bogus"}, {"macro": "sometimes"},
                  {"macro": True}):
        with pytest.raises(ValueError):
            check_module(module, **knobs)


# -- stats schema / provenance ----------------------------------------------


def test_stats_json_schema_and_provenance():
    source, _expected = LITMUS_TESTS["MP"]
    module = compile_source(source, "litmus_MP")
    result = check_module(module, model="wmm", por="dpor", **BOUNDS)
    payload = json.loads(result.stats.to_json())
    assert payload["schema"] == ExplorationStats.SCHEMA == 3
    assert payload["por"] == "dpor"
    assert payload["macro"] == "on"
    assert "engine" not in payload
    for key in ("races_detected", "backtrack_points",
                "wakeup_reexplorations", "equivalence_classes"):
        assert key in payload
    assert str(result.stats).startswith("[dpor/macro=on] ")


def test_format_exploration_stats_shows_dpor_rows():
    from repro.core.report import format_exploration_stats

    source, _expected = LITMUS_TESTS["MP"]
    module = compile_source(source, "litmus_MP")
    result = check_module(module, model="wmm", por="dpor", **BOUNDS)
    text = format_exploration_stats(result.stats)
    assert "races detected" in text
    assert "equivalence classes" in text
    assert "por=dpor" in text


# -- plumbing ---------------------------------------------------------------


def test_check_task_carries_por():
    from repro.mc.litmus import LITMUS_TESTS as GALLERY
    from repro.mc.parallel import CheckTask

    source, expected = GALLERY["SB"]
    task = CheckTask(name="sb", source=source, model="wmm", level=None,
                     por="dpor", max_steps=600)
    result = task.run()
    assert result.ok == expected["wmm"]
    assert result.stats.por == "dpor"


def test_oracle_cache_key_ignores_por():
    """A verdict probed under one backend serves every backend."""
    from repro.opt.oracle import Oracle

    sleep = Oracle(model="wmm", por="sleep")
    dpor = Oracle(model="wmm", por="dpor")
    none = Oracle(model="wmm", por="none", macro="off")
    text = "@main { entry0: ret 0 }"
    assert sleep._digest(text) == dpor._digest(text) == none._digest(text)


def test_api_check_module_accepts_por():
    from repro import api

    source, _expected = LITMUS_TESTS["MP"]
    module = compile_source(source, "litmus_MP")
    result = api.check_module(module, model="wmm", por="dpor",
                              max_steps=600)
    assert result.stats.por == "dpor"
