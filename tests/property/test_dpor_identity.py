"""Property-based verdict identity: source-DPOR vs sleep-set backend.

The DPOR explorer is only admissible as a drop-in reduction (and the
oracle cache is only allowed to ignore ``por`` in its keys) if every
backend returns the same verdict on every program.  These properties
pin that across axes the hand-written tests cannot enumerate:

1. The litmus gallery under random models.
2. The weakened-litmus templates under *random memory-order
   assignments* — loads drawn from {relaxed, acquire, seq_cst}, stores
   from {relaxed, release, seq_cst} — which exercises every mix of
   immediate (SC/TSO) and windowed (WMM) operations, the boundary the
   footprinted-visible-step dependence in :mod:`repro.mc.dpor` lives
   on.
3. A relaxed-CAS spin lock under random per-thread CAS and unlock
   orders, each thread optionally taking the lock a second time,
   against both the sleep backend and the unreduced explorer: an rmw
   reservation disables the other thread's commits on the lock word,
   the dependence DPOR once raced at the wrong event, and once missed
   when a thread's second exec disabled the other's.
4. The in-place DPOR engine against a clone-snapshot reference: every
   node's state is copied with ``State.clone()`` when it opens, and
   every journal revert back to the node must reproduce that copy,
   ``OP_CLK`` clock-table entries included.  Random walks over the
   same opcodes live in ``tests/property/test_state_engine.py``.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a CI dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.api import compile_source
from repro.mc import dpor
from repro.mc.encode import state_digest, state_digest_fresh
from repro.mc.explorer import check_module
from repro.mc.litmus import (
    LITMUS_TESTS,
    WEAKENED_LITMUS,
    run_weakened_litmus,
)

BOUNDS = dict(max_steps=600, max_states=400_000)
MODELS = ("sc", "tso", "wmm")
LOAD_ORDERS = ("memory_order_relaxed", "memory_order_acquire",
               "memory_order_seq_cst")
STORE_ORDERS = ("memory_order_relaxed", "memory_order_release",
                "memory_order_seq_cst")

_MODULES = {}


def _litmus_module(name):
    if name not in _MODULES:
        source, _expected = LITMUS_TESTS[name]
        _MODULES[name] = compile_source(source, f"litmus_{name}")
    return _MODULES[name]


def _signature(result):
    """What identity means: outcome class and truncation agree."""
    return (result.outcome, result.truncated)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(LITMUS_TESTS)),
    model=st.sampled_from(MODELS),
)
def test_litmus_gallery_identity(name, model):
    module = _litmus_module(name)
    sleep = check_module(module, model=model, por="sleep", **BOUNDS)
    dpor = check_module(module, model=model, por="dpor", **BOUNDS)
    assert _signature(sleep) == _signature(dpor)
    # The gallery's expected verdicts double as an absolute anchor, so
    # a bug shared by both backends cannot hide behind the identity.
    _source, expected = LITMUS_TESTS[name]
    assert dpor.ok == expected[model]


@st.composite
def weakened_variants(draw):
    """A weakened-litmus template with a random valid order assignment.

    Template keys starting with ``r`` name loads, the rest stores; the
    pools keep the IR well-formed (loads cannot be release, stores
    cannot be acquire).
    """
    name = draw(st.sampled_from(sorted(WEAKENED_LITMUS)))
    _template, minimal, _too_weak = WEAKENED_LITMUS[name]
    overrides = {
        key: draw(st.sampled_from(
            LOAD_ORDERS if key.startswith("r") else STORE_ORDERS
        ))
        for key in sorted(minimal)
    }
    return name, overrides


@settings(max_examples=60, deadline=None)
@given(variant=weakened_variants(), model=st.sampled_from(MODELS))
def test_weakened_random_orders_identity(variant, model):
    name, overrides = variant
    sleep = run_weakened_litmus(name, overrides, model, por="sleep",
                                **BOUNDS)
    dpor = run_weakened_litmus(name, overrides, model, por="dpor",
                               **BOUNDS)
    assert _signature(sleep) == _signature(dpor), (name, model, overrides)


CAS_ORDERS = ("memory_order_relaxed", "memory_order_acquire",
              "memory_order_seq_cst")
CAS_LOCK = """
int lock_word = 0;
int counter = 0;

void worker() {{
    while (atomic_cmpxchg_explicit(&lock_word, 0, 1, {cas_worker}) != 0) {{ }}
    int c = counter;
    counter = c + 1;
    atomic_store_explicit(&lock_word, 0, {unlock_worker});
{again_worker}}}

int main() {{
    int t = thread_create(worker);
    while (atomic_cmpxchg_explicit(&lock_word, 0, 1, {cas_main}) != 0) {{ }}
    int c = counter;
    counter = c + 1;
    atomic_store_explicit(&lock_word, 0, {unlock_main});
{again_main}    thread_join(t);
    assert(counter == 2);
    return 0;
}}
"""


#: An empty second critical section, taken with the thread's orders.
AGAIN = """\
    while (atomic_cmpxchg_explicit(&lock_word, 0, 1, {cas}) != 0) {{ }}
    atomic_store_explicit(&lock_word, 0, {unlock});
"""


@settings(max_examples=40, deadline=None)
@given(
    cas_main=st.sampled_from(CAS_ORDERS),
    cas_worker=st.sampled_from(CAS_ORDERS),
    unlock_main=st.sampled_from(STORE_ORDERS),
    unlock_worker=st.sampled_from(STORE_ORDERS),
    twice_main=st.booleans(),
    twice_worker=st.booleans(),
    model=st.sampled_from(MODELS),
)
def test_cas_lock_random_orders_identity(cas_main, cas_worker, unlock_main,
                                         unlock_worker, twice_main,
                                         twice_worker, model):
    again_main = (AGAIN.format(cas=cas_main, unlock=unlock_main)
                  if twice_main else "")
    again_worker = (AGAIN.format(cas=cas_worker, unlock=unlock_worker)
                    if twice_worker else "")
    source = CAS_LOCK.format(cas_main=cas_main, cas_worker=cas_worker,
                             unlock_main=unlock_main,
                             unlock_worker=unlock_worker,
                             again_main=again_main,
                             again_worker=again_worker)
    module = compile_source(source, "cas_lock")
    full = check_module(module, model=model, por="none", **BOUNDS)
    sleep = check_module(module, model=model, por="sleep", **BOUNDS)
    dpor = check_module(module, model=model, por="dpor", **BOUNDS)
    assert _signature(full) == _signature(sleep) == _signature(dpor)


@contextmanager
def _clone_checked_dpor():
    """Run DPOR with every node revert checked against a clone snapshot.

    Each ``_Node`` copies the live state when it opens; each revert to
    a node's journal mark must then restore that copy exactly —
    canonical form, clock tables (which the digest excludes) and the
    incremental digest caches.  Nodes on the DFS path have strictly
    increasing marks, so the latest snapshot at a mark is the target's.
    Yields a one-item list counting the reverts checked.
    """
    real_explore, real_revert, real_node = (
        dpor.explore_dpor, dpor.revert, dpor._Node)
    live = {}
    snapshots = {}
    checked = [0]

    def explore(machine, state, *args):
        live["machine"], live["state"] = machine, state
        return real_explore(machine, state, *args)

    class SnapshotNode(real_node):
        __slots__ = ()

        def __init__(self, mark, event_depth, digest, enabled, sleep,
                     in_akey):
            super().__init__(mark, event_depth, digest, enabled, sleep,
                             in_akey)
            snapshots[mark] = (live["state"].clone(), digest)

    def revert(state, journal, mark):
        real_revert(state, journal, mark)
        reference, digest = snapshots[mark]
        interner = live["machine"].ctx.interner
        assert state.canonical() == reference.canonical()
        assert state.clocks == reference.clocks
        assert state_digest(state, interner) == digest
        assert state_digest_fresh(state, interner) == digest
        checked[0] += 1

    with mock.patch.object(dpor, "explore_dpor", explore), \
            mock.patch.object(dpor, "revert", revert), \
            mock.patch.object(dpor, "_Node", SnapshotNode):
        yield checked


@settings(max_examples=25, deadline=None)
@given(variant=weakened_variants(), model=st.sampled_from(MODELS))
def test_dpor_engines_agree_on_random_orders(variant, model):
    """Clock-table journaling: in-place DPOR == clone reference, counts too.

    The checked run must also explore exactly what the plain run does:
    the snapshots observe, they never steer.
    """
    name, overrides = variant
    plain = run_weakened_litmus(name, overrides, model, por="dpor",
                                **BOUNDS)
    with _clone_checked_dpor() as checked:
        reference = run_weakened_litmus(name, overrides, model,
                                        por="dpor", **BOUNDS)
    assert _signature(reference) == _signature(plain)
    assert reference.states_explored == plain.states_explored
    assert reference.stats.states_visited == plain.stats.states_visited
    assert reference.stats.races_detected == plain.stats.races_detected
    assert (reference.stats.backtrack_points
            == plain.stats.backtrack_points)
    # Every transition but the first out of each node is preceded by a
    # revert, so a run with backtracking must have checked some.
    if plain.stats.backtrack_points:
        assert checked[0] > 0


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(LITMUS_TESTS)),
    model=st.sampled_from(MODELS),
)
def test_dpor_matches_unreduced_enumeration(name, model):
    """DPOR agrees with the unreduced explorer, the ground truth that
    owes nothing to sleep sets or macro-stepping.  (No state-count
    comparison: the enumerator dedups across branches, which stateless
    DPOR deliberately cannot, so neither count bounds the other.)"""
    module = _litmus_module(name)
    full = check_module(module, model=model, por="none", **BOUNDS)
    dpor = check_module(module, model=model, por="dpor", **BOUNDS)
    assert _signature(full) == _signature(dpor)
