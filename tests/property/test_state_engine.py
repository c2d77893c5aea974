"""Property tests: the undo-log explorer state is bit-identical to clones.

Three guarantees underpin the in-place explorer (DESIGN.md §6f), and
each is asserted here over random walks through the litmus gallery:

- **Encoding fidelity.**  The compact byte encoding + incremental
  digest must induce exactly the partition ``State.canonical()``
  induces: equal canonicals ⇔ equal digests, and the memoized
  incremental digest must always equal a from-scratch recomputation
  (``state_digest_fresh`` additionally cross-checks the Zobrist memory
  hash against the live memory image).
- **Undo-log fidelity.**  Applying any enabled action and reverting the
  journal to the pre-action mark must restore the state *bit-identically*
  — same canonical form, same digest, and same digest caches (the
  post-revert incremental digest is recomputed fresh and must agree).
- **Clone equivalence.**  A ``State.clone()`` taken before the action
  is the reference restore path; the reverted state must match the
  clone's canonical form and digest exactly.
- **Clock-table fidelity.**  The walks interleave random DPOR
  ``State.clock_set`` writes (every key shape :mod:`repro.mc.dpor`
  binds) with the actions, so revert must also restore
  ``state.clocks`` — which ``canonical()`` and the digest deliberately
  exclude — to the clone snapshot; that is the only way the
  ``OP_CLK`` records are checked outside a full DPOR run.

The walks drive the real :class:`Machine` with a journal installed —
the same configuration the explorer runs — so every journal opcode
reachable from the gallery programs is exercised.
"""

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - baked into the CI image
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.api import compile_source
from repro.mc.encode import state_digest, state_digest_fresh
from repro.mc.litmus import LITMUS_TESTS
from repro.mc.machine import Context, Machine
from repro.mc.models import get_model
from repro.mc.undo import revert

GALLERY = sorted(LITMUS_TESTS)
MODELS = ("sc", "tso", "wmm")
#: One key of every shape the DPOR backend writes, with a few
#: tid/address values so writes overwrite each other as well as add.
CLOCK_KEYS = [
    ("ta", 0, 1), ("ta", 1, 1), ("w", 1), ("r", 1), ("x", 2), ("iw", 1),
    ("ir", 2), ("vt", 0), ("tc", 1), ("wc", 0), ("g",), ("b", 1),
]
#: Immutable values of the shapes the tables hold: event indices,
#: index tuples (read lists) and window-slot tuples with ``None``.
CLOCK_VALUES = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
             max_size=3).map(tuple),
)
CLOCK_WRITES = st.lists(
    st.tuples(st.sampled_from(CLOCK_KEYS), CLOCK_VALUES), max_size=3
)

# One machine per (litmus, model): compiling dominates the walk cost
# and hypothesis replays hundreds of examples.
_MACHINES = {}


def _machine(name, model):
    key = (name, model)
    machine = _MACHINES.get(key)
    if machine is None:
        source, _expected = LITMUS_TESTS[name]
        module = compile_source(source, name=f"litmus_{name}")
        machine = Machine(Context(module, get_model(model)), max_steps=300)
        machine.journal = []
        _MACHINES[key] = machine
    return machine


def _write_clocks(state, journal, writes):
    for key, value in writes:
        state.clock_set(key, value, journal)


def _assert_bit_identical(state, interner, canon, digest):
    """The state must match the reference snapshot, caches included."""
    assert state.canonical() == canon
    assert state_digest(state, interner) == digest
    # A fresh recomputation double-checks that the *caches* were also
    # restored correctly (a stale thread encoding or memory hash would
    # make incremental and fresh digests diverge).
    assert state_digest_fresh(state, interner) == digest


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(GALLERY),
    model=st.sampled_from(MODELS),
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                  CLOCK_WRITES, CLOCK_WRITES),
        min_size=1, max_size=25,
    ),
)
def test_undo_restores_bit_identical_states(name, model, steps):
    """apply + revert == identity, at every step of a random walk.

    Each step writes clock entries before and after its action (DPOR
    writes them after), all inside the reverted span.
    """
    machine = _machine(name, model)
    interner = machine.ctx.interner
    journal = machine.journal
    del journal[:]
    state = machine.initial_state()

    for choice, before, after_writes in steps:
        if state.violation is not None:
            break
        actions = machine.enabled_actions(state)
        if not actions:
            break
        action, _key = actions[choice % len(actions)]

        reference = state.clone()
        canon = state.canonical()
        digest = state_digest(state, interner)
        # The clone is content-identical, so it digests identically —
        # and digesting it must not disturb the original's caches.
        assert reference.canonical() == canon
        assert state_digest(reference, interner) == digest

        mark = len(journal)
        _write_clocks(state, journal, before)
        machine.apply_action(state, action)
        _write_clocks(state, journal, after_writes)
        # The mutated state's incremental digest is trustworthy.
        after = state_digest(state, interner)
        assert state_digest_fresh(state, interner) == after

        revert(state, journal, mark)
        _assert_bit_identical(state, interner, canon, digest)
        # ... and against the clone path explicitly, clock table too.
        assert state.canonical() == reference.canonical()
        assert state.clocks == reference.clocks

        # Replay and walk on; the clock entries stay, so later writes
        # overwrite bound keys as well as add fresh ones.
        _write_clocks(state, journal, before)
        machine.apply_action(state, action)
        _write_clocks(state, journal, after_writes)
        assert state_digest(state, interner) == after


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(GALLERY),
    model=st.sampled_from(MODELS),
    choices=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                     min_size=0, max_size=25),
)
def test_digest_equality_matches_canonical_equality(name, model, choices):
    """digest(a) == digest(b) ⇔ canonical(a) == canonical(b)."""
    machine = _machine(name, model)
    interner = machine.ctx.interner
    del machine.journal[:]
    state = machine.initial_state()

    seen = {}  # digest -> canonical
    for choice in choices + [0]:
        canon = state.canonical()
        digest = state_digest(state, interner)
        if digest in seen:
            assert seen[digest] == canon
        else:
            # No other recorded canonical may share this digest, and no
            # other digest may have produced this canonical.
            assert canon not in seen.values()
            seen[digest] = canon
        if state.violation is not None:
            break
        actions = machine.enabled_actions(state)
        if not actions:
            break
        machine.apply_action(state, actions[choice % len(actions)][0])


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(GALLERY),
    model=st.sampled_from(MODELS),
    root_writes=CLOCK_WRITES,
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                  CLOCK_WRITES),
        min_size=1, max_size=12,
    ),
    depth=st.integers(min_value=1, max_value=12),
)
def test_multi_level_revert(name, model, root_writes, steps, depth):
    """Reverting across several actions at once restores the DFS root.

    The explorer reverts to arbitrary ancestor marks when it pops
    across subtrees, not just to the immediate parent; this drives a
    multi-action prefix, with clock writes after each action, and
    unwinds it in one revert.  Clock entries bound before the root
    mark must come back with their root values.
    """
    machine = _machine(name, model)
    interner = machine.ctx.interner
    journal = machine.journal
    del journal[:]
    state = machine.initial_state()
    _write_clocks(state, journal, root_writes)

    root = state.clone()
    root_canon = state.canonical()
    root_digest = state_digest(state, interner)
    root_mark = len(journal)

    applied = 0
    for choice, writes in steps:
        if applied >= depth or state.violation is not None:
            break
        actions = machine.enabled_actions(state)
        if not actions:
            break
        machine.apply_action(state, actions[choice % len(actions)][0])
        _write_clocks(state, journal, writes)
        applied += 1

    revert(state, journal, root_mark)
    _assert_bit_identical(state, interner, root_canon, root_digest)
    assert state.clocks == root.clocks
