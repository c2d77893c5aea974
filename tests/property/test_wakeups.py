"""Property tests: the quiescence wake-up rules are exact.

``Machine.run_quiescence`` does not re-probe a thread whose failed
probe nothing has invalidated since (``Thread._bepoch`` against
``State.probe_epoch``).  Memory writes do not invalidate a probe, and a
``store``/``rmw_store`` commit re-memoizes its own thread as stuck
unless it freed a slot of a full window or emptied the window.  Both
rules rest on one fact each, asserted here at every step of random
action walks under tso and wmm:

- **No probe reads memory before it blocks.**  A BLOCKED or READY
  thread's probe (``_burst`` on a ``State.clone()``) gives the same
  progress and status after every non-pending memory cell is
  overwritten with another value.
- **A store commit lifts only window blocks.**  After an enabled
  ``store``/``rmw_store`` commit that neither frees a full window nor
  empties it, probing the committing thread makes no progress.

The walks cover the litmus gallery, the weakened-litmus templates, two
corpus clients and a writer that fills its window.  The machine runs
without a journal: probes run on clones, and the walk never reverts.
"""

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - baked into the CI image
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.api import compile_source
from repro.bench.corpus import BENCHMARKS
from repro.mc.litmus import LITMUS_TESTS, WEAKENED_LITMUS, weakened_source
from repro.mc.machine import BLOCKED, READY, Context, Machine
from repro.mc.models import get_model

#: A writer whose ten stores fill its eight-entry window before any
#: commits, so commits that free a slot of a full window occur.
FULL_WINDOW = """
int slots[10];
int done = 0;
void writer() {
    int i = 0;
    while (i < 10) {
        slots[i] = i + 1;
        i = i + 1;
    }
    done = 1;
}
int main() {
    int t = thread_create(writer);
    int seen = done;
    if (seen == 1) {
        assert(slots[9] == 10);
    }
    thread_join(t);
    return 0;
}
"""

CORPUS_CLIENTS = ("ck_spinlock_mcs", "treiber_stack")
PROGRAMS = (
    [("litmus", name) for name in sorted(LITMUS_TESTS)]
    + [("weakened", name) for name in sorted(WEAKENED_LITMUS)]
    + [("corpus", name) for name in CORPUS_CLIENTS]
    + [("full_window", "writer")]
)
MODELS = ("tso", "wmm")

_MACHINES = {}


def _source(kind, name):
    if kind == "litmus":
        return LITMUS_TESTS[name][0]
    if kind == "weakened":
        return weakened_source(name, None)
    if kind == "corpus":
        return BENCHMARKS[name].mc_source()
    return FULL_WINDOW


def _machine(program, model):
    key = (program, model)
    machine = _MACHINES.get(key)
    if machine is None:
        module = compile_source(_source(*program), "_".join(program))
        machine = Machine(Context(module, get_model(model)), max_steps=300)
        _MACHINES[key] = machine
    return machine


def _probe(machine, state, tid):
    """``(progressed, status, violation)`` of one quiescence probe."""
    thread = state.threads[tid]
    progressed = machine._burst(state, thread)
    return progressed, thread.status, state.violation


def _overwrite_memory(state):
    for addr, value in list(state.memory.items()):
        if type(value) is not tuple:  # pending cells stay
            state.mem_write(addr, value + 1)


def _assert_probes_ignore_memory(machine, state):
    for tid, thread in state.threads.items():
        if thread.status is not BLOCKED and thread.status is not READY:
            continue
        plain = _probe(machine, state.clone(), tid)
        changed = state.clone()
        _overwrite_memory(changed)
        assert _probe(machine, changed, tid) == plain, (tid, plain)


def _assert_store_commits_keep_threads_stuck(machine, state, pairs):
    """Returns how many commits were checked."""
    limit = machine.ctx.model.window_limit
    checked = 0
    for action, _key in pairs:
        if action[0] != "commit":
            continue
        _kind, tid, index = action
        window = state.threads[tid].window
        if window[index].kind not in ("store", "rmw_store"):
            continue
        if len(window) == limit or len(window) == 1:
            continue  # frees a slot of a full window, or empties it
        committed = state.clone()
        machine._commit(committed, tid, index)
        assert not machine._burst(committed, committed.threads[tid]), (
            action, window)
        checked += 1
    return checked


@settings(max_examples=80, deadline=None)
@given(
    program=st.sampled_from(PROGRAMS),
    model=st.sampled_from(MODELS),
    choices=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                     min_size=1, max_size=30),
)
def test_wakeup_rules_hold_along_random_walks(program, model, choices):
    machine = _machine(program, model)
    state = machine.initial_state()
    for choice in choices:
        if state.violation is not None:
            break
        _assert_probes_ignore_memory(machine, state)
        pairs = machine.enabled_actions(state)
        if not pairs:
            break
        _assert_store_commits_keep_threads_stuck(machine, state, pairs)
        machine.apply_action(state, pairs[choice % len(pairs)][0])


def test_draining_the_writer_meets_every_store_commit_case():
    """Committing the writer's oldest entry first meets a full window,
    commits that neither free a full window nor empty it, and the commit
    that empties it."""
    for model in MODELS:
        machine = _machine(("full_window", "writer"), model)
        limit = machine.ctx.model.window_limit
        state = machine.initial_state()
        seen = set()
        checked = 0
        while state.violation is None:
            _assert_probes_ignore_memory(machine, state)
            pairs = machine.enabled_actions(state)
            if not pairs:
                break
            checked += _assert_store_commits_keep_threads_stuck(
                machine, state, pairs)
            writer = [action for action, _key in pairs
                      if action[0] == "commit" and action[1] == 1]
            action = writer[0] if writer else pairs[0][0]
            if writer:
                size = len(state.threads[1].window)
                seen.add("full" if size == limit
                         else "empties" if size == 1 else "neither")
            machine.apply_action(state, action)
        assert seen == {"full", "neither", "empties"}, model
        assert checked, model
