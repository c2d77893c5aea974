"""Pinned exploration counts: verdicts and work never drift silently.

``exploration_counts.json`` holds, for the five corpus programs under
tso/wmm and every litmus-gallery program under each of its models, the
verdict and the exploration counts of both the ``sleep`` and ``dpor``
backends — ``states_explored``, ``states_visited`` and ``transitions``
(plus the race/backtrack counters for DPOR).  The counts were recorded
while a second, clone-per-transition exploration engine still existed,
with both engines asserted equal case by case, so they pin the
undo-log engine to what an independent substrate computed.  A change
that alters any of them changes the traversal, not just its speed, and
must update the file deliberately.

Two DPOR entries were re-recorded that way: ``ck_spinlock_cas/wmm`` and
``RMW-atomicity/wmm``.  DPOR used to race another thread's rmw against
an rmw-store it can never precede, and so never explored the order
with the other thread's rmw first (``RMW-atomicity/wmm/dpor`` had no
backtrack point).  Reversing the race at the exec that took the
reservation explores it; ``tests/mc/test_dpor.py`` pins the defect's
reproducer.
"""

import json
import os

import pytest

from repro.api import compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.core.config import PortingLevel
from repro.mc.explorer import check_module
from repro.mc.litmus import LITMUS_TESTS

with open(os.path.join(os.path.dirname(__file__),
                       "exploration_counts.json")) as _handle:
    PINNED = json.load(_handle)
BOUNDS = PINNED["bounds"]
CORPUS = ("message_passing", "ck_ring", "ck_spinlock_cas", "ck_sequence",
          "lf_hash")
PORS = ("sleep", "dpor")


def _counts(result):
    counts = {
        "outcome": result.outcome,
        "truncated": result.truncated,
        "states_explored": result.states_explored,
        "states_visited": result.stats.states_visited,
        "transitions": result.stats.transitions,
    }
    if result.stats.por == "dpor":
        counts["races_detected"] = result.stats.races_detected
        counts["backtrack_points"] = result.stats.backtrack_points
    return counts


def test_pinned_cases_cover_the_suite():
    """Every (program, model, backend) case is pinned, and no stale one."""
    corpus = {f"{name}/{model}/{por}" for name in CORPUS
              for model in ("tso", "wmm") for por in PORS}
    litmus = {f"{name}/{model}/{por}"
              for name, (_source, expected) in LITMUS_TESTS.items()
              for model in expected for por in PORS}
    assert set(PINNED["corpus"]) == corpus
    assert set(PINNED["litmus"]) == litmus


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("model", ["tso", "wmm"])
def test_corpus_engines_identical(name, model):
    """The engine reproduces what both engines reported, counts too."""
    module, _report = port_module(
        compile_source(BENCHMARKS[name].mc_source(), name),
        PortingLevel.ATOMIG,
    )
    for por in PORS:
        label = f"{name}/{model}/{por}"
        result = check_module(module, model=model, por=por, **BOUNDS)
        assert _counts(result) == PINNED["corpus"][label], label


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_engines_identical(name):
    source, expected = LITMUS_TESTS[name]
    module = compile_source(source, f"litmus_{name}")
    for model in expected:
        for por in PORS:
            label = f"{name}/{model}/{por}"
            result = check_module(module, model=model, por=por, **BOUNDS)
            assert _counts(result) == PINNED["litmus"][label], label
            # ... and the pinned verdict is the calibrated one.
            assert result.ok == expected[model], label
