"""The weakener's oracle session against the per-check reference oracle.

:class:`repro.opt.Oracle` is a session over the one module the weakener
rewrites in place: every check runs on one checker ``Context`` whose
decode table loses only the blocks a write touched, verdicts are keyed
on the candidates' rungs, and the robustness analysis stops once the
weakener has kept a non-robust state.  ``ReferenceOracle`` below keeps
the oracle as it was before sessions: a fresh ``Context`` per check,
verdicts keyed on a digest of the printed IR, and a robustness analysis
on every uncached query once the baseline is robust.

Each case drives both oracles over two equal modules and asserts that
they agree exactly: the sequence of verdicts, every check's outcome,
violation, traces, notes, ``states_explored`` and exploration
counters, the final printed module and the weakening report, apart
from timings and ``robustness_checks`` (the session runs fewer
analyses).  The inputs are every corpus ``mc_source`` through the
pipeline (AtoMig + repair + optimize) and hypothesis-drawn weakening
sequences over the weakened-litmus templates with porter fences
added.  Two further tests pin what the session rests on: one context
per corpus module in the oracle, and non-robustness that never goes
back to robustness along a descending rung chain.
"""

import functools
import hashlib
from unittest import mock

import pytest

from repro.analysis.robustness import RobustnessAnalyzer
from repro.api import compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.core.config import AtoMigConfig, PortingLevel
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.ir.printer import print_module
from repro.mc import machine
from repro.mc.explorer import check_module
from repro.mc.litmus import WEAKENED_LITMUS, weakened_source
from repro.opt import Oracle, enumerate_candidates
from repro.opt.candidates import DELETE, apply_proposal
from repro.opt.weaken import _settle
from repro.vm.costs import CostModel

#: Wall-clock fields of ExplorationStats; everything else must agree.
TIMING = ("wall_seconds", "states_per_second")
#: Litmus-scale oracle bounds for the drawn weakening sequences.
BOUNDS = dict(max_steps=600, max_states=5000)
CORPUS = sorted(name for name, benchmark in BENCHMARKS.items()
                if benchmark.mc_source is not None)


class ReferenceOracle:
    """The oracle before sessions (same protocol as :class:`Oracle`)."""

    STATE_MARGIN = Oracle.STATE_MARGIN
    STATE_FLOOR = Oracle.STATE_FLOOR

    def __init__(self, module, model="wmm", max_steps=2500,
                 max_states=400_000, robustness=True, analyzer=None):
        self.module = module
        self.model = model
        self.max_steps = max_steps
        self.max_states = max_states
        self.robustness = robustness
        self.baseline_outcome = None
        self.baseline_states = 0
        self.baseline_robust = False
        self.budget = max_states
        self.checks_run = 0
        self.cache_hits = 0
        self.states_total = 0
        self.robustness_checks = 0
        self.robustness_hits = 0
        self._verdicts = {}
        self._analyzer = analyzer

    def establish(self):
        result = self._check(self.max_states)
        self.baseline_outcome = result.outcome
        self.baseline_states = result.states_explored
        self.budget = min(
            self.max_states,
            max(self.baseline_states * self.STATE_MARGIN,
                self.STATE_FLOOR),
        )
        if result.outcome == "truncated":
            return result
        self._verdicts[self._digest()] = result.outcome
        if self.robustness:
            self.baseline_robust = self._is_robust()
        return result

    def track(self, candidates):
        pass  # keyed on the printed IR, which needs no candidates

    def apply(self, candidate):
        return apply_proposal(candidate)  # no context outlives a check

    def matches(self):
        return self.verdict() == self.baseline_outcome

    def verdict(self):
        key = self._digest()
        if key in self._verdicts:
            self.cache_hits += 1
            return self._verdicts[key]
        if (self.robustness and self.baseline_robust
                and self.baseline_outcome is not None
                and self._is_robust()):
            self.robustness_hits += 1
            self._verdicts[key] = self.baseline_outcome
            return self.baseline_outcome
        outcome = self._check(self.budget).outcome
        self._verdicts[key] = outcome
        return outcome

    def _is_robust(self):
        self.robustness_checks += 1
        if self.model == "sc":
            return True
        if (self._analyzer is None
                or not self._analyzer.bound_to(self.module)):
            self._analyzer = RobustnessAnalyzer(self.module,
                                                model=self.model)
        return self._analyzer.analyze(max_witnesses=1).robust

    def _check(self, max_states):
        self.checks_run += 1
        result = check_module(
            self.module, model=self.model, max_steps=self.max_steps,
            max_states=max_states,
        )
        self.states_total += result.states_explored
        return result

    def _digest(self):
        text = print_module(self.module)
        return hashlib.blake2b(text.encode(), digest_size=16).digest()

    counters = Oracle.counters


def _recording(base):
    """``base`` recording every verdict it gives and check it runs."""

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.seen = []
            self.checks = []

        def verdict(self):
            outcome = super().verdict()
            self.seen.append(outcome)
            return outcome

        def _check(self, max_states):
            result = super()._check(max_states)
            self.checks.append(_exploration(result))
            return result

    return Recording


SESSION = _recording(Oracle)
REFERENCE = _recording(ReferenceOracle)


def _exploration(result):
    stats = {key: value for key, value in result.stats.to_dict().items()
             if key not in TIMING}
    return {
        "outcome": result.outcome,
        "violation": result.violation,
        "trace": result.trace,
        "deadlock_trace": result.deadlock_trace,
        "notes": result.notes,
        "states_explored": result.states_explored,
        "stats": stats,
    }


def _untimed(value):
    """A report dict without its timings and ``robustness_checks``."""
    if isinstance(value, dict):
        return {key: _untimed(item) for key, item in value.items()
                if "seconds" not in key and key != "robustness_checks"}
    if isinstance(value, list):
        return [_untimed(item) for item in value]
    return value


def _observed(oracle, module):
    return {
        "verdicts": oracle.seen,
        "checks": oracle.checks,
        "module": print_module(module),
    }


def assert_same_session(session, reference, session_module,
                        reference_module):
    assert (_observed(session, session_module)
            == _observed(reference, reference_module))
    assert (_untimed(session.counters())
            == _untimed(reference.counters()))
    assert session.robustness_checks <= reference.robustness_checks


# -- the corpus, through the pipeline --------------------------------------


def _pipeline(oracle_cls, name):
    """Port ``name``'s ``mc_source`` at AtoMig + repair + optimize."""
    oracles = []

    def make(*args, **kwargs):
        oracles.append(oracle_cls(*args, **kwargs))
        return oracles[-1]

    module = compile_source(BENCHMARKS[name].mc_source(), name)
    with mock.patch("repro.opt.weaken.Oracle", make):
        ported, report = port_module(
            module, PortingLevel.ATOMIG,
            config=AtoMigConfig(repair_mode=True), optimize=True,
        )
    (oracle,) = oracles
    return oracle, ported, report


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_ports(name):
    session, ported, report = _pipeline(SESSION, name)
    reference, expected, expected_report = _pipeline(REFERENCE, name)
    assert session.seen, "no verdict was asked"
    assert_same_session(session, reference, ported, expected)
    assert (_untimed(report.optimization)
            == _untimed(expected_report.optimization))
    assert report.optimization["verdict_preserved"]


def test_one_context_per_corpus_module():
    """On the pipeline path the candidate holders are already owned, so
    the session's one context serves every check of the module."""
    built = []

    class Counted(machine.Context):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    checks = 0
    with mock.patch("repro.opt.oracle.Context", Counted):
        for name in CORPUS:
            built.clear()
            oracle, ported, _report = _pipeline(SESSION, name)
            assert built == [ported], name
            checks += oracle.checks_run
    assert checks > 5 * len(CORPUS)


def test_owning_after_establish_rebuilds_the_context_in_track():
    """The path that owns after the baseline check: fork, establish(),
    own the candidates' holders (functions of ``main``'s closure),
    track(), then the weakener's first batch deletes every fence.  The
    session rebuilds its context in track(), on the established state,
    so every check reads what a fresh context reads.  A context built
    lazily at that first candidate check, with the fences deleted,
    missed them in its ``unused`` table: once they were back, the last
    two checks of lf_hash read 24 states against a fresh context's 20.
    """
    fresh = []

    class Compared(Oracle):
        def _check(self, max_states):
            result = super()._check(max_states)
            reference = check_module(
                self.module, model=self.model, max_steps=self.max_steps,
                max_states=max_states,
            )
            fresh.append(((result.outcome, result.states_explored),
                          (reference.outcome, reference.states_explored)))
            return result

    module = compile_source(BENCHMARKS["lf_hash"].mc_source(), "lf_hash")
    ported, _report = port_module(module, PortingLevel.ATOMIG)
    work = ported.fork()
    oracle = Compared(work)
    oracle.establish()
    costs = CostModel()
    candidates = enumerate_candidates(work, costs)
    mapping = work.own_holders(candidate.instr for candidate in candidates)
    for candidate in candidates:
        candidate.instr = mapping.get(candidate.instr, candidate.instr)
    assert not oracle._context.bound_to(work)
    oracle.track(candidates)
    assert oracle._context.bound_to(work)
    assert any(isinstance(candidate.instr, ins.Fence)
               and candidate.proposal() == DELETE
               for candidate in candidates)
    while True:
        active = [candidate for candidate in candidates
                  if candidate.proposal() is not None]
        if not active:
            break
        active.sort(key=lambda c: (-c.savings(costs), c.position))
        _settle(oracle, active)
    assert [session for session, _reference in fresh] == [
        reference for _session, reference in fresh
    ]
    assert fresh[-2:] == [(("ok", 20), ("ok", 20))] * 2


def test_owning_after_track_is_refused():
    """Writes after track() go through apply(): a check on a module
    whose ``main`` closure was owned since then raises instead of
    running the context's stale decoded code."""
    module = compile_source("""
int x = 0;
void writer() { x = 1; }
int main() { int t = thread_create(writer); thread_join(t); return x; }
""", "owned").fork()
    oracle = Oracle(module)
    oracle.establish()
    oracle.track([])
    module.own({"writer"})
    with pytest.raises(RuntimeError, match="track"):
        oracle._check(oracle.budget)


# -- drawn weakening sequences ---------------------------------------------


def _insert_fences(module, picks):
    """A porter fence at each picked position, one per block at most."""
    blocks = [block for function in module.functions.values()
              for block in function.blocks]
    used = set()
    for pick in picks:
        block = blocks[pick % len(blocks)]
        if id(block) in used:
            continue
        used.add(id(block))
        fence = ins.Fence(MemoryOrder.SEQ_CST)
        fence.marks.add("repair")
        fence.block = block
        # Never after the terminator.
        index = pick % len(block.instructions)
        block.instructions.insert(index, fence)


def _drive(oracle_cls, run):
    """Weaken one drawn litmus module the way the weakener does.

    Every step applies one rung of each drawn candidate, all of them
    below the committed state, asks :meth:`matches`, and accepts the
    batch or undoes it; a drawn bit then rejects the batch's first
    candidate (its next alternative, or a freeze).
    """
    name, overrides, fences, model, robustness, steps = run
    module = compile_source(weakened_source(name, overrides),
                            f"weakened_{name}")
    _insert_fences(module, fences)
    oracle = oracle_cls(module, model=model, robustness=robustness,
                        **BOUNDS)
    if oracle.establish().outcome == "truncated":
        return oracle, module
    candidates = enumerate_candidates(module, CostModel(),
                                      require_marks=False)
    oracle.track(candidates)
    for pick, reject in steps:
        active = [c for c in candidates if c.proposal() is not None]
        if not active:
            break
        batch = ([c for i, c in enumerate(active) if pick >> i & 1]
                 or active[pick % len(active):][:1])
        undos = [oracle.apply(candidate) for candidate in batch]
        if oracle.matches():
            for candidate in batch:
                candidate.accept()
            continue
        for undo in reversed(undos):
            undo()
        if reject:
            batch[0].reject()
    oracle.verdict()
    return oracle, module


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a CI dependency
    pass
else:
    LOAD_ORDERS = ("memory_order_relaxed", "memory_order_acquire",
                   "memory_order_seq_cst")
    STORE_ORDERS = ("memory_order_relaxed", "memory_order_release",
                    "memory_order_seq_cst")

    @st.composite
    def weakening_runs(draw):
        """A weakened template with random orders (template keys starting
        with ``r`` name loads), porter fences, a model and the steps."""
        name = draw(st.sampled_from(sorted(WEAKENED_LITMUS)))
        minimal = WEAKENED_LITMUS[name][1]
        overrides = {
            key: draw(st.sampled_from(
                LOAD_ORDERS if key.startswith("r") else STORE_ORDERS))
            for key in sorted(minimal)
        }
        fences = draw(st.lists(st.integers(0, 1 << 16), max_size=3))
        model = draw(st.sampled_from(("sc", "tso", "wmm")))
        robustness = draw(st.booleans())
        steps = draw(st.lists(
            st.tuples(st.integers(0, 1 << 16), st.booleans()),
            min_size=1, max_size=10,
        ))
        return name, overrides, fences, model, robustness, steps

    @settings(max_examples=60, deadline=None)
    @given(run=weakening_runs())
    def test_drawn_weakening_sequences(run):
        session, module = _drive(SESSION, run)
        reference, expected = _drive(REFERENCE, run)
        assert_same_session(session, reference, module, expected)

    @functools.lru_cache(maxsize=None)
    def _corpus_port(name):
        module = compile_source(BENCHMARKS[name].mc_source(), name)
        ported, _report = port_module(
            module, PortingLevel.ATOMIG,
            config=AtoMigConfig(repair_mode=True),
        )
        return ported

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(CORPUS),
           model=st.sampled_from(("tso", "wmm")),
           picks=st.lists(st.tuples(st.integers(0, 1 << 16),
                                    st.booleans()),
                          min_size=1, max_size=16))
    def test_non_robustness_survives_weakening(name, model, picks):
        """Along a descending rung chain (each step moves one candidate
        one rung down, or to its sibling alternative first), the
        analyzer's verdict never goes from non-robust back to robust."""
        module = _corpus_port(name).clone()
        candidates = enumerate_candidates(module, CostModel())
        analyzer = RobustnessAnalyzer(module, model=model)
        robust = analyzer.analyze(max_witnesses=1).robust
        for pick, sibling in picks:
            active = [c for c in candidates if c.proposal() is not None]
            if not active:
                break
            candidate = active[pick % len(active)]
            level = candidate.ladder[candidate.level]
            if sibling and candidate.alternative + 1 < len(level):
                candidate.reject()  # the sibling is no stronger either
            apply_proposal(candidate)
            candidate.accept()
            now = analyzer.analyze(max_witnesses=1).robust
            assert robust or not now, (name, model, candidate.describe())
            robust = now
