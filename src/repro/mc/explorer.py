"""Exhaustive state-space exploration over the operational machine.

A stateless-model-checking-style DFS over quiescent states, with a
reduction layer that keeps it verdict-equivalent while exploring far
fewer scheduling decisions (DESIGN.md §6b):

- **Macro-stepping**: runs of states with a single explorable action are
  executed as one uninterruptible macro-step instead of re-entering the
  scheduler, so thread-local stretches never inflate the state count.
- **Invisible-commit determinization**: a commit whose address no other
  live thread can ever reach (static access sets + dynamic windows) is
  taken as a singleton step — a persistent-set reduction.
- **Sleep sets**: commit actions on disjoint addresses by different
  threads commute, so of two independent actions only one ordering is
  explored; the other is put to sleep (Godefroid-style), pruning the
  redundant half of every such diamond.

Dedup keys are the 128-bit incremental BLAKE2 digests of
:mod:`repro.mc.encode` (not Python ``hash()``, whose 64-bit collisions
could silently prune an unexplored state and mask a violation).  A
stuck state with no enabled actions and unfinished threads is reported
as a *deadlock* outcome with its trace; bound hits still mark the
result *truncated*.

The traversal mutates **one** ``State`` under the undo-log journal
(:mod:`repro.mc.undo`), reverting between siblings, and dedups on the
incremental digest — no per-transition ``clone()`` and no full-state
re-serialization (DESIGN.md §6f).  The property suite
(``tests/property/test_state_engine.py``) checks apply+revert against
``State.clone()``/``State.canonical()``, and ``tests/mc/test_engines.py``
pins verdicts and exploration counts.
Set ``ATOMIG_DIGEST_CHECK=1`` to verify every incremental digest
against a from-scratch recomputation.
"""

import json
import os
import time
from dataclasses import dataclass, field

from repro.mc.encode import state_digest, state_digest_fresh
from repro.mc.machine import Context, FINISHED, LIMIT, Machine, is_pending
from repro.mc.models import get_model
from repro.mc.undo import revert

#: Partial-order-reduction backends: Godefroid sleep sets (the
#: default), source-DPOR over reads-from equivalence
#: (:mod:`repro.mc.dpor`), or none (the slow validation oracle).
PORS = ("none", "sleep", "dpor")
MACROS = ("on", "off")


@dataclass
class ExplorationStats:
    """Observability record for one exploration (``atomig check --stats``).

    Serialized rows (``to_dict``/``to_json``) carry a ``schema``
    version plus the ``por``/``macro`` configuration that produced
    them, so BENCH_mc.json cells are self-describing and a consumer can
    tell a sleep-set row from a DPOR row without context.  Schema
    history: 1 = unversioned, counters only; 2 = adds version +
    provenance + the DPOR counters; 3 = drops the ``engine``
    provenance field (one exploration substrate remains).
    """

    #: to_dict()/to_json() layout version.
    SCHEMA = 3

    #: Scheduling decision points (mirrored into CheckResult).
    states_explored: int = 0
    #: Unique canonical states inserted into the dedup set (sleep/none
    #: backends) or exploration-tree states visited (DPOR, which is
    #: stateless and never dedups across branches).
    states_visited: int = 0
    #: Actions applied (including macro/ample steps).
    transitions: int = 0
    #: Single-choice transitions compressed into macro-steps.
    macro_steps: int = 0
    #: Invisible-commit singleton steps (persistent-set reduction).
    ample_steps: int = 0
    #: Actions skipped because a sleep set proved them redundant.
    sleep_prunes: int = 0
    #: Self-loop transitions dropped (spin retries that do not change
    #: the canonical state — e.g. a failing CAS or a re-read of an
    #: unchanged flag).
    loop_prunes: int = 0
    #: Revisits cut by canonical-state dedup.
    dedup_hits: int = 0
    #: Largest DFS frontier (stack) observed.
    peak_frontier: int = 0
    #: DPOR: reversible races detected between concurrent events.
    races_detected: int = 0
    #: DPOR: reversal actions scheduled into backtrack (todo) sets.
    backtrack_points: int = 0
    #: DPOR: scheduled reversals that had to evict a sleeping action
    #: (wakeup handling, so a reversal is not re-pruned).
    wakeup_reexplorations: int = 0
    #: DPOR: maximal executions explored — one per reads-from
    #: equivalence class reached (plus bound-truncated prefixes).
    equivalence_classes: int = 0
    #: DPOR: path cycles detected, each conservatively re-expanded.
    cycle_expansions: int = 0
    #: Provenance: partial-order-reduction backend ("none"/"sleep"/"dpor").
    por: str = ""
    #: Provenance: macro-stepping ("on"/"off").
    macro: str = ""
    wall_seconds: float = 0.0

    @property
    def states_per_second(self):
        # Sub-microsecond walls are timer noise: a rate computed from
        # them is garbage (or inf), so report "not measurable" instead.
        if self.wall_seconds < 1e-6:
            return 0.0
        return self.states_visited / self.wall_seconds

    @property
    def compression_ratio(self):
        """Transitions per scheduling decision (1.0 = no compression)."""
        return self.transitions / max(self.states_explored, 1)

    def to_dict(self):
        return {
            "schema": self.SCHEMA,
            "por": self.por,
            "macro": self.macro,
            "states_explored": self.states_explored,
            "states_visited": self.states_visited,
            "transitions": self.transitions,
            "macro_steps": self.macro_steps,
            "ample_steps": self.ample_steps,
            "sleep_prunes": self.sleep_prunes,
            "loop_prunes": self.loop_prunes,
            "dedup_hits": self.dedup_hits,
            "races_detected": self.races_detected,
            "backtrack_points": self.backtrack_points,
            "wakeup_reexplorations": self.wakeup_reexplorations,
            "equivalence_classes": self.equivalence_classes,
            "cycle_expansions": self.cycle_expansions,
            "peak_frontier": self.peak_frontier,
            "wall_seconds": self.wall_seconds,
            "states_per_second": self.states_per_second,
            "compression_ratio": self.compression_ratio,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary(self):
        provenance = ""
        if self.por:
            bits = [self.por]
            if self.macro:
                bits.append(f"macro={self.macro}")
            provenance = f"[{'/'.join(bits)}] "
        dpor = ""
        if self.por == "dpor":
            dpor = (
                f", {self.races_detected} races -> "
                f"{self.backtrack_points} backtracks "
                f"({self.wakeup_reexplorations} wakeups), "
                f"{self.equivalence_classes} equivalence classes"
            )
        return (
            f"{provenance}"
            f"{self.states_explored} decisions / {self.states_visited} states "
            f"/ {self.transitions} transitions "
            f"({self.compression_ratio:.1f}x compressed), "
            f"{self.macro_steps} macro + {self.ample_steps} ample steps, "
            f"{self.sleep_prunes} sleep + {self.loop_prunes} loop prunes, "
            f"{self.dedup_hits} dedup hits{dpor}, "
            f"frontier {self.peak_frontier}, "
            f"{self.states_per_second:,.0f} states/s, "
            f"{self.wall_seconds:.3f}s"
        )

    def __str__(self):
        return self.summary()


@dataclass
class CheckResult:
    """Outcome of model-checking one module under one memory model."""

    model: str
    #: None when every execution passes; otherwise the failure message.
    violation: str = None
    #: Scheduler/commit trace of the failing execution (when any).
    trace: list = field(default_factory=list)
    states_explored: int = 0
    #: True when a bound (steps / states) cut exploration short.
    truncated: bool = False
    #: True when a reachable state has unfinished threads but no enabled
    #: actions (e.g. a join cycle) — a genuine deadlock, not a bound.
    deadlock: bool = False
    #: Trace of the first deadlocked state found (when any).
    deadlock_trace: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    #: Exploration observability (states/sec, prunes, compression...).
    stats: ExplorationStats = None
    #: "exploration" normally; "robustness" when the static critical-
    #: cycle pre-pass proved the verdict without exploring a state.
    verdict_source: str = "exploration"

    @property
    def ok(self):
        return self.violation is None

    @property
    def outcome(self):
        if self.violation is not None:
            return "violation"
        if self.deadlock:
            return "deadlock"
        if self.truncated:
            return "truncated"
        return "ok"

    def to_dict(self):
        """JSON-ready view (``atomig check --json``, serve check rows)."""
        payload = {
            "model": self.model,
            "ok": self.ok,
            "outcome": self.outcome,
            "violation": self.violation,
            "deadlock": self.deadlock,
            "truncated": self.truncated,
            "states_explored": self.states_explored,
            "verdict_source": self.verdict_source,
            "notes": list(self.notes),
        }
        if self.stats is not None:
            payload["stats"] = self.stats.to_json()
        return payload

    def __repr__(self):
        status = "ok" if self.ok else f"VIOLATION: {self.violation}"
        extra = ""
        if self.deadlock:
            extra += " (deadlock)"
        if self.truncated:
            extra += " (truncated)"
        return (
            f"CheckResult({self.model}, {status}, "
            f"{self.states_explored} states{extra})"
        )


def _action_key(state, action):
    """Stable identity of an action, carrying the data independence needs.

    A commit is identified by ``(tid, kind, addr, rank)`` where rank
    counts earlier same-``(kind, addr)`` window entries — *not* by its
    window index, which shifts when the same thread commits an earlier
    (independent) entry.  The key is canonical-stable: two concrete
    states with equal :meth:`State.canonical` forms assign every
    enabled action the same key, so sleep sets stored with visited
    states stay meaningful on revisits.  A key can only go stale
    through a *dependent* action (same thread + same address, or a
    visible step of the thread), which removes it from every sleep set
    first.  The final component records whether the entry still holds
    an unresolved pending value (such entries mutate when the thread
    commits the feeding load, so they are treated as dependent on
    everything same-thread).
    """
    if action[0] == "visible":
        return ("v", action[1])
    _kind, tid, index = action
    window = state.threads[tid].window
    entry = window[index]
    rank = sum(
        1 for earlier in window[:index]
        if earlier.kind == entry.kind and earlier.addr == entry.addr
    )
    pristine = not (
        type(entry.value) is tuple or type(entry.rmw_operand) is tuple
        or type(entry.rmw_expected) is tuple
        or type(entry.rmw_desired) is tuple
    )
    return ("c", tid, entry.kind, entry.addr, rank, pristine)


def _independent(key_a, key_b):
    """May the two actions be reordered without changing the outcome?

    Commits by different threads on different addresses always commute
    (memory effects are disjoint, value resolutions stay thread-local,
    and reservations only constrain same-address operations).  On the
    *same* address, reads still commute: a load commit only reads
    memory, and the "rmw" exec half also only reads (its write happens
    at the later ``rmw_store`` commit) — but two rmw execs race for the
    reservation, so only load/load and load/rmw pairs are independent.
    Two commits of the *same* thread commute when they target different
    addresses and neither entry holds a pending value: ``may_commit``
    constraints only mention earlier window entries, so committing
    either cannot disable the other, and their memory/resolution
    effects are disjoint.  Visible steps depend on everything.
    """
    if key_a[0] != "c" or key_b[0] != "c":
        return False
    if key_a[1] == key_b[1]:  # same thread
        return key_a[3] != key_b[3] and key_a[5] and key_b[5]
    if key_a[3] != key_b[3]:
        return True
    kinds = (key_a[2], key_b[2])
    return "load" in kinds and kinds[0] in ("load", "rmw") \
        and kinds[1] in ("load", "rmw")


def check_module(module, model="wmm", entry="main", max_steps=2500,
                 max_states=2_000_000, robustness=False, por="sleep",
                 macro="on"):
    """Exhaustively check all executions of ``module`` from ``entry``.

    Returns the first assertion violation found (depth-first order) or
    an ``ok`` result once the reachable quiescent-state space is
    exhausted.

    Reduction is controlled by two independent knobs:

    - ``por``: the partial-order-reduction backend — ``"sleep"``
      (Godefroid sleep sets + ample steps + loop prunes, the default),
      ``"dpor"`` (source-DPOR with happens-before vector clocks and
      race-driven backtracking, :mod:`repro.mc.dpor`), or ``"none"``
      (the slow oracle every backend is validated against).
    - ``macro``: ``"on"``/``"off"`` — compress single-choice runs into
      uncounted macro-steps.

    All backends return identical verdicts (the property suite
    enforces this); they differ only in how many states they visit to
    reach them.

    ``robustness=True`` runs the static critical-cycle pre-pass first
    (:mod:`repro.analysis.robustness`): a robust module provably shows
    no behavior the SC semantics does not, so — given the porting
    pipeline's premise that the program is correct under SC — the
    check returns ``ok`` immediately with zero explored states and
    ``verdict_source="robustness"``.  Non-robust modules fall back to
    full exploration.
    """
    if por not in PORS:
        raise ValueError(f"unknown por backend {por!r} (use one of {PORS})")
    if macro not in MACROS:
        raise ValueError(f"unknown macro mode {macro!r} (use 'on'/'off')")
    macro_on = macro == "on"
    if robustness and model in ("tso", "wmm"):
        from repro.analysis.robustness import analyze_robustness

        robust = analyze_robustness(module, model=model, max_witnesses=1)
        if robust.robust:
            result = CheckResult(model=model, verdict_source="robustness")
            result.stats = ExplorationStats(
                wall_seconds=robust.wall_seconds, por=por, macro=macro,
            )
            result.notes.append(
                f"statically robust: no critical cycle with an "
                f"unenforced delay ({robust.nodes} shared accesses, "
                f"{robust.conflict_edges} conflict edges); verdict "
                f"equals the SC verdict without exploration"
            )
            return result
    model_obj = get_model(model)
    context = Context(module, model_obj, entry=entry)
    machine = Machine(context, max_steps=max_steps)
    result = CheckResult(model=model)
    stats = ExplorationStats(por=por, macro=macro)
    result.stats = stats
    started = time.perf_counter()
    try:
        state = machine.initial_state()
    except Exception as error:  # setup errors are violations too
        result.violation = f"initialization failed: {error}"
    else:
        # Journal from the built root on: the traversal reverts to
        # marks, never past the initial state.
        machine.journal = []
        if por == "dpor":
            from repro.mc.dpor import explore_dpor

            explore_dpor(machine, state, result, stats, macro_on, max_states)
        else:
            _explore_stateful(machine, state, result, stats, por == "sleep",
                              macro_on, max_states)
    stats.wall_seconds = time.perf_counter() - started
    stats.states_explored = result.states_explored
    return result


def _explore_stateful(machine, state, result, stats, sleep_on, macro_on,
                      max_states):
    """Stateful (dedup) DFS from the built root ``state``, for the
    ``none`` and ``sleep`` backends.

    ``sleep_on`` gates the sleep sets, ample (invisible-commit) steps
    and the covered-set bookkeeping; ``macro_on`` gates macro-step
    compression of single-choice runs.  With both off the traversal is
    the unreduced oracle (every fresh state counted); with either on,
    the reduced probing path (loop prunes, decision-point counting) is
    used.

    One mutable state, undo-log reverts, incremental digests: the DFS
    stack holds *descriptors* ``(mark, action, sleep, digest)``:
    popping one reverts the journal to ``mark`` (restoring the parent
    state bit-identically, caches included) and applies ``action``.
    Child probing applies, digests and reverts each candidate; the
    probe digest rides along in the
    descriptor (replaying a deterministic action from a bit-identical
    parent reproduces it), so a popped child is never digested twice.
    The descriptor of a child whose mutations are still applied when it
    is popped carries ``action=None`` and its own post-apply mark, so
    the deepest-first child never pays a revert + re-apply either.
    Nothing is reverted at subtree exits — every pop starts by
    reverting to its own mark, which unwinds whatever the previous
    subtree left behind.
    """
    reduce = sleep_on or macro_on
    interner = machine.ctx.interner
    digest_check = bool(os.environ.get("ATOMIG_DIGEST_CHECK"))
    journal = machine.journal
    stack = [(0, None, frozenset(), None)]
    visited = {}  # digest -> sleep set the state was explored under
    while stack:
        if len(stack) > stats.peak_frontier:
            stats.peak_frontier = len(stack)
        mark, action, sleep, key = stack.pop()
        revert(state, journal, mark)
        if action is not None:
            machine.apply_action(state, action)
        while True:
            if state.violation is not None:
                result.violation = state.violation
                result.trace = state.trace_list()
                return
            if key is None:
                key = state_digest(state, interner)
            if digest_check and key != state_digest_fresh(state, interner):
                raise AssertionError(
                    "incremental digest diverged from fresh recomputation"
                )
            stored = visited.get(key)
            revisit = stored is not None
            if revisit:
                if stored <= sleep:
                    stats.dedup_hits += 1
                    break
                visited[key] = stored & sleep
            else:
                visited[key] = sleep
                stats.states_visited += 1
                if not reduce:
                    result.states_explored += 1
                if stats.states_visited >= max_states:
                    result.truncated = True
                    result.notes.append("state budget exhausted")
                    return

            if any(t.status == LIMIT for t in state.threads.values()):
                result.truncated = True
                if reduce and not revisit:
                    result.states_explored += 1
                break

            actions = machine.enabled_actions(state)
            if not actions:
                if revisit:
                    stats.dedup_hits += 1
                    break
                if reduce:
                    result.states_explored += 1
                if all(t.status == FINISHED
                       for t in state.threads.values()):
                    break  # normal termination
                blocked = [
                    f"T{tid}:{t.status}"
                    for tid, t in state.threads.items()
                    if t.status != FINISHED
                ]
                if not result.deadlock:
                    result.deadlock = True
                    result.deadlock_trace = state.trace_list() + [
                        f"deadlock: no enabled actions "
                        f"({', '.join(blocked)})"
                    ]
                result.notes.append(
                    f"deadlocked state ({', '.join(blocked)})"
                )
                break

            pairs = [
                (action, _action_key(state, action)) for action in actions
            ]
            if revisit:
                explorable = [
                    (action, akey) for action, akey in pairs
                    if akey in stored and akey not in sleep
                ]
                covered = [akey for _, akey in pairs if akey not in stored]
                if not explorable:
                    stats.dedup_hits += 1
                    break
            else:
                covered = ()
                if sleep:
                    explorable = [
                        (action, akey) for action, akey in pairs
                        if akey not in sleep
                    ]
                    stats.sleep_prunes += len(pairs) - len(explorable)
                    if not explorable:
                        break  # every ordering already covered elsewhere
                else:
                    explorable = pairs

            if macro_on and len(explorable) == 1:
                # Macro-step: apply directly; macro steps are never
                # individually reverted (an ancestor's mark covers them).
                action, akey = explorable[0]
                machine.apply_action(state, action)
                sleep = frozenset(
                    k for k in sleep if _independent(akey, k)
                ) | frozenset(
                    c for c in covered if _independent(akey, c)
                )
                stats.transitions += 1
                stats.macro_steps += 1
                key = None
                continue

            node_mark = len(journal)
            if sleep_on and not revisit:
                invisible = next(
                    (pair for pair in explorable
                     if machine.action_invisible(state, pair[0])),
                    None,
                )
                if invisible is not None:
                    action, akey = invisible
                    machine.apply_action(state, action)
                    if state.violation is not None:
                        adigest = None
                    else:
                        adigest = state_digest(state, interner)
                    if adigest is None or adigest not in visited:
                        sleep = frozenset(
                            k for k in sleep if _independent(akey, k)
                        )
                        stats.transitions += 1
                        stats.ample_steps += 1
                        key = adigest  # successor digest already known
                        continue
                    # Known territory: undo and fall back to expansion.
                    revert(state, journal, node_mark)

            # Full expansion: a genuine scheduling decision.
            stats.transitions += len(explorable)
            if reduce:
                children = []
                applied_key = None  # akey of the child left applied
                for action, akey in explorable:
                    if len(journal) > node_mark:
                        revert(state, journal, node_mark)
                        applied_key = None
                    machine.apply_action(state, action)
                    if state.violation is None:
                        cdigest = state_digest(state, interner)
                        if cdigest == key:
                            stats.loop_prunes += 1
                            revert(state, journal, node_mark)
                            continue
                    else:
                        cdigest = None
                    children.append((action, akey, cdigest))
                    applied_key = akey
                if not children:
                    break  # nothing but spin retries (state may be
                    # dirty; the next pop reverts to its own mark)
                if macro_on and len(children) == 1:
                    # The choice was illusory: continue as a macro-step.
                    action, akey, cdigest = children[0]
                    if applied_key is None:
                        machine.apply_action(state, action)
                    sleep = frozenset(
                        k for k in sleep if _independent(akey, k)
                    ) | frozenset(
                        c for c in covered if _independent(akey, c)
                    )
                    stats.macro_steps += 1
                    key = cdigest  # probe digest of this very state
                    continue
                result.states_explored += 1
                last = len(children) - 1
                for index, (action, akey, cdigest) in enumerate(children):
                    child_sleep = {
                        k for k in sleep if _independent(akey, k)
                    }
                    for c in covered:
                        if _independent(akey, c):
                            child_sleep.add(c)
                    if sleep_on:
                        for later_index in range(index + 1, len(children)):
                            later_key = children[later_index][1]
                            if _independent(later_key, akey):
                                child_sleep.add(later_key)
                    if index == last and applied_key is not None:
                        # Still applied from probing: popped first, so
                        # hand it its own post-apply mark and no action.
                        stack.append((len(journal), None,
                                      frozenset(child_sleep), cdigest))
                    else:
                        # Replaying `action` from the reverted parent
                        # reproduces the probed state; its digest rides
                        # along so the pop never re-digests.
                        stack.append((node_mark, action,
                                      frozenset(child_sleep), cdigest))
                break
            # Unreduced: push a descriptor per child; the last pushed is
            # popped (applied + explored) first.
            for action, _akey in explorable:
                stack.append((node_mark, action, frozenset(), None))
            break


def compare_models(module, models=("sc", "tso", "wmm"), **kwargs):
    """Check ``module`` under several models; returns {model: result}."""
    return {name: check_module(module, model=name, **kwargs) for name in models}
