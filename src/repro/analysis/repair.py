"""Witness-guided static fence repair (min-cost critical-cycle breaking).

Turns the robustness analyzer's *classification* into a *fix*: when a
module is non-robust, enumerate all critical cycles (bounded — see
:meth:`RobustnessAnalyzer.enumerate_critical_cycles`), then make it
robust by inserting fences and strengthening memory orders at the
cheapest set of program points.

The analyzer's criterion makes the optimization problem cleaner than
generic cycle hitting: a module is non-robust iff some **delayable**
pair closes a cycle, and the cycle's other edges (conflicts, po paths)
are order-independent, so repairing them cannot kill the cycle — only
making the delay pair itself non-delayable can.  "Break every cycle"
therefore reduces to **covering every culprit pair** (delayable pair
with at least one cycle) by repair actions:

- ``strengthen`` — upgrade an endpoint's memory order: acquire on the
  a-side load / RMW read half, release on the b-side store / RMW write
  half, SC completion when the partner is already SC (wmm), or SC on a
  buffered plain store (tso, drains the store buffer);
- ``strengthen_pair`` — lift *both* endpoints to SEQ_CST at once: the
  only merge-based fix for wmm store->load (SB-shaped) pairs, where
  neither an acquire (a is a store) nor a release (b is a load) can
  apply; an SC store + SC load is how a blanket-SC port covers the
  same pair, and it is far cheaper than a full fence on both cost
  models;
- ``fence_after`` a's instruction / ``fence_before`` b's — a fence in
  the slot adjacent to an endpoint crosses *every* path out of (into)
  it, so it covers every culprit pair sharing that endpoint.

One action can cover many pairs, so this is weighted set cover: solved
greedily, then exactly by branch-and-bound when the instance is small
(the common case), with the proven bound reported either way.  Costs
come from the per-architecture tables in :mod:`repro.vm.costs`, so the
cheapest repair differs by machine: Armv8's near-free LDAR favors
acquire loads, Power's lwsync/hwsync weights shift the optimum.

Coverage is computed by *simulating* the delayability predicate under
the hypothetical order change, so it is exact per pair; an action may
additionally close other pairs' open paths (a fence drains everything
crossing it) — that bonus is not modeled, only rediscovered by the
fixed-point loop, which re-enumerates and re-solves until the analyzer
reports no culprits (one round suffices in practice because endpoint
coverage is exact; :data:`MAX_ROUNDS` is a safety net).

Soundness: every action only *restricts* executions (fences and
stronger orders are inert under SC), so the SC verdict is unchanged;
the repaired module re-classifies robust, hence its weak-model verdict
provably equals that unchanged SC verdict — checked two ways by the
benchmark gates (0-state ``verdict_source="robustness"`` verify, and
an A/B model-checker comparison on the corpus).
"""

import time
from dataclasses import dataclass, field

from repro.analysis.robustness import (
    RobustnessAnalyzer,
    _instruction_positions,
)
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.vm.costs import cost_model_for, estimate_cost

#: Mark carried by every repair-inserted fence and strengthened access:
#: the weakening optimizer enumerates marked sites, so a repaired
#: module remains a valid (and much cheaper) starting point for it.
REPAIR_MARK = "repair"

#: Exact branch-and-bound is attempted only under these instance sizes;
#: larger instances keep the greedy cover and report a dual lower bound.
EXACT_MAX_PAIRS = 20
EXACT_MAX_ACTIONS = 24
EXACT_NODE_BUDGET = 200_000

#: Enumerate-and-cover rounds before repair gives up on a fixed point.
MAX_ROUNDS = 4


class _Action:
    """One candidate repair during solving (pre-serialization)."""

    __slots__ = ("kind", "targets", "cost", "covers", "sort_key")

    def __init__(self, kind, targets, cost, sort_key):
        #: strengthen | strengthen_pair | fence_after | fence_before
        self.kind = kind
        #: ``[(instr, node, to_order)]`` — one entry for fences and
        #: single strengthenings, two for ``strengthen_pair``;
        #: ``to_order`` is None for fences.
        self.targets = targets
        self.cost = cost
        self.covers = set()         # indexes into the culprit-pair list
        self.sort_key = sort_key

    @property
    def instr(self):
        return self.targets[0][0]

    def changes(self):
        """The hypothetical order map this action applies."""
        return {instr: to_order for instr, _node, to_order in self.targets
                if to_order is not None}


@dataclass
class RepairAction:
    """One applied repair, with provenance (the report's vocabulary)."""

    #: ``strengthen`` | ``fence_after`` | ``fence_before``.
    kind: str = "strengthen"
    function: str = ""
    block: str = ""
    #: Index of the anchor instruction *at the start of its round* —
    #: :meth:`RepairReport.apply` replays rounds in order, fences within
    #: a block in descending slot order, so indices stay valid.
    index: int = 0
    instr: str = ""
    from_order: str = ""
    to_order: str = ""
    #: Abstract-cycle cost delta under the report's cost model.
    cost: int = 0
    #: Location keys of the culprit pairs this action covers.
    covers: list = field(default_factory=list)
    #: Ids (into the round's enumeration) of the cycles broken.
    cycles: list = field(default_factory=list)

    def to_dict(self):
        return {
            "kind": self.kind,
            "function": self.function,
            "block": self.block,
            "index": self.index,
            "instr": self.instr,
            "from_order": self.from_order,
            "to_order": self.to_order,
            "cost": self.cost,
            "covers": list(self.covers),
            "cycles": list(self.cycles),
        }

    def describe(self):
        where = f"{self.function}:{self.block}[{self.index}]"
        if self.kind == "strengthen":
            what = (f"strengthen {self.instr} "
                    f"{self.from_order} -> {self.to_order}")
        else:
            side = "after" if self.kind == "fence_after" else "before"
            what = f"insert fence(seq_cst) {side} {self.instr}"
        return (f"{where}: {what}  (+{self.cost} cycles, breaks "
                f"{len(self.cycles)} cycles via {len(self.covers)} pairs)")


@dataclass
class RepairReport:
    """Everything one :func:`repair_module` call did and proved."""

    module_name: str = ""
    model: str = "wmm"
    #: Cost-model name the action costs are stated against.
    arch: str = "armv8"
    #: One entry per fixed-point round: the solved cover plus the
    #: enumeration and solver evidence it came from.
    rounds: list = field(default_factory=list)
    robust_after: bool = False
    #: True when cycle enumeration hit a cap in any round (culprit
    #: coverage stays exact; only the per-cycle provenance may be
    #: incomplete).
    bounded: bool = False
    cost_before: dict = field(default_factory=dict)
    cost_after: dict = field(default_factory=dict)
    #: Cost of the robust blanket-SC incumbent (the completed port)
    #: when the run came through :func:`resynthesize_ported`, else {}.
    incumbent: dict = field(default_factory=dict)
    #: Optional 0-state verify evidence (``verify=True``).
    verify: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def actions(self):
        return [action for entry in self.rounds
                for action in entry["actions"]]

    @property
    def total_cost(self):
        return sum(action.cost for action in self.actions)

    @property
    def fences_added(self):
        return sum(1 for a in self.actions if a.kind != "strengthen")

    @property
    def strengthened(self):
        return sum(1 for a in self.actions if a.kind == "strengthen")

    @property
    def cycles_broken(self):
        return sum(entry["cycles"] for entry in self.rounds)

    @property
    def barrier_cost_before(self):
        return self.cost_before.get("barriers", 0)

    @property
    def barrier_cost_after(self):
        return self.cost_after.get("barriers", 0)

    @property
    def solver(self):
        """Weakest solver across rounds (``exact`` only when all are)."""
        solvers = {entry["solver"] for entry in self.rounds}
        if not solvers:
            return "none"
        return "exact" if solvers == {"exact"} else "greedy"

    @property
    def optimal(self):
        return bool(self.rounds) and all(
            entry["optimal"] for entry in self.rounds
        )

    def to_dict(self):
        return {
            "module": self.module_name,
            "model": self.model,
            "arch": self.arch,
            "robust_after": self.robust_after,
            "bounded": self.bounded,
            "rounds": [
                {
                    "cycles": entry["cycles"],
                    "culprits": entry["culprits"],
                    "delayable": entry["delayable"],
                    "solver": entry["solver"],
                    "optimal": entry["optimal"],
                    "lower_bound": entry["lower_bound"],
                    "nodes_explored": entry["nodes_explored"],
                    "actions": [a.to_dict() for a in entry["actions"]],
                }
                for entry in self.rounds
            ],
            "total_cost": self.total_cost,
            "fences_added": self.fences_added,
            "strengthened": self.strengthened,
            "cycles_broken": self.cycles_broken,
            "solver": self.solver,
            "optimal": self.optimal,
            "cost_before": dict(self.cost_before),
            "cost_after": dict(self.cost_after),
            "incumbent": dict(self.incumbent),
            "verify": dict(self.verify),
            "wall_seconds": self.wall_seconds,
            "notes": list(self.notes),
        }

    def summary(self):
        if not self.rounds:
            status = "already robust, nothing to repair"
            return (f"repair {self.module_name} [{self.model}/{self.arch}]:"
                    f" {status}")
        status = "robust" if self.robust_after else "STILL NON-ROBUST"
        bound = "optimal" if self.optimal else "greedy"
        return (
            f"repair {self.module_name} [{self.model}/{self.arch}]: "
            f"{status} after {len(self.rounds)} round(s) — "
            f"{self.cycles_broken} cycles broken by "
            f"{self.strengthened} strengthenings + "
            f"{self.fences_added} fences "
            f"(+{self.total_cost} cycles, {bound} cover)"
        )

    def render(self):
        lines = [self.summary()]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for number, entry in enumerate(self.rounds, 1):
            bound = (f"optimal" if entry["optimal"]
                     else f">= {entry['lower_bound']}")
            lines.append(
                f"  round {number}: {entry['cycles']} cycles over "
                f"{entry['culprits']} culprit pairs "
                f"({entry['solver']} cover, {bound}):"
            )
            for action in entry["actions"]:
                lines.append(f"    {action.describe()}")
        if self.verify:
            lines.append(
                f"  verify: {self.verify.get('outcome', '?')} via "
                f"{self.verify.get('verdict_source', '?')}, "
                f"{self.verify.get('states', 0)} states"
            )
        return "\n".join(lines)

    # -- replay ----------------------------------------------------------

    def apply(self, module):
        """Re-apply the recorded repairs to (another copy of) the module.

        Replays rounds in order; within a round, strengthenings first
        (index-stable), then fence insertions per block in descending
        slot order so earlier indices stay valid.  Makes the report a
        standalone patch description, independent of the instruction
        objects it was computed from.  Owns (:meth:`Module.own`) the
        functions it writes.
        """
        module.own({action.function for entry in self.rounds
                    for action in entry["actions"]})
        for entry in self.rounds:
            strengthens = [a for a in entry["actions"]
                           if a.kind == "strengthen"]
            fences = [a for a in entry["actions"] if a.kind != "strengthen"]
            for action in strengthens:
                block = _find_block(module, action.function, action.block)
                instr = block.instructions[action.index]
                instr.order = _join_order(
                    instr.order, MemoryOrder[action.to_order.upper()]
                )
                instr.marks.add(REPAIR_MARK)
            fences.sort(
                key=lambda a: (a.function, a.block, -_slot(a), a.kind)
            )
            for action in fences:
                block = _find_block(module, action.function, action.block)
                fence = ins.Fence(MemoryOrder.SEQ_CST)
                fence.marks.add(REPAIR_MARK)
                block.insert(_slot(action), fence)
        return module


def _slot(action):
    return action.index + (1 if action.kind == "fence_after" else 0)


def _find_block(module, function_name, label):
    function = module.functions[function_name]
    for block in function.blocks:
        if block.label == label:
            return block
    raise KeyError(f"no block {label!r} in @{function_name}")


def relax_ported(module):
    """Relax every porter-strengthened site of ``module`` in place.

    Marked SC accesses drop to RELAXED and porter-inserted fences are
    deleted — the bottom-up strawman start for
    :func:`repair_module`: the repair pass then *synthesizes* the
    minimal barrier set over the same atomized access footprint that a
    blanket-SC port pays for in full (Table 10's comparison).  Orders
    are inert under SC, so the relaxed module's SC behaviour — and
    hence the robust repaired module's weak-model behaviour — matches
    the port's.  Two kinds of site are kept strong: source-level SC
    accesses (no porting mark — presumed intentional, mirroring the
    weakener's ``require_marks`` default), and lock-word accesses (the
    race classifier's LOCK class).  Relaxing a lock word would
    dissolve the lock *structurally* — the lockset analysis no longer
    recognizes the idiom, every protected access degrades to racy, and
    the repair pass would have to fence data the port never touched.
    Returns ``(accesses_relaxed, fences_deleted)``.
    """
    from repro.analysis.races import AccessClass, classify_module
    from repro.opt.candidates import PORTER_ACCESS_MARKS, PORTER_FENCE_MARKS

    lock_words = {
        finding.instr
        for finding in classify_module(module).findings
        if finding.classification is AccessClass.LOCK
    }

    def porter_fence(instr):
        return (isinstance(instr, ins.Fence)
                and instr.marks & PORTER_FENCE_MARKS)

    def porter_access(instr):
        return (isinstance(instr, (ins.Load, ins.Store, ins.Cmpxchg,
                                   ins.AtomicRMW))
                and instr.order is MemoryOrder.SEQ_CST
                and instr.marks & PORTER_ACCESS_MARKS
                and instr not in lock_words)

    written = [
        name for name, function in module.functions.items()
        if any(porter_fence(instr) or porter_access(instr)
               for instr in function.instructions())
    ]
    mapping = module.own(written)
    lock_words = {mapping.get(instr, instr) for instr in lock_words}
    relaxed = deleted = 0
    for name in written:
        for block in module.functions[name].blocks:
            kept = []
            for instr in block.instructions:
                if porter_fence(instr):
                    deleted += 1
                    continue
                if porter_access(instr):
                    instr.order = MemoryOrder.RELAXED
                    relaxed += 1
                kept.append(instr)
            block.instructions[:] = kept
    return relaxed, deleted


def resynthesize_ported(module, model="wmm", arch=None, cost_model=None,
                        verify=False, max_steps=2500, max_states=400_000):
    """Re-synthesize a ported module's barriers bottom-up (Table 10).

    Relaxes every porter-strengthened site (:func:`relax_ported`), then
    statically repairs the result to robustness — so the barrier set is
    *synthesized* from the critical cycles instead of inherited from
    the blanket-SC port.  The completed port (the port plus its own
    repair when it is not robust as-is) serves as the incumbent: if the
    synthesized assignment ends up costlier, the incumbent is returned
    instead — a synthesizer should never return worse than a known
    feasible solution.  Returns ``(module, RepairReport)``; the input
    is never mutated.
    """
    cost_model = cost_model if cost_model is not None else (
        cost_model_for(arch))
    incumbent = module.fork()
    _, completion = repair_module(
        incumbent, model=model, cost_model=cost_model, clone=False,
        verify=verify, max_steps=max_steps, max_states=max_states,
    )
    work = module.fork()
    relaxed, deleted = relax_ported(work)
    work, report = repair_module(
        work, model=model, cost_model=cost_model, clone=False,
        verify=verify, max_steps=max_steps, max_states=max_states,
    )
    report.notes.append(
        f"resynthesis: relaxed {relaxed} accesses, deleted {deleted} "
        f"porter fences before repair"
    )
    report.incumbent = dict(completion.cost_after)
    completion.incumbent = dict(completion.cost_after)
    fallback = (not report.robust_after
                or report.barrier_cost_after
                > completion.barrier_cost_after)
    if fallback:
        completion.notes.append(
            f"resynthesis fell back to the blanket-SC completion: "
            f"synthesized cover cost {report.barrier_cost_after} > "
            f"incumbent {completion.barrier_cost_after}"
        )
        return incumbent, completion
    return work, report


# -- action enumeration ----------------------------------------------------


def _merge_acquire(instr):
    """Weakest order of ``instr`` with acquire semantics, or None."""
    order = instr.order
    if order.has_acquire:
        return None
    if isinstance(instr, ins.Load):
        return MemoryOrder.ACQUIRE
    if isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
        return (MemoryOrder.ACQ_REL if order.has_release
                else MemoryOrder.ACQUIRE)
    return None


def _merge_release(instr):
    """Weakest order of ``instr`` with release semantics, or None."""
    order = instr.order
    if order.has_release:
        return None
    if isinstance(instr, ins.Store):
        return MemoryOrder.RELEASE
    if isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
        return (MemoryOrder.ACQ_REL if order.has_acquire
                else MemoryOrder.RELEASE)
    return None


def _still_delayable(model, a, b, changes):
    """Would pair (a, b) stay delayable under the hypothetical order
    ``changes`` (instr -> new order)?  Mirrors
    ``RobustnessAnalyzer._delayable`` exactly, with orders read through
    the change map."""

    def order(node):
        return changes.get(node.instr, node.order)

    if model == "tso":
        return (a.kind == "store"
                and order(a) is not MemoryOrder.SEQ_CST
                and b.kind == "load")
    order_a, order_b = order(a), order(b)
    acquires = a.kind in ("load", "rmw") and order_a.has_acquire
    releases = b.kind in ("store", "rmw_store") and order_b.has_release
    both_sc = (order_a is MemoryOrder.SEQ_CST
               and order_b is MemoryOrder.SEQ_CST)
    return not (acquires or releases or both_sc)


def _join_order(current, target):
    """Least order at least as strong as both (the strengthen lattice).

    Two chosen actions may touch the same instruction (an acquire merge
    and a ``strengthen_pair`` SC lift); applying the second must never
    *downgrade* what the first established — coverage simulation is per
    action, and the delayability predicate is monotone in strength, so
    joining preserves every action's coverage.
    """
    if current is target:
        return current
    if current is MemoryOrder.SEQ_CST or target is MemoryOrder.SEQ_CST:
        return MemoryOrder.SEQ_CST
    has_acquire = current.has_acquire or target.has_acquire
    has_release = current.has_release or target.has_release
    if has_acquire and has_release:
        return MemoryOrder.ACQ_REL
    if has_acquire:
        return MemoryOrder.ACQUIRE
    if has_release:
        return MemoryOrder.RELEASE
    return target


def _enumerate_actions(model, culprits, nodes, cost_model, sort_key):
    """Candidate actions for the culprit pairs, with exact coverage.

    Strengthen coverage is simulated through the delayability predicate
    (so e.g. an acquire upgrade covers *every* culprit pair whose
    a-side half sits on that instruction); endpoint-adjacent fences
    cover every pair sharing the endpoint's instruction, because the
    slot immediately after (before) an instruction lies on every path
    out of (into) it.
    """
    actions = {}

    def add(kind, targets, cost):
        key = (kind,) + tuple(
            (id(instr), to_order) for instr, _node, to_order in targets
        )
        action = actions.get(key)
        if action is None:
            action = _Action(kind, targets, cost,
                             min(sort_key(node.nid)
                                 for _instr, node, _order in targets))
            actions[key] = action
        return action

    def strengthen_cost(instr, to_order):
        return max(
            0,
            cost_model.access_cost(instr, to_order)
            - cost_model.access_cost(instr),
        )

    for pair_id, (a_nid, b_nid) in enumerate(culprits):
        a, b = nodes[a_nid], nodes[b_nid]
        candidates = []
        if model == "tso":
            if a.kind == "store":
                candidates.append((a, MemoryOrder.SEQ_CST))
        else:
            acq = _merge_acquire(a.instr)
            if acq is not None and a.kind in ("load", "rmw"):
                candidates.append((a, acq))
            rel = _merge_release(b.instr)
            if rel is not None and b.kind in ("store", "rmw_store"):
                candidates.append((b, rel))
            # SC completion: when one side is already SC, lifting the
            # other to SC blocks the pair (`both_sc`) even where
            # acquire/release cannot apply (e.g. SC store -> load).
            if a.is_sc and not b.is_sc:
                candidates.append((b, MemoryOrder.SEQ_CST))
            if b.is_sc and not a.is_sc:
                candidates.append((a, MemoryOrder.SEQ_CST))
        covered_by_merge = False
        for node, to_order in candidates:
            if _still_delayable(model, a, b, {node.instr: to_order}):
                continue
            covered_by_merge = True
            add("strengthen", [(node.instr, node, to_order)],
                strengthen_cost(node.instr, to_order)).covers.add(pair_id)
        if (model != "tso" and not covered_by_merge
                and a.instr is not b.instr):
            # SB-shaped pair (store -> load under wmm): no single merge
            # applies, but SC on *both* ends blocks it (`both_sc`) —
            # the blanket-SC port's own mechanism, and usually far
            # cheaper than a full fence on either cost model.
            add("strengthen_pair",
                [(a.instr, a, MemoryOrder.SEQ_CST),
                 (b.instr, b, MemoryOrder.SEQ_CST)],
                strengthen_cost(a.instr, MemoryOrder.SEQ_CST)
                + strengthen_cost(b.instr, MemoryOrder.SEQ_CST),
                ).covers.add(pair_id)
        add("fence_after", [(a.instr, a, None)],
            cost_model.fence).covers.add(pair_id)
        add("fence_before", [(b.instr, b, None)],
            cost_model.fence).covers.add(pair_id)

    # A strengthening's simulated coverage can reach pairs beyond the
    # one that proposed it; sweep once so `covers` is complete.
    for action in actions.values():
        if action.kind.startswith("fence"):
            # fences: every culprit pair anchored on the same instr.
            side = 0 if action.kind == "fence_after" else 1
            for pair_id, pair in enumerate(culprits):
                if nodes[pair[side]].instr is action.instr:
                    action.covers.add(pair_id)
            continue
        changes = action.changes()
        for pair_id, (a_nid, b_nid) in enumerate(culprits):
            if not _still_delayable(model, nodes[a_nid], nodes[b_nid],
                                    changes):
                action.covers.add(pair_id)

    result = sorted(actions.values(),
                    key=lambda a: (a.cost, a.sort_key, a.kind))
    # Dominance pruning (exactness-preserving): drop any action whose
    # coverage a no-more-expensive earlier action already subsumes.
    kept = []
    for action in result:
        if any(k.cost <= action.cost and action.covers <= k.covers
               for k in kept):
            continue
        kept.append(action)
    return kept


# -- min-cost cover solvers ------------------------------------------------


def _greedy_cover(n_pairs, actions, cost_model):
    """Weighted set-cover greedy with *marginal* re-pricing.

    Strengthening costs are priced against the orders committed by the
    actions already chosen: once a store is lifted to SC, every other
    ``strengthen_pair`` sharing it only pays the partner's delta.
    Static additive pricing misses exactly this quadratic synergy —
    one SC endpoint participates in many ``both_sc`` blocks — and
    drives the greedy toward fences a blanket-SC assignment beats.
    A final elimination pass drops actions made redundant by later,
    wider picks.
    """
    uncovered = set(range(n_pairs))
    committed = {}  # instr -> order established by chosen actions
    chosen = []

    def marginal_cost(action):
        if action.kind.startswith("fence"):
            return action.cost
        total = 0
        for instr, _node, to_order in action.targets:
            current = committed.get(instr, instr.order)
            joined = _join_order(current, to_order)
            total += max(0, cost_model.access_cost(instr, joined)
                         - cost_model.access_cost(instr, current))
        return total

    while uncovered:
        best = None
        best_rank = None
        for index, action in enumerate(actions):
            gain = len(action.covers & uncovered)
            if not gain:
                continue
            cost = marginal_cost(action)
            rank = (cost / gain, cost, action.sort_key,
                    action.kind, index)
            if best_rank is None or rank < best_rank:
                best, best_rank = action, rank
        if best is None:
            break  # uncoverable pair: caller falls back to fences
        chosen.append(best)
        uncovered -= best.covers
        for instr, _node, to_order in best.targets:
            if to_order is not None:
                committed[instr] = _join_order(
                    committed.get(instr, instr.order), to_order
                )

    # Elimination: an early pick can be subsumed by the union of later,
    # wider picks; drop (costliest first) any action the rest cover.
    for action in sorted(chosen, key=lambda a: (-a.cost, a.sort_key)):
        rest = [a for a in chosen if a is not action]
        covered = set()
        for a in rest:
            covered |= a.covers
        if action.covers <= covered:
            chosen = rest
    return chosen, not uncovered


def _dual_lower_bound(uncovered, actions):
    """Admissible lower bound: sum of min-cover costs over a set of
    pairwise action-disjoint uncovered pairs (no action can pay for two
    of them at once)."""
    remaining = set(uncovered)
    covering = {
        pair: [a for a in actions if pair in a.covers]
        for pair in remaining
    }
    bound = 0
    while remaining:
        pair = max(
            remaining,
            key=lambda p: (min((a.cost for a in covering[p]), default=0), -p),
        )
        cover = covering[pair]
        bound += min((a.cost for a in cover), default=0)
        used = set()
        for action in cover:
            used |= action.covers
        remaining -= used
        remaining.discard(pair)
    return bound


def _branch_and_bound(n_pairs, actions, incumbent):
    """Exact min-cost cover for small instances.

    DFS that branches on the uncovered pair with the fewest covering
    actions; prunes with cost-so-far + the dual bound against the
    incumbent (initialized from the greedy solution).  Returns
    ``(best, optimal, nodes)`` — ``optimal`` is False only when the
    node budget ran out.
    """
    best_cost = sum(a.cost for a in incumbent)
    best = list(incumbent)
    state = {"nodes": 0, "complete": True}

    def dfs(uncovered, chosen, cost):
        nonlocal best_cost, best
        state["nodes"] += 1
        if state["nodes"] > EXACT_NODE_BUDGET:
            state["complete"] = False
            return
        if not uncovered:
            if cost < best_cost:
                best_cost, best = cost, list(chosen)
            return
        if cost + _dual_lower_bound(uncovered, actions) >= best_cost:
            return
        pair = min(
            uncovered,
            key=lambda p: (sum(1 for a in actions if p in a.covers), p),
        )
        options = sorted(
            (a for a in actions if pair in a.covers),
            key=lambda a: (a.cost, a.sort_key, a.kind),
        )
        if not options:
            return  # uncoverable: this branch cannot complete
        for action in options:
            dfs(uncovered - action.covers, chosen + [action],
                cost + action.cost)

    dfs(frozenset(range(n_pairs)), [], 0)
    return best, state["complete"], state["nodes"]


# -- driver ----------------------------------------------------------------


def repair_module(module, model="wmm", arch=None, cost_model=None,
                  clone=True, verify=False, max_steps=2500,
                  max_states=400_000, analyzer=None):
    """Statically repair ``module`` to robustness under ``model``.

    Returns ``(repaired_module, RepairReport)``.  ``arch`` names the
    cost model (``"armv8"`` / ``"power"``; ``cost_model`` passes one
    directly and wins).  ``clone=False`` repairs the input in place and
    is how the pipeline / weakener embed the pass; otherwise it repairs
    a fork (:meth:`Module.fork`).  A repair that needs a round owns
    the live functions first; a robust module owns nothing.
    ``analyzer`` reuses an existing :class:`RobustnessAnalyzer` already
    bound to the same module (the Oracle shares its graph this way).

    ``verify=True`` additionally model-checks the repaired module with
    the robustness fast path and records the evidence — for a
    successful repair that is a 0-state check
    (``verdict_source="robustness"``).
    """
    started = time.perf_counter()
    if cost_model is None:
        cost_model = cost_model_for(arch)
    if clone:
        module = module.fork()
        analyzer = None
    if analyzer is not None and not analyzer.bound_to(module):
        analyzer = None
    if analyzer is None:
        analyzer = RobustnessAnalyzer(module, model=model)
    report = RepairReport(
        module_name=module.name, model=model, arch=cost_model.name,
    )
    report.cost_before = estimate_cost(module, cost_model).to_dict()

    for _round in range(MAX_ROUNDS):
        enum = analyzer.enumerate_critical_cycles()
        if enum.culprits and module.own(analyzer.live_functions()):
            # The rounds write only live functions, and the graph must
            # describe the copies they write.
            analyzer = RobustnessAnalyzer(module, model=model)
            enum = analyzer.enumerate_critical_cycles()
        if enum.bounded:
            report.bounded = True
        if not enum.culprits:
            report.robust_after = True
            break
        positions = _instruction_positions(module.functions.values())
        cycles_of = {}
        for cycle in enum.cycles:
            cycles_of.setdefault(cycle.delay, []).append(cycle.cycle_id)
        actions = _enumerate_actions(
            model, enum.culprits, enum.nodes, cost_model,
            analyzer._location_sort_key,
        )
        n_pairs = len(enum.culprits)
        chosen, covered = _greedy_cover(n_pairs, actions, cost_model)
        solver, optimal, nodes_explored = "greedy", False, 0
        lower_bound = _dual_lower_bound(range(n_pairs), actions)
        if (covered and n_pairs <= EXACT_MAX_PAIRS
                and len(actions) <= EXACT_MAX_ACTIONS):
            chosen, optimal, nodes_explored = _branch_and_bound(
                n_pairs, actions, chosen
            )
            if optimal:
                solver = "exact"
                lower_bound = sum(a.cost for a in chosen)
        if not covered:
            report.notes.append(
                "greedy cover left culprit pairs uncovered; "
                "round abandoned"
            )
            break

        applied = _apply_round(chosen, enum, positions, cycles_of,
                               cost_model)
        report.rounds.append({
            "cycles": len(enum.cycles),
            "culprits": len(enum.culprits),
            "delayable": len(enum.delayable),
            "solver": solver,
            "optimal": optimal,
            "lower_bound": lower_bound,
            "nodes_explored": nodes_explored,
            "actions": applied,
        })
    else:
        report.notes.append(
            f"fixed point not reached within {MAX_ROUNDS} rounds"
        )
    if report.rounds and not report.robust_after:
        # The loop broke out of enumeration without confirming: one
        # authoritative re-classification settles it.
        report.robust_after = analyzer.analyze(max_witnesses=1).robust

    # Only an applied round changes the module.
    report.cost_after = (estimate_cost(module, cost_model).to_dict()
                         if report.rounds else dict(report.cost_before))
    if verify:
        from repro.mc.explorer import check_module

        result = check_module(
            module, model=model, max_steps=max_steps,
            max_states=max_states, robustness=True,
        )
        report.verify = {
            "outcome": result.outcome,
            "verdict_source": result.verdict_source,
            "states": result.states_explored,
        }
    report.wall_seconds = time.perf_counter() - started
    return module, report


def _apply_round(chosen, enum, positions, cycles_of, cost_model):
    """Mutate the live module with one round's cover; record actions.

    Strengthenings first (index-stable), then fences per block in
    descending slot order — the exact order :meth:`RepairReport.apply`
    replays, so the recorded round-start coordinates stay truthful.
    """
    nodes = enum.nodes
    records = []

    def record(action, instr, from_order, to_order, cost):
        function, block_label, index = positions[instr]
        pair_keys = sorted(
            f"{nodes[a].describe()} ->po {nodes[b].describe()}"
            for a, b in (enum.culprits[p] for p in action.covers)
        )
        cycle_ids = sorted({
            cid
            for p in action.covers
            for cid in cycles_of.get(enum.culprits[p], ())
        })
        records.append(RepairAction(
            kind=("strengthen" if action.kind.startswith("strengthen")
                  else action.kind),
            function=function,
            block=block_label,
            index=index,
            instr=repr(instr),
            from_order=(from_order.name.lower()
                        if from_order is not None else ""),
            to_order=(to_order.name.lower()
                      if to_order is not None else "seq_cst"),
            cost=cost,
            covers=pair_keys,
            cycles=cycle_ids,
        ))
        return records[-1]

    strengthens = [a for a in chosen if a.kind.startswith("strengthen")]
    fences = [a for a in chosen if a.kind.startswith("fence")]
    strengthens.sort(key=lambda a: (a.sort_key, a.kind))
    for action in strengthens:
        for instr, _node, to_order in action.targets:
            # Two chosen actions may overlap on one instruction; join so
            # a later apply can only strengthen further, and record the
            # actual (post-join) delta so costs stay truthful.  An
            # endpoint another pick already made strong enough is a
            # no-op: nothing to mutate, nothing to record.
            joined = _join_order(instr.order, to_order)
            if joined is instr.order:
                continue
            cost = max(0, cost_model.access_cost(instr, joined)
                       - cost_model.access_cost(instr))
            record(action, instr, instr.order, joined, cost)
            instr.order = joined
            instr.marks.add(REPAIR_MARK)

    def fence_slot(action):
        index = positions[action.instr][2]
        return index + (1 if action.kind == "fence_after" else 0)

    fences.sort(key=lambda a: (positions[a.instr][0], positions[a.instr][1],
                               -fence_slot(a), a.kind))
    for action in fences:
        record(action, action.instr, None, None, cost_model.fence)
        block = action.instr.block
        fence = ins.Fence(MemoryOrder.SEQ_CST)
        fence.marks.add(REPAIR_MARK)
        block.insert(fence_slot(action), fence)

    records.sort(key=lambda r: (r.function, r.block, r.index, r.kind))
    return records
