"""Static robustness analysis (Shasha-Snir critical cycles).

Decides, without exploring a single state, whether a module can exhibit
*any* behavior under a weak model (tso / wmm) that it does not already
exhibit under SC.  A module is **robust** when no critical cycle of the
static conflict/program-order graph contains a program-order edge the
target model may delay past the accesses it conflicts with; robustness
implies the weak-model verdict provably equals the SC verdict, so the
model checker and the weakening oracle can skip exploration entirely
(DESIGN.md §6e).

Construction, reusing the existing analyses:

- **Nodes** are the shared-memory accesses the race classifier
  (:mod:`repro.analysis.races`) marks conflict-capable: ``lock``,
  ``racy``, ``unknown`` and heuristically-``protected`` accesses, plus
  keyless wildcards.  Accesses that never run concurrently (spawn/join
  epochs) are pruned; conflict edges between two accesses that
  structurally hold a common lock are pruned per query, but only while
  the lock's own protocol is enforced under the current orders — an
  unfenced spinlock protects nothing on a weak model.  RMWs
  split into a read half and a write half, mirroring the operational
  machine's two window entries: an acquire-only CAS orders later
  accesses after its *read*, but its *store* half can still be
  overtaken (the CAS-overtake litmus).
- **Conflict edges** connect same-location accesses (points-to /
  type-based location keys; ``None`` keys are wildcards) from distinct
  thread instances where at least one side writes.
- **Program-order pairs** come from an interprocedural forward dataflow
  over the call-site-aware callgraph: ``(a, b)`` is a *po pair* when
  ``b`` may execute after ``a`` in the same thread, and an *open* pair
  when additionally some path between them crosses no ordering
  instruction (a fence under wmm; fences, RMWs and SC stores under
  tso, whose store buffer they drain).
- A pair is **delayable** when it is open and its endpoint orders do
  not enforce it: under wmm neither ``a`` acquires, nor ``b`` releases,
  nor both are SC (exactly the ordering rules of the machine's
  ``WMMModel.committable`` walk); under tso only plain-store -> load
  pairs delay.  Same-location pairs are never delayable (per-location
  coherence holds in every model here).
- A **critical cycle** alternates po pairs with conflict edges (a
  thread may also contribute a single access, e.g. the IRIW writers).
  The module is non-robust iff some delayable pair closes such a
  cycle; each one found is reported as a :class:`RobustnessWitness`
  with per-access provenance.

The conflict graph is independent of memory orders and fences, so an
:class:`RobustnessAnalyzer` builds it once and re-answers
:meth:`analyze` cheaply while the optimizer mutates orders in place.
"""

import time
from dataclasses import dataclass, field

from repro.analysis.cache import AnalysisCache
from repro.analysis.races import (
    AccessClass,
    _live_functions,
    _thread_contexts,
    classify_module,
)
from repro.ir import instructions as ins

#: Version of the ``atomig robustness --json`` payload.  Kept in
#: lockstep with :data:`repro.core.report.LINT_SCHEMA_VERSION` (the two
#: static-analysis payloads version together); bumped to 4 when
#: witnesses gained deterministic ordering and results gained this
#: field.
ROBUSTNESS_SCHEMA_VERSION = 4

#: Bounds of :meth:`RobustnessAnalyzer.enumerate_critical_cycles`:
#: distinct cycles kept per delayable pair and overall, conflict edges
#: per cycle, and node expansions per pair.
CYCLES_PER_PAIR = 4
MAX_CYCLES = 64
MAX_CYCLE_EDGES = 5
PAIR_BUDGET = 4000

#: Key classes whose same-key accesses may genuinely conflict.
_CONFLICT_CAPABLE = (
    AccessClass.LOCK, AccessClass.RACY, AccessClass.UNKNOWN,
)
#: Classes that cannot conflict among themselves but may still alias a
#: keyless wildcard access.
_WILDCARD_PARTNERS = (
    AccessClass.READ_ONLY, AccessClass.UNSHARED,
)


class _Node:
    """One shared access (or RMW half) in the conflict graph."""

    __slots__ = ("nid", "instr", "kind", "is_write", "function",
                 "block_label", "index", "key", "classification", "locks")

    def __init__(self, nid, instr, kind, is_write, function, block_label,
                 index, key, classification, locks=frozenset()):
        self.nid = nid
        self.instr = instr
        #: Window-entry kind: load / store / rmw (read half) /
        #: rmw_store (write half) — the machine's vocabulary.
        self.kind = kind
        self.is_write = is_write
        self.function = function
        self.block_label = block_label
        self.index = index
        self.key = key
        self.classification = classification
        #: Structural lock keys definitely held at the access.
        self.locks = locks

    @property
    def order(self):
        return self.instr.order

    # Enforcement properties mirror machine.WindowEntry: only the read
    # half of an RMW acquires, only the write half releases.

    @property
    def acquires(self):
        return self.kind in ("load", "rmw") and self.order.has_acquire

    @property
    def releases(self):
        return self.kind in ("store", "rmw_store") and self.order.has_release

    @property
    def is_sc(self):
        return self.order is ins.MemoryOrder.SEQ_CST

    def provenance(self):
        return {
            "function": self.function,
            "block": self.block_label,
            "index": self.index,
            "instr": repr(self.instr),
            "kind": self.kind,
            "half": ("write" if self.kind == "rmw_store"
                     else "read" if self.kind == "rmw" else ""),
            "key": repr(self.key) if self.key is not None else None,
            "order": self.order.name.lower(),
        }

    def describe(self):
        half = f".{self.kind}" if self.kind.startswith("rmw") else ""
        key = f" {self.key}" if self.key is not None else " ?"
        return (f"{self.function}:{self.block_label}[{self.index}]"
                f" {self.instr.opcode}{half}{key}"
                f" ({self.order.name.lower()})")


@dataclass
class RobustnessWitness:
    """One concrete critical cycle with an unenforced delay."""

    #: The delayable po pair (provenance dicts of a and b).
    delay: tuple = ()
    #: Cycle edges in order: {"kind": po-delay|po|conflict,
    #: "from": provenance, "to": provenance}.
    edges: list = field(default_factory=list)

    def to_dict(self):
        return {"delay": list(self.delay), "edges": list(self.edges)}

    def describe(self):
        lines = []
        for edge in self.edges:
            src = edge["from"]
            lines.append(
                f"{src['function']}:{src['block']}[{src['index']}] "
                f"{src['instr']}"
                + (f" [{src['half']} half]" if src["half"] else "")
                + f" ({src['order']})  --{edge['kind']}-->"
            )
        return "\n".join(lines)


@dataclass
class RobustnessResult:
    """Verdict of one robustness query."""

    module_name: str = ""
    model: str = "wmm"
    robust: bool = True
    witnesses: list = field(default_factory=list)
    #: Conflict-graph size (after pruning).
    nodes: int = 0
    conflict_edges: int = 0
    #: Program-order pairs between conflict nodes (distinct locations).
    po_pairs: int = 0
    #: Pairs the model may delay (open path + unenforcing orders).
    delayable_pairs: int = 0
    wall_seconds: float = 0.0
    notes: list = field(default_factory=list)

    def summary(self):
        verdict = ("robust" if self.robust
                   else f"NON-ROBUST ({len(self.witnesses)} critical "
                        f"cycles shown)")
        return (
            f"robustness {self.module_name} [{self.model}]: {verdict} — "
            f"{self.nodes} shared accesses, {self.conflict_edges} conflict "
            f"edges, {self.po_pairs} po pairs, {self.delayable_pairs} "
            f"delayable"
        )

    def render(self):
        lines = [self.summary()]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for number, witness in enumerate(self.witnesses, 1):
            lines.append(f"  critical cycle {number}:")
            for line in witness.describe().splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)

    def to_dict(self):
        return {
            "schema_version": ROBUSTNESS_SCHEMA_VERSION,
            "module": self.module_name,
            "model": self.model,
            "robust": self.robust,
            "nodes": self.nodes,
            "conflict_edges": self.conflict_edges,
            "po_pairs": self.po_pairs,
            "delayable_pairs": self.delayable_pairs,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "wall_seconds": self.wall_seconds,
            "notes": list(self.notes),
        }


@dataclass
class CriticalCycle:
    """One enumerated critical cycle, rooted at its delayable pair."""

    cycle_id: int = 0
    #: Node ids of the delayable po pair that closes the cycle.
    delay: tuple = ()
    witness: RobustnessWitness = None

    def to_dict(self):
        return {
            "cycle_id": self.cycle_id,
            "delay": list(self.witness.delay),
            "edges": len(self.witness.edges),
        }


@dataclass
class CycleEnumeration:
    """Bounded all-cycles enumeration — the fence synthesizer's input.

    Per the analyzer's criterion a module is non-robust iff some
    *delayable* pair closes a cycle, so cycles are enumerated per
    delayable pair (its *culprits* are the pairs with at least one
    cycle).  ``bounded`` is True when any cap (cycles per pair, total
    cycles, path length, expansion budget) may have truncated the
    enumeration; culprit membership stays exact regardless — pairs
    whose bounded search starved fall back to the unbounded
    single-cycle BFS.
    """

    model: str = "wmm"
    cycles: list = field(default_factory=list)
    #: Delayable (a, b) nid pairs closing >= 1 critical cycle, sorted
    #: by location key.
    culprits: list = field(default_factory=list)
    #: Every delayable (a, b) nid pair, sorted by location key.
    delayable: list = field(default_factory=list)
    bounded: bool = False
    #: nid -> _Node view shared with the analyzer (repair consumes it).
    nodes: dict = field(default_factory=dict)


@dataclass
class _Summary:
    """Interprocedural dataflow summary of one function."""

    #: Node ids in the function or any transitive callee.
    all_nodes: frozenset = frozenset()
    #: Node ids reachable from entry on some ordering-free path.
    entry_nodes: frozenset = frozenset()
    #: Node ids with an ordering-free path to some return.
    exit_nodes: frozenset = frozenset()
    #: Some entry->return path crosses no ordering instruction.
    transparent: bool = False
    #: Fences reachable from entry / reaching a return, ordering-free.
    entry_fences: frozenset = frozenset()
    exit_fences: frozenset = frozenset()


class RobustnessAnalyzer:
    """Order-independent conflict graph + per-query cycle enumeration.

    The graph (nodes, conflict edges) depends only on pointers, locks
    and thread structure, so it is built once in the constructor; each
    :meth:`analyze` call re-runs only the fence-sensitive program-order
    dataflow and the enforcement predicates against the module's
    *current* memory orders, which the barrier optimizer mutates in
    place between queries.
    """

    def __init__(self, module, model="wmm", cache=None, name_heuristic=True):
        self.module = module
        self.model = model
        self._notes = []
        if model == "sc":
            self._nodes = []
            self._conflicts = {}
            self._live = {}
            return
        # One cache for the whole build, so the race classification,
        # its locksets and the graph share one NonLocalInfo per
        # function.  Only code that runs can add a critical cycle, so
        # the graph is built over the live functions: main, every
        # thread entry and all they call (DESIGN.md §6e).  The
        # whole-module call graph stays for the dead-fence lint, which
        # walks every function.
        if cache is None:
            cache = AnalysisCache(module)
        self._callgraph = cache.callgraph()
        scope = cache.scoped(_live_functions(module, self._callgraph))
        self._live = dict(scope.module.functions)
        self._live_callgraph = scope.callgraph()
        races = classify_module(
            scope.module, name_heuristic=name_heuristic, cache=scope
        )
        self._contexts = _thread_contexts(scope.module, self._live_callgraph)
        self._build_nodes(races, _instruction_positions(self._live.values()))
        self._build_conflicts()
        self._by_instr = {}
        for node in self._nodes:
            self._by_instr.setdefault(node.instr, []).append(node)

    def live_functions(self):
        """Names of the functions the graph is built over."""
        return set(self._live)

    def bound_to(self, module):
        """True while the graph describes ``module``: built on it, and
        none of its live functions owned (:meth:`Module.own`) since."""
        return self.module is module and module.holds(self._live)

    # -- graph construction ------------------------------------------------

    def _build_nodes(self, races, positions):
        locksets = races.lockset_result
        structural = (locksets.structural_keys()
                      if locksets is not None else frozenset())
        nodes = []
        for finding in races.findings:
            if finding.classification is AccessClass.UNREACHABLE:
                continue
            if not finding.concurrent:
                continue  # never runs while another thread is live
            position = positions.get(finding.instr)
            if position is None:
                continue
            held = frozenset()
            if locksets is not None and structural:
                keys, tainted = locksets.lockset_at(finding.instr)
                if not tainted:
                    held = frozenset(keys) & structural
            function, block_label, index = position
            for kind, is_write in _halves(finding.instr):
                nodes.append(_Node(
                    nid=len(nodes), instr=finding.instr, kind=kind,
                    is_write=is_write, function=function,
                    block_label=block_label, index=index,
                    key=finding.key,
                    classification=finding.classification,
                    locks=held,
                ))
        self._nodes = nodes

    def _build_conflicts(self):
        """Adjacency over node ids; drops conflict-free nodes."""
        conflicts = {}

        def connect(u, v):
            conflicts.setdefault(u.nid, set()).add(v.nid)
            conflicts.setdefault(v.nid, set()).add(u.nid)

        def may_conflict(u, v):
            if not (u.is_write or v.is_write):
                return False
            return _distinct_instances(
                u.function, v.function, self._contexts
            )

        capable = [
            n for n in self._nodes
            if n.key is not None and (
                n.classification in _CONFLICT_CAPABLE
                or n.classification is AccessClass.PROTECTED
            )
        ]
        by_key = {}
        for node in capable:
            by_key.setdefault(node.key, []).append(node)
        for group in by_key.values():
            for i, u in enumerate(group):
                for v in group[i + 1:]:
                    if u.instr is v.instr:
                        continue  # two halves of one RMW: same location
                    if may_conflict(u, v):
                        connect(u, v)

        # Keyless accesses may alias anything, including read-only and
        # unshared keyed locations (their classification holds only for
        # the accesses the key *did* capture).
        wildcards = [n for n in self._nodes if n.key is None]
        partners = capable + [
            n for n in self._nodes
            if n.key is not None and n.classification in _WILDCARD_PARTNERS
        ]
        for i, w in enumerate(wildcards):
            for v in partners + wildcards[i + 1:]:
                if w.instr is v.instr:
                    continue
                if may_conflict(w, v):
                    connect(w, v)

        self._conflicts = conflicts
        self._cycle_nodes = {
            node.nid: node for node in self._nodes if node.nid in conflicts
        }
        # Lock-word accesses per structural lock key, for _safe_locks.
        self._lock_nodes = {}
        structural = {
            key for node in self._nodes for key in node.locks
        }
        for node in self._nodes:
            if (node.classification is AccessClass.LOCK
                    and node.key is not None and node.key in structural):
                self._lock_nodes.setdefault(node.key, []).append(node)

    def _safe_locks(self):
        """Structural locks whose protocol is enforced under the current
        orders: conflicts between accesses protected by such a lock are
        serialized by the lock itself and cannot appear in a critical
        cycle.

        Under tso every structural lock qualifies: lock acquisition is
        an RMW (drains the store buffer) and neither a protected load
        nor a protected store can pass the releasing store.  Under wmm
        the handoff needs the lock's read side (loads, RMW read halves)
        to acquire and its releasing stores to release — exactly the
        blocking rules that pin protected accesses inside the critical
        section in the commit order.
        """
        if self.model == "tso":
            return frozenset(self._lock_nodes)
        safe = set()
        for key, nodes in self._lock_nodes.items():
            ok = True
            for node in nodes:
                if node.kind in ("load", "rmw"):
                    ok = ok and node.order.has_acquire
                elif node.kind == "store":
                    ok = ok and node.order.has_release
                # rmw_store halves are acquire-side writes (the TAS
                # idiom releases through a plain store); they publish
                # no protected data, so their order is irrelevant.
            if ok:
                safe.add(key)
        return frozenset(safe)

    def _conflict_view(self):
        """Conflict adjacency with same-safe-lock edges pruned."""
        safe = self._safe_locks()
        if not safe:
            return self._conflicts, 0
        view = {}
        pruned = 0
        nodes = self._cycle_nodes
        for u, partners in self._conflicts.items():
            kept = {
                v for v in partners
                if not (nodes[u].locks & nodes[v].locks & safe)
            }
            pruned += len(partners) - len(kept)
            if kept:
                view[u] = kept
        return view, pruned // 2

    # -- per-query analysis ------------------------------------------------

    def analyze(self, max_witnesses=5):
        """Classify the module against its *current* orders and fences."""
        started = time.perf_counter()
        result = RobustnessResult(
            module_name=self.module.name, model=self.model,
        )
        result.notes = list(self._notes)
        if self.model == "sc":
            result.notes.append(
                "sc admits no delays: every module is vacuously robust"
            )
            result.wall_seconds = time.perf_counter() - started
            return result
        result.nodes = len(self._cycle_nodes)
        conflicts, pruned = self._conflict_view()
        result.conflict_edges = (
            sum(len(v) for v in conflicts.values()) // 2
        )
        if pruned:
            result.notes.append(
                f"{pruned} conflict edges pruned: both sides hold a "
                f"lock whose protocol the current orders enforce"
            )
        follows, open_pairs, _fences = self._run_dataflow()
        po_edges = {}
        for a, b in follows:
            po_edges.setdefault(a, set()).add(b)
        result.po_pairs = len(follows)

        delayable = self._sorted_delayable(open_pairs)
        result.delayable_pairs = len(delayable)

        for a, b in delayable:
            witness = self._find_cycle(a, b, po_edges, conflicts)
            if witness is not None:
                result.robust = False
                if len(result.witnesses) < max_witnesses:
                    result.witnesses.append(witness)
                if len(result.witnesses) >= max_witnesses:
                    break
        result.wall_seconds = time.perf_counter() - started
        return result

    def _location_sort_key(self, nid):
        """Stable source-position key: (function, block, index, kind).

        Used wherever pair or witness *order* is observable (reports,
        snapshots, repair provenance): set iteration order would tie
        output to discovery order, which varies as unrelated code
        reshuffles node ids.
        """
        node = self._cycle_nodes[nid]
        return (node.function, node.block_label, node.index, node.kind)

    def _sorted_delayable(self, open_pairs):
        """Delayable pairs of ``open_pairs``, sorted by location key."""
        return sorted(
            (
                (a, b) for a, b in open_pairs
                if self._delayable(self._cycle_nodes[a],
                                   self._cycle_nodes[b])
            ),
            key=lambda pair: (self._location_sort_key(pair[0]),
                              self._location_sort_key(pair[1])),
        )

    def delayable_pairs(self):
        """Sorted provenance pairs the model may currently delay.

        One ``(provenance_a, provenance_b)`` tuple per delayable po
        pair under the module's *current* orders — the observable
        surface for the RMW read/write-half delay semantics (each
        provenance names its ``half``).
        """
        _follows, open_pairs, _fences = self._run_dataflow()
        nodes = self._cycle_nodes
        return [
            (nodes[a].provenance(), nodes[b].provenance())
            for a, b in self._sorted_delayable(open_pairs)
        ]

    def enumerate_critical_cycles(self):
        """Bounded enumeration of *all* critical cycles (repair input).

        For each delayable pair (in location-key order) a depth-first
        search over the alternating conflict/po meta-graph collects up
        to :data:`CYCLES_PER_PAIR` distinct cycles, capped at
        :data:`MAX_CYCLES` cycles overall, :data:`MAX_CYCLE_EDGES`
        conflict edges per cycle and :data:`PAIR_BUDGET` node
        expansions per pair.  Every culprit pair contributes at least
        one cycle (falling back to the unbounded single-cycle BFS when
        the bounded search starves), so culprit membership is exact
        even when ``bounded`` reports that the cycle *list* may be
        incomplete.
        """
        enum = CycleEnumeration(model=self.model)
        if self.model == "sc":
            return enum
        conflicts, _pruned = self._conflict_view()
        follows, open_pairs, _fences = self._run_dataflow()
        po_edges = {}
        for a, b in follows:
            po_edges.setdefault(a, set()).add(b)
        enum.delayable = self._sorted_delayable(open_pairs)
        enum.nodes = self._cycle_nodes
        for a, b in enum.delayable:
            room = MAX_CYCLES - len(enum.cycles)
            if room <= 0:
                enum.bounded = True
            limit = max(1, min(CYCLES_PER_PAIR, room))
            witnesses, truncated = self._find_cycles(
                a, b, po_edges, conflicts, limit=limit,
            )
            if truncated:
                enum.bounded = True
            if not witnesses:
                # Bounded search may starve before its first cycle on
                # deep graphs; the BFS keeps culprit status exact.
                fallback = self._find_cycle(a, b, po_edges, conflicts)
                if fallback is not None:
                    witnesses = [fallback]
            if witnesses:
                enum.culprits.append((a, b))
                for witness in witnesses:
                    enum.cycles.append(CriticalCycle(
                        cycle_id=len(enum.cycles), delay=(a, b),
                        witness=witness,
                    ))
        return enum

    def _find_cycles(self, a, b, po_edges, conflicts, limit):
        """Up to ``limit`` distinct critical cycles closing a ->po b.

        Same meta-graph as :meth:`_find_cycle`, explored depth-first
        with adjacency in sorted nid order (deterministic), bounded by
        cycle length (conflict edges), an expansion budget and the
        cycle count.  Returns ``(witnesses, truncated)`` where
        ``truncated`` means some bound may have hidden further cycles.
        """
        if b not in conflicts:
            return [], False
        nodes = self._cycle_nodes
        found = []
        state = {"expansions": 0, "truncated": False}

        def emit(path_edges, closing):
            edges = ([("po-delay", a, b)] + list(path_edges)
                     + [("conflict", closing, a)])
            found.append(RobustnessWitness(
                delay=(nodes[a].provenance(), nodes[b].provenance()),
                edges=[
                    {"kind": kind,
                     "from": nodes[src].provenance(),
                     "to": nodes[dst].provenance()}
                    for kind, src, dst in edges
                ],
            ))

        def dfs(u, path_edges, on_path, depth):
            if len(found) >= limit:
                state["truncated"] = True
                return
            state["expansions"] += 1
            if (state["expansions"] > PAIR_BUDGET
                    or depth >= MAX_CYCLE_EDGES):
                state["truncated"] = True
                return
            for w in sorted(conflicts.get(u, ())):
                if len(found) >= limit:
                    return
                if w == a:
                    emit(path_edges, u)
                    continue
                if w in on_path:
                    continue
                # The conflicting thread contributes a single access...
                dfs(w, path_edges + [("conflict", u, w)],
                    on_path | {w}, depth + 1)
                # ...or continues along one of its po pairs.
                for v in sorted(po_edges.get(w, ())):
                    if len(found) >= limit:
                        return
                    if v in on_path or v == w or v not in conflicts:
                        continue
                    dfs(v,
                        path_edges + [("conflict", u, w), ("po", w, v)],
                        on_path | {w, v}, depth + 1)

        dfs(b, [], {b}, 0)
        return found[:limit], state["truncated"]

    def _delayable(self, a, b):
        """May the model commit ``b`` before the earlier ``a``?"""
        if self.model == "tso":
            # Only a buffered plain store passes a later load; RMWs and
            # SC stores drain the buffer when issued.
            return (a.kind == "store"
                    and a.order is not ins.MemoryOrder.SEQ_CST
                    and b.kind == "load")
        # wmm: the ordering rules of WMMModel.committable, negated.
        return not (a.acquires or b.releases or (a.is_sc and b.is_sc))

    def _orders_all_paths(self, instr):
        """Does ``instr`` order *every* earlier-vs-later access pair
        crossing it (i.e. drain the window / store buffer)?"""
        if isinstance(instr, ins.Fence):
            return True
        if self.model == "tso":
            if isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
                return True
            if isinstance(instr, ins.Store):
                return instr.order is ins.MemoryOrder.SEQ_CST
        return False

    # -- program-order dataflow --------------------------------------------

    def _run_dataflow(self, track_fences=False):
        """(follows, open_pairs, fence_info) over the cycle nodes.

        ``follows`` holds every distinct-location (a, b) with b
        po-after a in the same thread; ``open_pairs`` is the subset
        where some connecting path crosses no ordering instruction.
        ``fence_info`` maps each reachable fence to [has_before,
        has_after] flags when ``track_fences`` (the dead-fence lint).
        """
        # Live functions call only live functions, so their summaries
        # need no dead code; the dead-fence lint walks the whole module.
        if track_fences:
            functions, callgraph = self.module.functions, self._callgraph
        else:
            functions, callgraph = self._live, self._live_callgraph
        summaries = {name: _Summary() for name in functions}
        order = callgraph.bottom_up_order()

        fence_info = {} if track_fences else None
        changed = True
        while changed:
            changed = False
            for name in order:
                summary = self._flow_function(
                    functions[name], summaries, collect=None,
                    fence_info=fence_info,
                )
                if summary != summaries[name]:
                    summaries[name] = summary
                    changed = True

        follows = set()
        open_pairs = set()
        for name in order:
            if name not in self._live:
                continue
            self._flow_function(
                functions[name], summaries,
                collect=(follows, open_pairs), fence_info=fence_info,
            )
        return follows, open_pairs, fence_info

    def _flow_function(self, function, summaries, collect, fence_info):
        """One forward pass over a function's CFG; returns its summary.

        State per program point: (seen, open, clean, open_fences) —
        node ids that may precede it, the subset with an ordering-free
        path to it, whether an ordering-free path from entry exists,
        and the fences with an ordering-free path to it.
        """
        track = fence_info is not None
        blocks = function.blocks
        if not blocks:
            return _Summary()
        preds = {block: [] for block in blocks}
        for block in blocks:
            for successor in block.successors():
                preds.setdefault(successor, []).append(block)

        entry_nodes = set()
        entry_fences = set()
        exit_nodes = set()
        exit_fences = set()
        transparent = [False]
        out_states = {}

        def transfer(block, state):
            seen, open_, clean, ofences = state
            for instr in block.instructions:
                nodes_here = self._by_instr.get(instr, ())
                for node in nodes_here:
                    if node.nid not in self._cycle_nodes:
                        continue
                    if collect is not None:
                        follows, open_pairs = collect
                        for a in seen:
                            if _pair_locations_differ(
                                self._cycle_nodes[a], node
                            ):
                                follows.add((a, node.nid))
                        for a in open_:
                            if _pair_locations_differ(
                                self._cycle_nodes[a], node
                            ):
                                open_pairs.add((a, node.nid))
                    if track and ofences:
                        for fence in ofences:
                            fence_info[fence][1] = True
                    seen = seen | {node.nid}
                    open_ = open_ | {node.nid}
                    if clean:
                        entry_nodes.add(node.nid)
                if isinstance(instr, ins.Fence):
                    if track:
                        flags = fence_info.setdefault(
                            instr, [False, False]
                        )
                        if open_:
                            flags[0] = True
                        if clean:
                            entry_fences.add(instr)
                        ofences = frozenset({instr})
                    open_ = frozenset()
                    clean = False
                elif self._orders_all_paths(instr):
                    open_ = frozenset()
                    clean = False
                    if track:
                        ofences = frozenset()
                elif isinstance(instr, ins.Call):
                    callee = getattr(instr.callee, "name", None)
                    if callee in summaries:
                        cs = summaries[callee]
                        if collect is not None:
                            follows, open_pairs = collect
                            for a in seen:
                                for b in cs.all_nodes:
                                    if _pair_locations_differ(
                                        self._cycle_nodes[a],
                                        self._cycle_nodes[b],
                                    ):
                                        follows.add((a, b))
                            for a in open_:
                                for b in cs.entry_nodes:
                                    if _pair_locations_differ(
                                        self._cycle_nodes[a],
                                        self._cycle_nodes[b],
                                    ):
                                        open_pairs.add((a, b))
                        if track:
                            if open_:
                                for fence in cs.entry_fences:
                                    fence_info.setdefault(
                                        fence, [False, False]
                                    )[0] = True
                            if cs.entry_nodes:
                                for fence in ofences:
                                    fence_info[fence][1] = True
                        seen = seen | cs.all_nodes
                        if cs.transparent:
                            open_ = open_ | cs.exit_nodes
                            if track:
                                ofences = ofences | cs.exit_fences
                        else:
                            open_ = frozenset(cs.exit_nodes)
                            if track:
                                ofences = frozenset(cs.exit_fences)
                        if clean:
                            entry_nodes.update(cs.entry_nodes)
                            entry_fences.update(cs.entry_fences)
                        clean = clean and cs.transparent
                elif isinstance(instr, ins.Ret):
                    exit_nodes.update(open_)
                    exit_fences.update(ofences)
                    if clean:
                        transparent[0] = True
            return seen, open_, clean, ofences

        empty = frozenset()
        in_states = {blocks[0]: (empty, empty, True, empty)}
        worklist = [blocks[0]]
        while worklist:
            block = worklist.pop(0)
            state = in_states[block]
            out = transfer(block, state)
            if out_states.get(block) == out:
                continue
            out_states[block] = out
            for successor in block.successors():
                merged = _join(in_states.get(successor), out)
                if merged != in_states.get(successor):
                    in_states[successor] = merged
                    if successor not in worklist:
                        worklist.append(successor)

        own = {
            node.nid for node in self._nodes
            if node.function == function.name
            and node.nid in self._cycle_nodes
        }
        all_nodes = set(own)
        for block in blocks:
            for instr in block.instructions:
                if isinstance(instr, ins.Call):
                    callee = getattr(instr.callee, "name", None)
                    if callee in summaries:
                        all_nodes |= summaries[callee].all_nodes
        return _Summary(
            all_nodes=frozenset(all_nodes),
            entry_nodes=frozenset(entry_nodes),
            exit_nodes=frozenset(exit_nodes),
            transparent=transparent[0],
            entry_fences=frozenset(entry_fences),
            exit_fences=frozenset(exit_fences),
        )

    # -- cycle search ------------------------------------------------------

    def _find_cycle(self, a, b, po_edges, conflicts):
        """Critical cycle closing the delayed pair a ->po b, or None.

        BFS from ``b`` back to ``a`` over alternating conflict / po
        steps: from the current node take a conflict edge to ``w``,
        then either continue from ``w`` (a thread contributing a single
        access) or follow one of its po pairs.
        """
        if b not in conflicts:
            return None
        parents = {}
        frontier = [b]
        seen = {b}
        closing = None
        while frontier and closing is None:
            nxt = []
            for u in frontier:
                for w in conflicts.get(u, ()):
                    if w == a:
                        closing = u
                        break
                    for v in {w} | po_edges.get(w, set()):
                        if v not in seen and v in conflicts:
                            seen.add(v)
                            parents[v] = (u, w)
                            nxt.append(v)
                if closing is not None:
                    break
            frontier = nxt
        if closing is None:
            return None

        nodes = self._cycle_nodes
        rev = []
        u = closing
        while u != b:
            prev, w = parents[u]
            if w != u:
                rev.append(("po", w, u))
            rev.append(("conflict", prev, w))
            u = prev
        rev.reverse()
        edges = [("po-delay", a, b)] + rev + [("conflict", closing, a)]
        return RobustnessWitness(
            delay=(nodes[a].provenance(), nodes[b].provenance()),
            edges=[
                {"kind": kind,
                 "from": nodes[src].provenance(),
                 "to": nodes[dst].provenance()}
                for kind, src, dst in edges
            ],
        )

    # -- dead-fence lint ---------------------------------------------------

    def dead_fences(self):
        """Fences not adjacent to any shared access on any path.

        A fence is *live* when some conflict-capable access reaches it
        on an ordering-free path **and** some such access follows it on
        one — only then can it enforce a pair the model might delay.
        Everything else is overhead: a fence before any shared access,
        after the last one, or between two other fences.
        """
        _follows, _open, fence_info = self._run_dataflow(track_fences=True)
        findings = []
        for instr, (has_before, has_after) in fence_info.items():
            if has_before and has_after:
                continue
            # Each finding is placed from its own block: indexing the
            # whole module would cost more than the lint's findings.
            block = instr.block
            function, block_label = block.function.name, block.label
            index = block.instructions.index(instr)
            if not has_before and not has_after:
                reason = "no shared access on either side on any path"
            elif not has_before:
                reason = "no shared access before it on any path"
            else:
                reason = "no shared access after it on any path"
            findings.append({
                "function": function,
                "block": block_label,
                "index": index,
                "order": instr.order.name.lower(),
                "reason": reason,
            })
        findings.sort(key=lambda f: (f["function"], f["block"], f["index"]))
        return findings


def _join(state_a, state_b):
    if state_a is None:
        return state_b
    return (
        state_a[0] | state_b[0],
        state_a[1] | state_b[1],
        state_a[2] or state_b[2],
        state_a[3] | state_b[3],
    )


def _halves(instr):
    if isinstance(instr, ins.Load):
        return (("load", False),)
    if isinstance(instr, ins.Store):
        return (("store", True),)
    if isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
        return (("rmw", False), ("rmw_store", True))
    return ()


def _pair_locations_differ(a, b):
    """May a and b touch different locations?  (Same-location pairs are
    coherence-ordered in every model and never appear as the po edges
    of a minimal critical cycle.)"""
    if a.nid == b.nid:
        return False
    if a.key is None or b.key is None:
        return a.instr is not b.instr
    return a.key != b.key


def _distinct_instances(function_a, function_b, contexts):
    """Can the two functions run in two different thread instances?"""
    roots_reaching, multiplicity = contexts
    roots_a = roots_reaching.get(function_a, set())
    roots_b = roots_reaching.get(function_b, set())
    if not roots_a or not roots_b:
        return False
    if roots_a != roots_b or len(roots_a) >= 2:
        return True
    return any(multiplicity.get(root, 0) >= 2 for root in roots_a)


def _instruction_positions(functions):
    positions = {}
    for function in functions:
        for block in function.blocks:
            for index, instr in enumerate(block.instructions):
                positions[instr] = (function.name, block.label, index)
    return positions


def analyze_robustness(module, model="wmm", cache=None, max_witnesses=5,
                       name_heuristic=True):
    """One-shot robustness classification of ``module`` under ``model``."""
    analyzer = RobustnessAnalyzer(
        module, model=model, cache=cache, name_heuristic=name_heuristic
    )
    return analyzer.analyze(max_witnesses=max_witnesses)


def find_dead_fences(module, cache=None, name_heuristic=True):
    """Dead-fence lint findings for ``module`` (wmm ordering rules)."""
    analyzer = RobustnessAnalyzer(
        module, model="wmm", cache=cache, name_heuristic=name_heuristic
    )
    return analyzer.dead_fences()
