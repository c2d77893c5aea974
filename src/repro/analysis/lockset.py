"""Interprocedural must-lockset analysis.

Computes, for every instruction in a module, the set of locks that are
*definitely held* when it executes.  This is the reduction argument of
Bouajjani et al. ("Reasoning About TSO Programs Using Reduction and
Abstraction") made usable as a pruning oracle: accesses consistently
protected by the same lock are race-free under any memory model, so
AtoMig's over-approximating atomization can skip them.

Lock identification is idiom-based, matching the corpus (and the code
bases the paper ports):

1. **TAS-edge acquire** — a conditional branch testing the result of a
   ``cmpxchg``/``atomicrmw xchg`` against the free value 0 acquires the
   lock on the success edge.  This covers test-and-set spinlocks
   (``while (cmpxchg(&l, 0, 1) != 0) {}``) as well as trylock shapes.
2. **Store release** — a store of 0 to a known lock location releases
   it; any other write to a lock location conservatively kills it.
3. **Lock-pair name heuristic** (optional) — a function pair named
   ``X…lock`` / ``X…unlock`` where the lock side performs an atomic RMW
   and the unlock side stores is summarized as acquiring/releasing an
   abstract token ``("fnpair", lock_name)``.  Tokens are flagged
   *heuristic*: the race linter reports them with lower confidence and
   the pruning stage ignores them.

Explicit fences are deliberately treated as lockset-neutral: fence-based
synchronization (Peterson, Dekker) provides ordering, not mutual
exclusion, and is left to the spinloop detector.

The analysis is compositional.  Each straight-line region is summarized
as a *transfer* ``(gen, kill, tainted)`` over lock keys with
``out = (in - kill) | gen``; transfers compose sequentially and meet
(must: intersect gens, union kills) at control-flow merges.  Function
summaries are transfers computed bottom-up over the call graph; call
sites apply the callee's summary in place.  Calls whose effect is
unknown (recursion cycles) kill every lock and taint the state, which
under-approximates locksets — the safe direction for pruning.
"""

from dataclasses import dataclass, field

from repro.analysis.cache import AnalysisCache
from repro.ir import instructions as ins
from repro.ir.values import Constant


@dataclass(frozen=True)
class Transfer:
    """Relative lockset effect of a code region: out = (in - kill) | gen."""

    gen: frozenset = frozenset()
    kill: frozenset = frozenset()
    tainted: bool = False

    def apply(self, held):
        return (held - self.kill) | self.gen

    def then(self, other):
        """Sequential composition: ``self`` first, then ``other``."""
        if other is IDENTITY:
            return self
        if self is IDENTITY:
            return other
        return Transfer(
            gen=frozenset((self.gen - other.kill) | other.gen),
            kill=frozenset(self.kill | other.kill),
            tainted=self.tainted or other.tainted,
        )

    def meet(self, other):
        """Must-meet at a control-flow merge."""
        if other is None:
            return self
        return Transfer(
            gen=frozenset(self.gen & other.gen),
            kill=frozenset(self.kill | other.kill),
            tainted=self.tainted or other.tainted,
        )


IDENTITY = Transfer()


@dataclass
class LockInfo:
    """One discovered lock: its key and where it is acquired/released."""

    key: tuple
    heuristic: bool = False
    #: (function, block label) pairs of acquire edges / summaries.
    acquire_sites: list = field(default_factory=list)
    #: (function, block label) pairs of releasing stores / summaries.
    release_sites: list = field(default_factory=list)

    def describe(self):
        kind, *rest = self.key
        if kind == "fnpair":
            return f"lock function @{rest[0]} (name heuristic)"
        if kind == "global":
            return f"@{rest[0]}"
        if kind == "field":
            return f"{rest[0]}@+{rest[1]}"
        return repr(self.key)


@dataclass
class LocksetResult:
    """Module-wide lockset facts."""

    module: object = None
    #: key -> LockInfo for every discovered lock.
    locks: dict = field(default_factory=dict)
    #: function name -> Transfer summary (entry to return).
    summaries: dict = field(default_factory=dict)
    #: function name -> must-held lockset at entry over all call sites.
    entry_held: dict = field(default_factory=dict)
    #: instruction -> (frozenset of lock keys, tainted flag).
    _held_at: dict = field(default_factory=dict)

    @property
    def lock_keys(self):
        return frozenset(self.locks)

    def structural_keys(self):
        """Lock keys established by the TAS idiom (pruning-grade)."""
        return frozenset(
            key for key, info in self.locks.items() if not info.heuristic
        )

    def lockset_at(self, instr):
        """(held lock keys, tainted) at ``instr``; (∅, True) if unseen."""
        return self._held_at.get(instr, (frozenset(), True))


def compute_locksets(module, callgraph=None, name_heuristic=True, cache=None):
    """Run the analysis on ``module``; returns a :class:`LocksetResult`."""
    if cache is None:
        cache = AnalysisCache(module)
    callgraph = callgraph or cache.callgraph()
    infos = cache.nonlocal_infos()
    result = LocksetResult(module=module)

    _discover_locks(module, infos, result)
    if name_heuristic:
        _discover_lock_pairs(module, result)
    if not result.locks:
        # No locks anywhere: every lockset is empty and untainted.
        for function in module.functions.values():
            for instr in function.instructions():
                result._held_at[instr] = (frozenset(), False)
            result.summaries[function.name] = IDENTITY
            result.entry_held[function.name] = frozenset()
        return result

    states = _compute_summaries(module, callgraph, infos, result)
    _compute_entry_held(module, callgraph, infos, result, states)
    _record_per_instruction(module, infos, result, states)
    return result


# ---------------------------------------------------------------------------
# Phase 1 — lock discovery
# ---------------------------------------------------------------------------


def _acquire_edges(block, info):
    """TAS-edge idiom: ``{successor: lock key}`` acquired on that edge."""
    terminator = block.terminator
    if not isinstance(terminator, ins.CondBr):
        return {}
    cond = terminator.cond
    while isinstance(cond, ins.Cast):
        cond = cond.value
    if not isinstance(cond, ins.BinOp) or cond.op not in ("==", "!="):
        return {}
    left, right = cond.left, cond.right
    if isinstance(left, Constant):
        left, right = right, left
    if not isinstance(right, Constant) or right.value != 0:
        return {}
    while isinstance(left, ins.Cast):
        left = left.value
    if not _is_lock_acquire_rmw(left) or left.block is not block:
        return {}
    key = info.location_key(left.accessed_pointer())
    if key is None:
        return {}
    # The RMW returns the *old* value; old == 0 means the lock was free
    # and the RMW took it.
    success = (
        terminator.true_block if cond.op == "==" else terminator.false_block
    )
    return {success: key}


def _is_lock_acquire_rmw(value):
    """True for RMWs that install a non-zero value when they see 0."""
    if isinstance(value, ins.Cmpxchg):
        return (
            isinstance(value.expected, Constant)
            and value.expected.value == 0
            and not (
                isinstance(value.desired, Constant)
                and value.desired.value == 0
            )
        )
    if isinstance(value, ins.AtomicRMW) and value.op == "xchg":
        return not (
            isinstance(value.value, Constant) and value.value.value == 0
        )
    return False


def _discover_locks(module, infos, result):
    for function in module.functions.values():
        info = infos[function.name]
        for block in function.blocks:
            for successor, key in _acquire_edges(block, info).items():
                lock = result.locks.setdefault(key, LockInfo(key))
                lock.acquire_sites.append((function.name, block.label))
    # Releases: stores of 0 to a discovered lock location.
    for function in module.functions.values():
        info = infos[function.name]
        for block in function.blocks:
            for instr in block.instructions:
                if not isinstance(instr, ins.Store):
                    continue
                key = info.location_key(instr.pointer)
                if key in result.locks and _stores_zero(instr):
                    result.locks[key].release_sites.append(
                        (function.name, block.label)
                    )


def _stores_zero(store):
    return isinstance(store.value, Constant) and store.value.value == 0


def _discover_lock_pairs(module, result):
    """Name-heuristic tokens for lock functions the idioms miss (MCS)."""
    for name, function in module.functions.items():
        if "unlock" not in name:
            continue
        partner = name.replace("unlock", "lock")
        lock_fn = module.functions.get(partner)
        if lock_fn is None:
            return_token = None
        else:
            has_rmw = any(
                isinstance(i, (ins.Cmpxchg, ins.AtomicRMW))
                for i in lock_fn.instructions()
            )
            has_store = any(
                isinstance(i, ins.Store) for i in function.instructions()
            )
            return_token = ("fnpair", partner) if has_rmw and has_store else None
        if return_token is None:
            continue
        info = result.locks.setdefault(
            return_token, LockInfo(return_token, heuristic=True)
        )
        info.heuristic = True
        info.acquire_sites.append((partner, "<summary>"))
        info.release_sites.append((name, "<summary>"))


# ---------------------------------------------------------------------------
# Phase 2 — function summaries (bottom-up) and per-block transfers
# ---------------------------------------------------------------------------


def _instruction_transfer(instr, info, result):
    if isinstance(instr, ins.Store):
        key = info.location_key(instr.pointer)
        if key in result.locks:
            return Transfer(kill=frozenset((key,)))
        return IDENTITY
    if isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
        key = info.location_key(instr.accessed_pointer())
        if key in result.locks:
            # The RMW itself writes the lock word; the acquire, if any,
            # happens on the success edge of the guarding branch.
            return Transfer(kill=frozenset((key,)))
        return IDENTITY
    if isinstance(instr, ins.Call):
        summary = result.summaries.get(instr.callee.name)
        if summary is None:
            return Transfer(kill=result.lock_keys, tainted=True)
        return summary
    # Fences, thread ops, computation: lockset-neutral.
    return IDENTITY


def _fnpair_token_transfer(function_name, result):
    """Extra gen/kill from the name-heuristic lock-pair tokens."""
    for key, lock in result.locks.items():
        if not lock.heuristic:
            continue
        if any(site[0] == function_name for site in lock.acquire_sites):
            return Transfer(gen=frozenset((key,)))
        if any(site[0] == function_name for site in lock.release_sites):
            return Transfer(kill=frozenset((key,)))
    return IDENTITY


def _block_transfers(function, info, result, upto=None):
    """Transfer of each whole block (or up to instruction ``upto``)."""
    transfers = {}
    for block in function.blocks:
        xfer = IDENTITY
        for instr in block.instructions:
            if instr is upto:
                break
            xfer = xfer.then(_instruction_transfer(instr, info, result))
        transfers[block] = xfer
    return transfers


def _dataflow(function, info, result):
    """Per-block in-transfers (relative to function entry), to fixpoint."""
    body = _block_transfers(function, info, result)
    edge_gens = {}
    for block in function.blocks:
        for successor, key in _acquire_edges(block, info).items():
            edge_gens[(block, successor)] = Transfer(gen=frozenset((key,)))

    in_state = {function.entry: IDENTITY}
    worklist = [function.entry]
    while worklist:
        block = worklist.pop(0)
        out = in_state[block].then(body[block])
        for successor in block.successors():
            via = out
            gen = edge_gens.get((block, successor))
            if gen is not None:
                via = via.then(gen)
            merged = via.meet(in_state.get(successor))
            if merged != in_state.get(successor):
                in_state[successor] = merged
                if successor not in worklist:
                    worklist.append(successor)
    return in_state, body


def _compute_summaries(module, callgraph, infos, result):
    """Summarize every function bottom-up; returns the dataflow states.

    The states of a non-recursive function are final: all its callees
    were summarized before it, and summaries never change afterwards.
    Recursive functions are summarized up front without a dataflow, so
    they have no states yet.
    """
    all_keys = result.lock_keys
    recursive = callgraph.recursive_functions()
    for name in recursive:
        result.summaries[name] = Transfer(kill=all_keys, tainted=True)
    states = {}
    for name in callgraph.bottom_up_order():
        if name in result.summaries:
            continue
        function = module.functions[name]
        in_state, body = states[name] = _dataflow(
            function, infos[name], result
        )
        summary = None
        for block in function.blocks:
            if not isinstance(block.terminator, ins.Ret):
                continue
            if block not in in_state:
                continue  # unreachable
            exit_state = in_state[block].then(body[block])
            summary = exit_state.meet(summary)
        if summary is None:
            # No reachable return: callers never resume.
            summary = Transfer(kill=all_keys, tainted=True)
        result.summaries[name] = summary.then(
            _fnpair_token_transfer(name, result)
        )
    return states


# ---------------------------------------------------------------------------
# Phase 3 — entry held-sets (top-down over call sites) and per-access facts
# ---------------------------------------------------------------------------


def _roots(module, callgraph):
    roots = {"main"} & set(module.functions)
    roots |= callgraph.thread_entries & set(module.functions)
    roots |= {
        name for name in module.functions if not callgraph.callers[name]
    }
    return roots


def _compute_entry_held(module, callgraph, infos, result, states):
    all_keys = result.lock_keys
    roots = _roots(module, callgraph)
    held = {
        name: frozenset() if name in roots else all_keys
        for name in module.functions
    }
    # Per-function dataflow states do not depend on the caller
    # (transfers are relative to function entry); only the recursive
    # functions still lack them.
    for name, function in module.functions.items():
        if name not in states:
            states[name] = _dataflow(function, infos[name], result)

    changed = True
    while changed:
        changed = False
        for name in module.functions:
            if name in roots:
                continue
            incoming = None
            for site in callgraph.sites_of(name):
                caller = module.functions[site.caller]
                in_state, _body = states[site.caller]
                site_block = caller.block_map()[site.block_label]
                if site_block not in in_state:
                    continue  # call site unreachable from caller entry
                xfer = in_state[site_block]
                for instr in site_block.instructions[: site.index]:
                    xfer = xfer.then(
                        _instruction_transfer(instr, infos[site.caller], result)
                    )
                at_site = xfer.apply(held[site.caller])
                incoming = (
                    at_site if incoming is None else (incoming & at_site)
                )
            new = frozenset() if incoming is None else frozenset(incoming)
            if new != held[name]:
                held[name] = new
                changed = True
    result.entry_held = held


def _record_per_instruction(module, infos, result, states):
    for name, function in module.functions.items():
        in_state, _body = states[name]
        entry = result.entry_held[name]
        for block in function.blocks:
            if block not in in_state:
                # Unreachable block: nothing is known to be held.
                for instr in block.instructions:
                    result._held_at[instr] = (frozenset(), True)
                continue
            xfer = in_state[block]
            for instr in block.instructions:
                result._held_at[instr] = (
                    frozenset(xfer.apply(entry)), xfer.tainted
                )
                xfer = xfer.then(
                    _instruction_transfer(instr, infos[name], result)
                )
