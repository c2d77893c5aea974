"""Source-DPOR exploration backend (DESIGN.md §6h).

Dynamic partial-order reduction in the source-set style of Abdulla,
Aronis, Jonsson and Sagonas: instead of pre-computing which actions
commute (sleep sets prune *pairs* as they are discovered), the DFS
maintains a happens-before order over the events of the current
execution via vector clocks, detects *reversible races* the moment the
second event of the race executes, and schedules only the *source set*
of each race for backtracking — one representative per reads-from
equivalence class of executions, rather than one per
sleep-set-surviving trace.

**Processes, not threads.**  Under the windowed weak-memory semantics
a thread's commits on *different* addresses are themselves reorderable
scheduling choices (that is the store-window's whole point), so the
clock components cannot be threads: program order is only enforced
per location.  Events are therefore grouped into totally-ordered
*processes* — ``(tid, addr)`` for commits (per-location SC) and
``("v", tid)`` for a thread's visible steps (its own program order) —
and ``e`` happens-before ``f`` iff ``f.clock[e.proc] >= e.selfidx``.
Every cross-thread dependence is a *potentially reversible* conflict:
it joins clocks **and** feeds the race detector.  Over-detecting a
race costs a failed reversal (the Flanagan–Godefroid fallback);
silently ordering a reversible pair would lose whole equivalence
classes, so the asymmetry is deliberate.

**Footprinted visible steps.**  A visible action is an immediate
memory operation (SC and TSO run loads, drained stores and drained
RMWs straight against memory) followed by an invisible suffix, so
treating visible steps as conflicting with *everything* — the obvious
safe choice — makes every cross-thread pair of memory operations a
race under SC/TSO and degenerates DPOR into full enumeration.
Instead the pending instruction is peeked
(:meth:`~repro.mc.machine.Machine.visible_footprint`) and the step
conflicts only where its footprint does: with committed writes /
reads / rmw-execs on its address and with *immediate* accesses on its
address (the ``("iw", addr)`` / ``("ir", addr)`` tables, the
immediate-domain mirror of ``("w", addr)`` / ``("r", addr)``).
Same-thread visible-vs-commit pairs are ordered, not raced: an
immediate op under TSO sees its own buffered stores via store
forwarding and drain-requiring ops need the window empty, so either
order of the pair yields the same state (or only one order is
schedulable at all).  Two effects escape the footprint — spawning
(``next_tid``) and heap allocation (``heap_top``), both global
counters mutated inside invisible bursts — so any event that moved
them, and any visible step whose instruction could not be classified,
is *escalated* onto a global ``("g",)`` conflict chain that every
event consults.  Escalation and footprinting only ever err toward
extra conflicts, the sound direction.

Structure of the implementation:

- **Clock tables on the state.**  ``State.clocks`` maps small tuple
  keys to *indices into the current path's event list*: ``("ta", tid,
  addr)`` (last commit of a thread on an address — the forced
  per-process chain), ``("w", addr)`` / ``("r", addr)`` / ``("x",
  addr)`` (last committed write, read-commits-since, last rmw-exec),
  ``("iw", addr)`` / ``("ir", addr)`` (their immediate-operation
  mirror: last visible write step, visible read steps since), ``("vt",
  tid)`` / ``("tc", tid)`` (a thread's last visible step / last
  commit — the same-thread order chains), ``("wc", tid)`` (per
  window-slot, the event whose burst pushed that entry — a commit is
  forced after its entry's creation), ``("g",)`` (the escalation
  chain: spawners, allocators, unclassifiable steps) and ``("b",
  tid)`` (the spawning event).
  Every table write is journaled through the ``OP_CLK`` opcode
  (:mod:`repro.mc.undo`) so :func:`~repro.mc.undo.revert` restores the
  table bit-identically.
- **Race detection.**  When an event executes, its conflict
  predecessors are read straight from the clock tables; processing
  them newest-first while accumulating their clocks over the event's
  *forced* past identifies exactly the events whose happens-before
  edge is immediate — the reversible races.
- **Backtracking with source sets.**  For a race ``(e, e')`` the
  *initials* of the segment between them (events not happens-after
  ``e``, plus ``e'`` itself) are computed; if none is already
  scheduled or explored at ``pre(e)``, one enabled initial is added
  to that node's todo list — preferring ``e'``'s own thread — and
  woken from the node's sleep set if asleep (the wakeup handling that
  stops a scheduled reversal from being re-pruned).  When no initial
  is enabled at ``pre(e)``, the classic Flanagan–Godefroid fallback
  adds every enabled action there.
- **Statelessness and cycles.**  DPOR's backtrack targets live on the
  current DFS path, so cross-branch state dedup is unsound here (a
  dedup cut would hide the races of the cut continuation).  The tree
  is explored statelessly; spin programs stay finite through the
  step bound plus two path-local prunes: *self-loops* (a transition
  whose canonical digest equals its source — the same stutter prune
  the sleep backend applies) are dropped, and longer *path cycles*
  (digest equal to an ancestor on the current path) are cut while
  conservatively re-expanding every node on the cycle, so no ordering
  the cut continuation could have revealed is lost.

The property suite (``tests/property/test_dpor_identity.py``) pins
verdict identity against the sleep-set backend across the litmus
gallery and random memory-order assignments.
"""

from repro.mc.encode import state_digest
from repro.mc.explorer import _independent
from repro.mc.machine import FINISHED, LIMIT
from repro.mc.undo import revert


class _Event:
    """One executed action on the current DFS path."""

    __slots__ = ("idx", "tid", "proc", "selfidx", "akey", "clock", "node")

    def __init__(self, idx, tid, proc, selfidx, akey, clock, node):
        self.idx = idx          # position in the path event list
        self.tid = tid
        self.proc = proc        # totally-ordered chain this event is on
        self.selfidx = selfidx  # 1-based index within the process
        self.akey = akey        # Machine.enabled_actions key
        self.clock = clock      # {proc: selfidx}, includes itself
        self.node = node        # index of pre(e) in the node stack


def _hb(e, clock):
    """Is event ``e`` in the causal past described by ``clock``?"""
    return clock.get(e.proc, 0) >= e.selfidx


class _Node:
    """One scheduling point on the DFS path (the state before a choice).

    ``enabled`` keeps every enabled action (asleep ones included) so a
    later backtrack insertion can look its action object up by key;
    ``todo`` is the backtrack set (a LIFO of ``(action, akey)``),
    ``done`` the explored keys, ``sleep`` the keys proven covered.
    """

    __slots__ = ("mark", "event_depth", "digest", "enabled", "actions",
                 "done", "todo", "sleep", "in_akey", "counted", "expanded")

    def __init__(self, mark, event_depth, digest, enabled, sleep, in_akey):
        self.mark = mark                # journal mark of this state
        self.event_depth = event_depth  # len(events) at this node
        self.digest = digest
        self.enabled = enabled          # [(action, akey)] — all enabled
        self.actions = {akey: action for action, akey in enabled}
        self.done = set()
        self.todo = []
        self.sleep = sleep
        self.in_akey = in_akey          # akey that produced this node
        self.counted = False            # counted as a decision yet?
        self.expanded = False           # full expansion already done?


def _edges(state, events, akey, fp, creation):
    """Dependence edges into the next ``akey`` event, split into
    ``(forced, candidates)`` event-index sets.

    *Forced* edges are orderings the scheduler cannot reverse (or
    whose reversal provably commutes): the per-``(tid, addr)`` commit
    chain, the spawn edge, the same-thread visible/commit order
    chains, and a commit's window-entry creation event.  *Candidates*
    are the cross-thread conflicts; each is a potential race.  The
    union is the full happens-before join set for the new event's
    clock.  ``fp`` is the visible footprint (``None`` for commits and
    for unclassifiable steps), ``creation`` the committed entry's
    creation event.
    """
    clocks = state.clocks
    tid = akey[1]
    forced = set()
    candidates = set()
    b = clocks.get(("b", tid))  # None for root-born threads
    if b is not None:
        forced.add(b)
    g = clocks.get(("g",))
    if g is not None:
        # Every event consults the escalation chain; only escalated
        # events extend it, so this is one edge, not a total order.
        candidates.add(g)
    if akey[0] == "v":
        vt = clocks.get(("vt", tid))
        if vt is not None:
            forced.add(vt)  # own program order
        tc = clocks.get(("tc", tid))
        if tc is not None:
            # Own commits either cannot be enabled alongside this step
            # (drain-requiring ops need an empty window) or commute
            # with it (TSO store forwarding): ordered, never raced.
            forced.add(tc)
        if fp is None:
            # Unclassifiable step: conflicts with every commit and
            # every immediate access of every other thread.
            for key, idx in clocks.items():
                k0 = key[0]
                if k0 == "ta" and key[1] != tid:
                    candidates.add(idx)
                elif k0 == "iw" and events[idx].tid != tid:
                    candidates.add(idx)
                elif k0 == "ir":
                    candidates.update(
                        r for r in idx if events[r].tid != tid)
            return forced, candidates
        fkind, addr = fp
        w = clocks.get(("w", addr))
        if w is not None and events[w].tid != tid:
            candidates.add(w)
        iw = clocks.get(("iw", addr))
        if iw is not None and events[iw].tid != tid:
            candidates.add(iw)
        if fkind != "load":
            x = clocks.get(("x", addr))
            if x is not None and events[x].tid != tid:
                candidates.add(x)
            candidates.update(
                r for r in clocks.get(("r", addr), ())
                if events[r].tid != tid)
            candidates.update(
                r for r in clocks.get(("ir", addr), ())
                if events[r].tid != tid)
        return forced, candidates
    addr = akey[3]
    kind = akey[2]
    ta = clocks.get(("ta", tid, addr))
    if ta is not None:
        forced.add(ta)
    vt = clocks.get(("vt", tid))
    if vt is not None:
        # Any own visible step either preceded this entry's creation
        # (drain-requiring ops empty the window first) or commutes
        # with its commit (store forwarding): ordered, never raced.
        forced.add(vt)
    if creation is not None:
        forced.add(creation)  # the entry cannot commit before it exists
    w = clocks.get(("w", addr))
    if w is not None and events[w].tid != tid:
        candidates.add(w)
    iw = clocks.get(("iw", addr))
    if iw is not None and events[iw].tid != tid:
        candidates.add(iw)
    if kind != "load":
        x = clocks.get(("x", addr))
        if x is not None and events[x].tid != tid:
            candidates.add(x)
        if kind != "rmw":
            # Write halves conflict with reads; the "rmw" exec half
            # only reads (its write lands at the rmw_store commit), so
            # read-vs-read pairs stay independent.
            candidates.update(
                r for r in clocks.get(("r", addr), ())
                if events[r].tid != tid
            )
            candidates.update(
                r for r in clocks.get(("ir", addr), ())
                if events[r].tid != tid
            )
    return forced, candidates


def _races(state, events, akey, fp, creation):
    """Reversible races the next ``akey`` event closes, newest first.

    A conflict predecessor ``e`` is a race iff the happens-before edge
    ``e -> e'`` is immediate: not already implied by ``e'``'s forced
    past or by a *newer* conflict predecessor.  Walking candidates
    newest-first while joining their clocks into an accumulator checks
    exactly that.
    """
    forced, candidates = _edges(state, events, akey, fp, creation)
    if not candidates:
        return ()
    acc = {}
    for i in forced:
        for proc, val in events[i].clock.items():
            if acc.get(proc, 0) < val:
                acc[proc] = val
    races = []
    for idx in sorted(candidates, reverse=True):
        e = events[idx]
        if _hb(e, acc):
            continue  # already ordered: not reversible
        if _reserved_against(e, akey):
            continue
        races.append(e)
        for proc, val in e.clock.items():
            if acc.get(proc, 0) < val:
                acc[proc] = val
    return races


def _reserved_against(e, akey):
    """Is event ``e`` another thread's rmw-store that the next ``akey``
    commit could never have run before?

    A successful rmw exec reserves its address until the same thread's
    rmw-store commits, and the reservation disables every other
    thread's non-load commit there (``Machine.enabled_actions``).  So
    such a commit is never enabled at ``pre(e)``, and reversing the
    pair there is impossible.  The reversible race is with the exec
    that took the reservation: it stays a candidate through the
    ``("x", addr)`` table, and skipping ``e`` without joining its
    clock keeps the exec from being ordered away.
    """
    return (akey[0] == "c" and akey[2] != "load"
            and e.akey[0] == "c" and e.akey[2] == "rmw_store"
            and e.akey[3] == akey[3] and e.tid != akey[1])


def _push_event(machine, state, events, akey, node_index, root_tids,
                fp, escalated, creation, removed):
    """Record the just-applied action as an event and update the clock
    tables (journaled).

    ``removed`` is the committed entry's pre-apply window index when
    the commit deleted it (``None`` for visible steps and for the
    in-place "rmw" exec morph), used to keep the per-slot creation
    table aligned with the window.
    """
    journal = machine.journal
    clocks = state.clocks
    tid = akey[1]
    if akey[0] == "v":
        proc = ("v", tid)
        prev = clocks.get(("vt", tid))
    else:
        proc = (tid, akey[3])
        prev = clocks.get(("ta", tid, akey[3]))
    selfidx = events[prev].selfidx + 1 if prev is not None else 1
    forced, candidates = _edges(state, events, akey, fp, creation)
    clock = {}
    for i in forced | candidates:
        for p, val in events[i].clock.items():
            if clock.get(p, 0) < val:
                clock[p] = val
    clock[proc] = selfidx
    idx = len(events)
    event = _Event(idx, tid, proc, selfidx, akey, clock, node_index)
    events.append(event)

    cs = state.clock_set
    if akey[0] == "v":
        cs(("vt", tid), idx, journal)
        if fp is not None:
            fkind, addr = fp
            if fkind == "load":
                cs(("ir", addr),
                   clocks.get(("ir", addr), ()) + (idx,), journal)
            else:
                cs(("iw", addr), idx, journal)
                if clocks.get(("ir", addr)):
                    cs(("ir", addr), (), journal)
    else:
        addr = akey[3]
        kind = akey[2]
        cs(("ta", tid, addr), idx, journal)
        cs(("tc", tid), idx, journal)
        if kind == "load":
            cs(("r", addr), clocks.get(("r", addr), ()) + (idx,), journal)
        elif kind == "rmw":
            cs(("x", addr), idx, journal)
        else:
            # Write-like: it joined the reads/rmw-execs above, so the
            # write chain covers them transitively — reset the read
            # list to keep it small (stale "x" entries are filtered by
            # the race accumulator instead).
            cs(("w", addr), idx, journal)
            if clocks.get(("r", addr)):
                cs(("r", addr), (), journal)
    if escalated or (akey[0] == "v" and fp is None):
        cs(("g",), idx, journal)
    # Window-slot creation table: drop the committed slot, then
    # attribute every entry this event's bursts pushed (quiescence can
    # push into *any* thread's window — a commit freeing a full window
    # slot, a finish satisfying a join) to this event.
    for t2, thread2 in state.threads.items():
        wc = clocks.get(("wc", t2), ())
        changed = False
        if removed is not None and t2 == tid and removed < len(wc):
            wc = wc[:removed] + wc[removed + 1:]
            changed = True
        n = len(thread2.window)
        if len(wc) < n:
            wc = wc + (idx,) * (n - len(wc))
            changed = True
        if changed:
            cs(("wc", t2), wc, journal)
    # Threads spawned by this action's invisible burst: their events
    # are causally after this one (spawn edge), which keeps parent
    # setup / child use pairs out of the race detector.
    for t2 in state.threads:
        if t2 not in root_tids and ("b", t2) not in clocks:
            cs(("b", t2), idx, journal)
    return event


def _schedule_disabled(node, akey, stats):
    """Schedule, at ``node``, the commits its rmw exec ``akey`` disabled.

    A successful exec takes its address's reservation, which disables
    every other thread's non-load commit there
    (``Machine.enabled_actions``) until the exec's own rmw-store
    commits.  Each such commit enabled at ``node`` is in a race with
    the exec that the race detector may never see: it only compares
    executed events, and the disabled commit may never execute in this
    subtree (sleep sets can prune every continuation in which the
    reservation clears).  Scheduling it here explores the order the
    disabling hides — the Flanagan–Godefroid treatment of co-enabled
    actions where one disables the other.
    """
    tid, addr = akey[1], akey[3]
    scheduled = node.done | {k for _, k in node.todo}
    for action, other in node.enabled:
        if (other[0] == "c" and other[1] != tid and other[3] == addr
                and other[2] != "load" and other not in scheduled
                and other not in node.sleep):
            node.todo.append((action, other))
            stats.backtrack_points += 1


def _expand_all(node, stats, wake=True):
    """Flanagan–Godefroid fallback: schedule every enabled action.

    ``wake=True`` (race-reversal fallback) also pulls actions out of the
    node's sleep set: a reversal targets a *different* equivalence class,
    so the sleep coverage argument (which is per-class) does not apply.
    ``wake=False`` (cycle proviso) leaves sleepers asleep: the sleep-set
    invariant — every trace from this state starting with a slept action
    is Mazurkiewicz-equivalent to one already explored or scheduled — is
    a property of the state's continuations and covers the cycle case,
    so only genuinely unscheduled actions can be "ignored".
    """
    if node.expanded and wake is False:
        return
    scheduled = node.done | {k for _, k in node.todo}
    for action, akey in node.enabled:
        if akey in scheduled:
            continue
        if akey in node.sleep:
            if not wake:
                continue
            node.sleep.discard(akey)
            stats.wakeup_reexplorations += 1
        node.todo.append((action, akey))
        stats.backtrack_points += 1
    if not wake:
        node.expanded = True


def _insert_backtrack(nodes, events, race, event, stats):
    """Schedule a reversal of ``race -> event`` at ``pre(race)``.

    Computes the initials of the segment between the two race events;
    if any is already explored or scheduled at the target node the
    reversal is covered, otherwise one enabled initial is added
    (waking it if asleep).  No enabled initial at all triggers the
    full-expansion fallback.
    """
    target = nodes[race.node]
    seg = []
    initials = []
    for f in events[race.idx + 1:event.idx]:
        if _hb(race, f.clock):
            continue  # happens-after the race head: not in the segment
        if not any(_hb(g, f.clock) for g in seg):
            initials.append(f.akey)
        seg.append(f)
    if not any(_hb(g, event.clock) for g in seg):
        initials.append(event.akey)

    scheduled = target.done | {k for _, k in target.todo}
    for akey in initials:
        if akey in scheduled:
            return  # this reversal is (or will be) explored
    ordered = ([k for k in initials if k[1] == event.tid]
               + [k for k in initials if k[1] != event.tid])
    for akey in ordered:
        action = target.actions.get(akey)
        if action is None:
            continue  # initial not enabled at the target
        target.todo.append((action, akey))
        stats.backtrack_points += 1
        if akey in target.sleep:
            target.sleep.discard(akey)
            stats.wakeup_reexplorations += 1
        return
    _expand_all(target, stats)


def explore_dpor(machine, state, result, stats, max_states):
    """Source-DPOR traversal from the built root ``state``; drop-in peer
    of the explorer's stateful traversal.

    Single-choice nodes count as macro steps instead of decisions,
    mirroring the sleep backend's metric; DPOR still keeps a node per
    event, as a backtrack target.
    """
    interner = machine.ctx.interner
    journal = machine.journal
    root_tids = frozenset(state.threads)
    # Entries already sitting in windows after the initial quiescence
    # predate every event: seed their creation slots with None so the
    # per-slot reconciliation in _push_event never attributes them to
    # the first event that happens to commit.  (Pre-root, so never
    # journaled and never reverted past.)
    for tid, thread in state.threads.items():
        if thread.window:
            state.clocks[("wc", tid)] = (None,) * len(thread.window)
    if state.violation is not None:
        result.violation = state.violation
        result.trace = state.trace_list()
        return

    events = []        # _Event per applied action on the current path
    nodes = []         # _Node stack (the current path's choice points)
    path_digests = {}  # digest -> node index, for path-cycle detection

    def open_node(in_akey, digest):
        """Turn the current state into a node, or handle a terminal.

        Returns the node (not yet pushed), or None when the state is
        terminal — finished, deadlocked, step-limited, or fully
        sleep-blocked — with the verdict bookkeeping done.
        """
        if any(t.status == LIMIT for t in state.threads.values()):
            result.truncated = True
            result.states_explored += 1
            stats.equivalence_classes += 1
            return None
        pairs = machine.enabled_actions(state)
        if not pairs:
            result.states_explored += 1
            stats.equivalence_classes += 1
            if not all(t.status == FINISHED
                       for t in state.threads.values()):
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
            return None
        if nodes and in_akey is not None:
            sleep = {k for k in nodes[-1].sleep if _independent(k, in_akey)}
        else:
            sleep = set()
        schedulable = [p for p in pairs if p[1] not in sleep]
        if not schedulable:
            # Every enabled action is covered by a sibling subtree: a
            # redundant prefix, not a new equivalence class.
            stats.sleep_prunes += len(pairs)
            return None
        stats.sleep_prunes += len(pairs) - len(schedulable)
        node = _Node(
            mark=len(journal),
            event_depth=len(events),
            digest=digest,
            enabled=pairs,
            sleep=sleep,
            in_akey=in_akey,
        )
        if len(schedulable) > 1:
            node.counted = True
            result.states_explored += 1
        else:
            stats.macro_steps += 1
        # Initial exploration: keep running the incoming thread when
        # possible (deeper macro runs, fewer context switches); races
        # discovered below schedule the reversals.
        pick = None
        if in_akey is not None:
            tid = in_akey[1]
            for p in schedulable:
                if p[1][1] == tid:
                    pick = p
                    break
        if pick is None:
            pick = schedulable[0]
        node.todo.append(pick)
        return node

    root = open_node(None, state_digest(state, interner))
    if root is not None:
        nodes.append(root)
        path_digests[root.digest] = 0

    while nodes:
        if len(nodes) > stats.peak_frontier:
            stats.peak_frontier = len(nodes)
        node = nodes[-1]
        entry = None
        while node.todo:
            candidate = node.todo.pop()
            if candidate[1] not in node.done:
                entry = candidate
                break
        if entry is None:
            # Subtree exhausted: the incoming action is now provably
            # covered at the parent — put it to sleep there.
            nodes.pop()
            del path_digests[node.digest]
            del events[node.event_depth:]
            if nodes:
                nodes[-1].sleep.add(node.in_akey)
            continue
        action, akey = entry
        node.done.add(akey)
        if not node.counted and len(node.done) > 1:
            # A backtrack insertion turned a macro run into a genuine
            # decision point after the fact.
            node.counted = True
            result.states_explored += 1

        # Restore the node's state bit-identically.
        if len(journal) > node.mark:
            revert(state, journal, node.mark)
        del events[node.event_depth:]

        # Footprint and creation edge are read off the *pre*-apply
        # state; escalation (spawn/malloc inside the bursts) is only
        # observable after.  The clock tables are untouched by
        # apply_action, so race detection safely runs post-apply.
        creation = removed = None
        fp = None
        if akey[0] == "v":
            fp = machine.visible_footprint(state, akey[1])
        else:
            cindex = action[2]
            wc = state.clocks.get(("wc", akey[1]), ())
            if cindex < len(wc):
                creation = wc[cindex]
        pre_tid, pre_heap = state.next_tid, state.heap_top
        machine.apply_action(state, action)
        stats.transitions += 1
        if state.violation is not None:
            result.violation = state.violation
            result.trace = state.trace_list()
            return
        escalated = (state.next_tid != pre_tid
                     or state.heap_top != pre_heap)
        if akey[0] != "v":
            if akey[2] == "rmw":
                if state.reservations.get(akey[3]) == akey[1]:
                    _schedule_disabled(node, akey, stats)
                # A successful exec morphs its entry into "rmw_store"
                # in place; a failed compare-exchange deletes it.  The
                # morph is detectable post-apply: per-address FIFO
                # means no *other* rmw_store on this address can have
                # shifted into the slot.
                window = state.threads[akey[1]].window
                if not (cindex < len(window)
                        and window[cindex].kind == "rmw_store"
                        and window[cindex].addr == akey[3]):
                    removed = cindex
            else:
                removed = cindex
        races = _races(state, events, akey, fp, creation)
        stats.races_detected += len(races)
        event = _push_event(machine, state, events, akey,
                            len(nodes) - 1, root_tids, fp, escalated,
                            creation, removed)
        for race in races:
            _insert_backtrack(nodes, events, race, event, stats)

        stats.states_visited += 1
        if stats.states_visited >= max_states:
            result.truncated = True
            result.notes.append("state budget exhausted")
            return

        digest = state_digest(state, interner)
        if digest == node.digest:
            # Stutter (failing CAS, re-read of an unchanged flag): the
            # state is unchanged, so every continuation through this
            # event is explored from the node itself.  A self-loop is a
            # cycle of length one, so the cycle proviso applies here
            # too: without the expansion a node whose only scheduled
            # action stutters would exhaust with the other threads
            # ignored forever (a spin loop would mask the writer that
            # ends it).
            stats.loop_prunes += 1
            stats.cycle_expansions += 1
            _expand_all(node, stats, wake=False)
            events.pop()
            node.sleep.add(akey)
            continue
        if digest in path_digests:
            # Path cycle: cut the closing transition and fully expand
            # the current node — the cycle proviso (Valmari/Peled): a
            # cut cycle is safe for reachability when at least one of
            # its states explores every enabled action, so no action
            # is ignored forever around the loop.
            stats.cycle_expansions += 1
            _expand_all(node, stats, wake=False)
            events.pop()
            node.sleep.add(akey)
            continue

        child = open_node(akey, digest)
        if child is None:
            node.sleep.add(akey)
            continue
        nodes.append(child)
        path_digests[digest] = len(nodes) - 1
