"""The operational multiprocessor machine used by the model checker.

Each thread runs an in-order *issue* stage over the IR and, under weak
models, an out-of-order *commit* stage over a bounded window of pending
memory operations (DESIGN.md §6).  Key ideas:

- **Private fast path**: accesses through non-escaping allocas are
  thread-private and execute immediately — a sound partial-order
  reduction that leaves only genuinely shared operations as scheduling
  points.
- **Lazy loads** (WMM): a shared load yields a *token*; execution
  continues until some instruction needs the value, at which point the
  scheduler must commit the load (reading memory at commit time).  This
  realizes load-reordering operationally, e.g. a seqlock's data read
  escaping its validation loop.
- **Split RMWs** (WMM): a compare-exchange first *executes* (atomic
  read + reservation), then its store half lingers as a release store
  that later plain stores may overtake — precisely the Armv8
  LDAXR/STLXR behaviour behind the MariaDB lf-hash bug (Figure 7).

Fast-state support (DESIGN.md §6f): every mutating site journals an
undo record when ``Machine.journal`` is active (the explorer),
memory writes flow through ``State.mem_write``/``mem_del`` so a Zobrist
digest of the memory image stays incrementally correct, and threads
carry a memoized encoding hash (``Thread._enc``) invalidated via
``undo.touch`` exactly when their content changes.
"""

from bisect import bisect_right

from repro.analysis.liveness import liveness_tables
from repro.analysis.nonlocal_ import NonLocalInfo
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.ir.semantics import BINOP_FUNCTIONS, RMW_FUNCTIONS
from repro.ir.values import Argument, Constant, GlobalVar
from repro.mc.encode import Interner, cell_hash, entry_code
from repro.mc.undo import (
    OP_ALLOC,
    OP_CLK,
    OP_FPOP,
    OP_FPUSH,
    OP_FSWAP,
    OP_MEM,
    OP_OUT,
    OP_RES,
    OP_SSET,
    OP_STACK,
    OP_STATUS,
    OP_STEPS,
    OP_TNEW,
    OP_TRACE,
    OP_WADD,
    OP_WDEL,
    OP_WSET,
    snapshot_frame,
    touch,
)

GLOBAL_BASE = 1_000
HEAP_BASE = 500_000
STACK_BASE = 1_000_000
STACK_SIZE = 50_000

TRACE_CAP = 400  # longest scheduler/commit trace kept per state

_PENDING = "p"  # tag of pending-value tuples ('p', token)

_ABSENT = object()  # memory-cell sentinel distinguishing 0 from missing


def is_pending(value):
    return isinstance(value, tuple) and value[0] == _PENDING


class Context:
    """Static data about one (module, model), shared by every explored
    state and by every check run on it.

    Every table except the decode table (``codes``) is keyed by
    instruction identity and reads pointers and operands, never memory
    orders, and a fence has no operands and no result: rewriting an
    order, deleting a fence or re-inserting it leaves them all valid,
    provided the context was built with the fence in place (else
    ``unused`` misses it).
    The decoded code of a block captures its instructions' orders and
    indices, so whoever writes the module between two checks drops the
    written block's code (:meth:`invalidate`).  Owning a function of
    ``main``'s closure (:meth:`Module.own`) replaces its objects; the
    context no longer describes the module then (:meth:`bound_to`).
    """

    def __init__(self, module, model):
        self.module = module
        self.model = model
        self.interner = Interner()
        # Basic block -> its decoded code (Machine._decode), filled as
        # checks enter blocks.
        self.codes = {}
        self.global_addr = {}
        self.global_layout = []  # (addr, value) initial memory image
        self.global_regions = []  # (start, end, name), sorted by start
        addr = GLOBAL_BASE
        for gvar in module.globals.values():
            self.global_addr[gvar.name] = addr
            for offset, value in enumerate(gvar.initializer):
                if value != 0:
                    self.global_layout.append((addr + offset, value))
            size = max(gvar.value_type.size, 1)
            self.global_regions.append((addr, addr + size, gvar.name))
            addr += size
        # Only ``main`` and what it transitively calls or spawns can
        # ever get a frame, so every per-function table below covers
        # just that closure.
        functions = _main_closure(module)
        self.functions = {function.name: function for function in functions}
        # Liveness-driven env GC: operand death points and write-skips
        # (see repro.analysis.liveness) — keeps frame envs at live-set
        # size, which every encode/clone/canonical is O() of.
        self.dies = {}
        self.unused = set()
        for function in functions:
            fdies, funused = liveness_tables(function)
            self.dies.update(fdies)
            self.unused |= funused
        # Static classification: which accesses are provably private.
        self.private = set()
        for function in functions:
            info = NonLocalInfo(function)
            for instr in function.instructions():
                if instr.is_memory_access():
                    pointer = instr.accessed_pointer()
                    if not info.is_nonlocal_pointer(pointer):
                        self.private.add(id(instr))
        self._compute_access_sets(functions)

    # -- static reachable-access sets (for partial-order reduction) -------

    def _compute_access_sets(self, functions):
        """For every function of ``functions``, which globals its
        transitive closure may touch non-privately.

        ``func_access[name]`` is ``(reads, runknown, writes, wunknown)``:
        the globals the function (or anything it transitively calls or
        spawns) may access / may write, with an ``unknown`` flag set when
        some access goes through a pointer we cannot attribute to a
        single global (heap, escaped stack, argument) and must be
        treated as touching anything.  ``reads`` includes the writes.
        ``spawn_access[name]`` is the same 4-tuple restricted to code
        only reachable through ``thread_create`` edges — the accesses a
        *new* thread spawned from here might perform.

        Both fixpoints only flow from callee to caller, so restricting
        ``functions`` to a closure over call and spawn edges leaves the
        sets of its members unchanged.
        """
        direct = {}
        call_edges = {}
        create_edges = {}
        for function in functions:
            reads, writes = set(), set()
            runknown = wunknown = False
            calls = set()
            creates = set()
            for instr in function.instructions():
                if instr.is_memory_access() and id(instr) not in self.private:
                    is_write = not isinstance(instr, ins.Load)
                    root = _pointer_root(instr.accessed_pointer())
                    if root is None:
                        runknown = True
                        wunknown = wunknown or is_write
                    else:
                        reads.add(root)
                        if is_write:
                            writes.add(root)
                if isinstance(instr, ins.Call):
                    calls.add(instr.callee.name)
                elif isinstance(instr, ins.ThreadCreate):
                    creates.add(instr.callee.name)
            direct[function.name] = (reads, runknown, writes, wunknown)
            call_edges[function.name] = calls
            create_edges[function.name] = creates

        # Fixpoint over call + create edges: everything the function or
        # anything it (transitively) runs or spawns may access.
        _TOP = (set(), True, set(), True)
        access = {
            name: (set(t[0]), t[1], set(t[2]), t[3])
            for name, t in direct.items()
        }
        changed = True
        while changed:
            changed = False
            for name in access:
                reads, runknown, writes, wunknown = access[name]
                for callee in call_edges[name] | create_edges[name]:
                    cr, cru, cw, cwu = access.get(callee, _TOP)
                    if not reads >= cr:
                        reads |= cr
                        changed = True
                    if not writes >= cw:
                        writes |= cw
                        changed = True
                    if (cru and not runknown) or (cwu and not wunknown):
                        runknown = runknown or cru
                        wunknown = wunknown or cwu
                        changed = True
                access[name] = (reads, runknown, writes, wunknown)
        self.func_access = {
            name: (frozenset(t[0]), t[1], frozenset(t[2]), t[3])
            for name, t in access.items()
        }

        # Call-closure (calls only, no create edges) per function.
        closure = {}
        for name in call_edges:
            seen = {name}
            frontier = [name]
            while frontier:
                current = frontier.pop()
                for callee in call_edges.get(current, ()):
                    if callee not in seen:
                        seen.add(callee)
                        frontier.append(callee)
            closure[name] = seen
        _FTOP = (frozenset(), True, frozenset(), True)
        self.spawn_access = {}
        for name, funcs in closure.items():
            reads, writes = set(), set()
            runknown = wunknown = False
            for fn in funcs:
                for callee in create_edges.get(fn, ()):
                    cr, cru, cw, cwu = self.func_access.get(callee, _FTOP)
                    reads |= cr
                    writes |= cw
                    runknown = runknown or cru
                    wunknown = wunknown or cwu
            self.spawn_access[name] = (
                frozenset(reads), runknown, frozenset(writes), wunknown,
            )

    def bound_to(self, module):
        """True while the tables describe ``module``: built on it, and
        none of ``main``'s closure owned (:meth:`Module.own`) since."""
        return self.module is module and module.holds(self.functions)

    def invalidate(self, block):
        """Drop ``block``'s decoded code after a write to the block."""
        self.codes.pop(block, None)

    def global_region(self, addr):
        """Name of the global variable containing ``addr``, or None."""
        regions = self.global_regions
        index = bisect_right(regions, (addr, float("inf"), "")) - 1
        if index >= 0:
            start, end, name = regions[index]
            if start <= addr < end:
                return name
        return None


def _main_closure(module):
    """``main`` and every function it transitively calls or spawns, in
    module order."""
    seen = {"main"} if "main" in module.functions else set()
    frontier = list(seen)
    while frontier:
        for instr in module.functions[frontier.pop()].instructions():
            if isinstance(instr, (ins.Call, ins.ThreadCreate)):
                name = instr.callee.name
                if name not in seen and name in module.functions:
                    seen.add(name)
                    frontier.append(name)
    return [function for name, function in module.functions.items()
            if name in seen]


def _pointer_root(pointer):
    """The global a pointer provably points into, or None (unknown)."""
    while True:
        if isinstance(pointer, GlobalVar):
            return pointer.name
        if isinstance(pointer, ins.Gep):
            pointer = pointer.base
        elif isinstance(pointer, ins.Cast):
            pointer = pointer.value
        else:
            return None


class WindowEntry:
    """One pending memory operation in a thread's commit window.

    Entries are *immutable* once constructed: every in-place update the
    machine used to perform (executing an RMW, resolving a pending
    value) now replaces the entry instead.  Immutability lets cloned
    states share entry objects and lets ``canonical`` memoize itself,
    and it lets the constructor derive, once, the ordering flags the
    commit rules read (``acq``, ``rel``, ``sc``) and the token-free
    part of the entry's state encoding (``code``).
    """

    __slots__ = (
        "kind",
        "addr",
        "value",
        "order",
        "token",
        "instr",
        "rmw_op",
        "rmw_operand",
        "rmw_expected",
        "rmw_desired",
        "acq",
        "rel",
        "sc",
        "code",
        "_canon",
    )

    def __init__(self, kind, addr, order, instr, value=None, token=None,
                 rmw_op=None, rmw_operand=None, rmw_expected=None,
                 rmw_desired=None):
        self.kind = kind  # "load" | "store" | "rmw" | "rmw_store"
        self.addr = addr
        self.value = value
        self.order = order
        self.token = token
        self.instr = instr
        self.rmw_op = rmw_op
        self.rmw_operand = rmw_operand
        self.rmw_expected = rmw_expected
        self.rmw_desired = rmw_desired
        # An RMW's load half is acquire, and its store half release,
        # only under an order that says so: a relaxed LL/SC pair orders
        # nothing (plain LDXR/STXR on Arm).
        self.acq = kind in ("load", "rmw") and order.has_acquire
        self.rel = kind in ("store", "rmw_store") and order.has_release
        self.sc = order is MemoryOrder.SEQ_CST
        self.code = entry_code(kind, addr, order, rmw_op, rmw_operand,
                               rmw_expected, rmw_desired)
        self._canon = None

    def resolved_with(self, value):
        """A copy of this entry with its pending value bound."""
        return WindowEntry(
            self.kind, self.addr, self.order, self.instr, value,
            self.token, self.rmw_op, self.rmw_operand, self.rmw_expected,
            self.rmw_desired,
        )

    def canonical(self, token_map):
        if self._canon is not None:
            return self._canon
        value = self.value
        if is_pending(value):
            value = ("p", token_map[value[1]])
        token = token_map.get(self.token) if self.token is not None else None
        result = (self.kind, self.addr, value, int(self.order), token,
                  self.rmw_op, self.rmw_operand, self.rmw_expected,
                  self.rmw_desired)
        if self.token is None and not is_pending(self.value):
            # Token-free entries canonicalize the same way in every
            # state, so the tuple can be cached on the (immutable) entry.
            self._canon = result
        return result

    def __repr__(self):
        return (
            f"<{self.kind} @{self.addr} = {self.value} "
            f"{self.order.name.lower()}>"
        )


class Frame:
    """One activation record of the in-order issue stage."""

    __slots__ = ("function", "block", "index", "env", "alloca_addrs",
                 "stack_base", "call_instr", "_skeys", "_salloc", "_fepoch")

    def __init__(self, function, call_instr=None):
        self.function = function
        self.block = function.entry
        self.index = 0
        self.env = {}
        self.alloca_addrs = {}
        self.stack_base = None
        self.call_instr = call_instr
        # Sorted-key caches for the state encoder, invalidated whenever
        # the respective key *set* changes (value overwrites keep them).
        self._skeys = None
        self._salloc = None
        # Journal epoch of the frame's last OP_FRAME snapshot
        # (undo.snapshot_frame): one record per action restores it.
        self._fepoch = 0

    def clone(self):
        copy = Frame.__new__(Frame)
        copy.function = self.function
        copy.block = self.block
        copy.index = self.index
        copy.env = dict(self.env)
        copy.alloca_addrs = dict(self.alloca_addrs)
        copy.stack_base = self.stack_base
        copy.call_instr = self.call_instr
        copy._skeys = self._skeys
        copy._salloc = self._salloc
        # A COW clone inherits the epoch: when it is swapped in after
        # the original's snapshot, the OP_FSWAP record restores the
        # *original* frame wholesale, so the clone's own mutations
        # never need journaling.
        copy._fepoch = self._fepoch
        return copy


# Thread statuses.
RUN = "run"
BLOCKED = "blocked"
READY = "ready"  # next instruction is a visible (immediate) memory op
FINISHING = "finishing"  # code done, window still draining
FINISHED = "finished"
LIMIT = "limit"  # hit the per-thread step bound


class Thread:
    __slots__ = ("tid", "frames", "window", "status", "steps", "stack_top",
                 "owned", "_enc", "_sepoch", "_bepoch")

    def __init__(self, tid, frame):
        self.tid = tid
        self.frames = [frame]
        self.owned = [True]
        self.window = []
        self.status = RUN
        self.steps = 0
        self.stack_top = STACK_BASE + tid * STACK_SIZE
        self._enc = None  # memoized (hash, token ids) (repro.mc.encode)
        self._sepoch = -1  # journal epoch of the last OP_STEPS record
        self._bepoch = -1  # probe epoch at which the last probe failed
        frame.stack_base = self.stack_top

    def clone(self):
        """Copy-on-write clone: frames and window entries are shared.

        Window entries are immutable, so sharing them is always safe.
        Frames are mutable, so *both* sides drop ownership: whichever
        state mutates a shared frame first clones it privately via
        :meth:`mutable_frame`.
        """
        copy = Thread.__new__(Thread)
        copy.tid = self.tid
        copy.frames = list(self.frames)
        copy.window = list(self.window)
        copy.status = self.status
        copy.steps = self.steps
        copy.stack_top = self.stack_top
        copy._enc = self._enc  # same content, same encoding
        copy._sepoch = -1  # no journal record names the copy
        copy._bepoch = self._bepoch  # same content, same probe outcome
        copy.owned = [False] * len(self.frames)
        self.owned = [False] * len(self.frames)
        return copy

    @property
    def frame(self):
        return self.frames[-1]

    def mutable_frame(self, journal=None):
        """The top frame, privately owned (cloned on first write)."""
        return self.mutable_frame_at(len(self.frames) - 1, journal)

    def mutable_frame_at(self, index, journal=None):
        if not self.owned[index]:
            old = self.frames[index]
            if journal is not None:
                journal.append((OP_FSWAP, self, index, old))
            self.frames[index] = old.clone()
            self.owned[index] = True
        return self.frames[index]

    def push_frame(self, frame):
        self.frames.append(frame)
        self.owned.append(True)

    def pop_frame(self):
        self.owned.pop()
        return self.frames.pop()

    def done(self):
        return self.status in (FINISHED, LIMIT)


class State:
    """A full machine state; cloned (or journaled) per exploration branch."""

    __slots__ = ("memory", "threads", "next_tid", "heap_top", "reservations",
                 "violation", "trace_tail", "trace_len", "output",
                 "token_counter", "mem_hash", "pending_mem", "probe_epoch",
                 "clocks")

    def __init__(self):
        self.memory = {}
        self.threads = {}
        self.next_tid = 0
        self.heap_top = HEAP_BASE
        self.reservations = {}
        self.violation = None
        self.trace_tail = None  # persistent (parent, message) chain
        self.trace_len = 0
        self.output = []
        self.token_counter = 0
        self.mem_hash = 0  # Zobrist XOR over non-zero, non-pending cells
        self.pending_mem = {}  # addr -> token for pending-valued cells
        # Monotone counter of the events that can unblock a stuck thread
        # other than a change of its own content: a thread entering
        # FINISHED/LIMIT and the revert of a status change (joins wait
        # on these).  Memory writes do not count: no step blocks on
        # memory contents (``Machine.run_quiescence``).  A blocked
        # thread whose last failed probe recorded the current value
        # (``Thread._bepoch``) is provably still stuck and its re-probe
        # is skipped.
        self.probe_epoch = 0
        # Happens-before bookkeeping for the DPOR backend
        # (:mod:`repro.mc.dpor`): event-index table keyed by
        # ``("t", tid)`` / ``("w", addr)`` / ``("r", addr)`` / ``("v",)``
        # with immutable values.  Deliberately EXCLUDED from
        # ``canonical()`` and the state key — the clocks describe
        # the execution path that produced the state, not the state
        # itself, so two path-equivalent states must still digest
        # equally.  Mutations flow through :meth:`clock_set` so the
        # undo journal restores the table bit-identically on revert.
        self.clocks = {}

    def clone(self):
        copy = State.__new__(State)
        copy.memory = dict(self.memory)
        copy.threads = {tid: t.clone() for tid, t in self.threads.items()}
        copy.next_tid = self.next_tid
        copy.heap_top = self.heap_top
        copy.reservations = dict(self.reservations)
        copy.violation = self.violation
        copy.trace_tail = self.trace_tail  # shared: the chain is immutable
        copy.trace_len = self.trace_len
        copy.output = list(self.output)
        copy.token_counter = self.token_counter
        copy.mem_hash = self.mem_hash
        copy.pending_mem = dict(self.pending_mem)
        copy.probe_epoch = self.probe_epoch
        copy.clocks = dict(self.clocks)  # values immutable, safe to share
        return copy

    def clock_set(self, key, value, journal=None):
        """Bind one DPOR clock entry, journaled for bit-identical revert.

        ``value`` must be immutable (an int event index or a tuple of
        them): revert reinstates the old binding by reference.
        """
        clocks = self.clocks
        old = clocks.get(key, _ABSENT)
        if journal is not None:
            if old is _ABSENT:
                journal.append((OP_CLK, key, False, None))
            else:
                journal.append((OP_CLK, key, True, old))
        clocks[key] = value

    # -- memory image (all mutation flows through these) ------------------

    def mem_write(self, addr, value, journal=None):
        """Write one cell, keeping the incremental digest in sync."""
        memory = self.memory
        old = memory.get(addr, _ABSENT)
        if old is _ABSENT:
            if journal is not None:
                journal.append((OP_MEM, addr, False, None))
            memory[addr] = value
            if type(value) is tuple:
                self.pending_mem[addr] = value[1]
            elif value != 0:
                self.mem_hash ^= cell_hash(addr, value)
            return
        if old == value:
            return
        if journal is not None:
            journal.append((OP_MEM, addr, True, old))
        memory[addr] = value
        if type(old) is tuple:
            del self.pending_mem[addr]
        elif old != 0:
            self.mem_hash ^= cell_hash(addr, old)
        if type(value) is tuple:
            self.pending_mem[addr] = value[1]
        elif value != 0:
            self.mem_hash ^= cell_hash(addr, value)

    def mem_del(self, addr, journal=None):
        """Drop one cell (stack reclamation), digest kept in sync."""
        old = self.memory.pop(addr, _ABSENT)
        if old is _ABSENT:
            return
        if journal is not None:
            journal.append((OP_MEM, addr, True, old))
        if type(old) is tuple:
            del self.pending_mem[addr]
        elif old != 0:
            self.mem_hash ^= cell_hash(addr, old)

    def _mem_restore(self, addr, had, old):
        """Inverse of one journaled memory mutation (undo.revert)."""
        memory = self.memory
        current = memory.get(addr, _ABSENT)
        if current is not _ABSENT:
            if type(current) is tuple:
                del self.pending_mem[addr]
            elif current != 0:
                self.mem_hash ^= cell_hash(addr, current)
        if had:
            memory[addr] = old
            if type(old) is tuple:
                self.pending_mem[addr] = old[1]
            elif old != 0:
                self.mem_hash ^= cell_hash(addr, old)
        elif current is not _ABSENT:
            del memory[addr]

    def log(self, message, journal=None):
        if self.trace_len < TRACE_CAP:
            if journal is not None:
                journal.append((OP_TRACE,))
            self.trace_tail = (self.trace_tail, message)
            self.trace_len += 1

    def trace_list(self):
        """Materialize the scheduler/commit trace, oldest first."""
        messages = []
        node = self.trace_tail
        while node is not None:
            node, message = node
            messages.append(message)
        messages.reverse()
        return messages

    def canonical(self):
        """Hashable canonical form (steps and token ids normalized)."""
        token_map = {}

        def canon_value(value):
            if is_pending(value):
                token = value[1]
                if token not in token_map:
                    token_map[token] = len(token_map)
                return ("p", token_map[token])
            return value

        thread_parts = []
        for tid in sorted(self.threads):
            thread = self.threads[tid]
            frames = []
            for frame in thread.frames:
                # Token ids are assigned in sorted-key order: env dict
                # insertion order is execution-path-dependent (the env
                # GC deletes and the undo log reinserts), so numbering
                # must follow content, not history.
                env = tuple(
                    (key, canon_value(frame.env[key]))
                    for key in sorted(frame.env)
                )
                allocas = tuple(sorted(frame.alloca_addrs.items()))
                frames.append(
                    (frame.function.name, frame.block.label, frame.index,
                     env, allocas)
                )
            window = tuple(
                entry.canonical(
                    _fill_tokens(entry, token_map)
                )
                for entry in thread.window
            )
            thread_parts.append(
                (tid, thread.status, tuple(frames), window, thread.stack_top)
            )
        memory = tuple(
            sorted(
                (addr, canon_value(value))
                for addr, value in self.memory.items()
                if value != 0
            )
        )
        reservations = tuple(sorted(self.reservations.items()))
        return (memory, tuple(thread_parts), reservations, self.next_tid,
                self.heap_top)


def _fill_tokens(entry, token_map):
    for token in (entry.token,
                  entry.value[1] if is_pending(entry.value) else None):
        if token is not None and token not in token_map:
            token_map[token] = len(token_map)
    return token_map


class ExecutionError(Exception):
    """Raised internally to flag a violation during a burst."""

    def __init__(self, message):
        self.message = message
        super().__init__(message)


class Machine:
    """Executes bursts and actions over states for one (module, model).

    ``journal`` is ``None`` until a caller that reverts (the explorer)
    installs a list and every mutating site below appends undo records
    to it (see :mod:`repro.mc.undo` for the record catalogue).
    """

    def __init__(self, context, max_steps=2500):
        self.ctx = context
        self.max_steps = max_steps
        self.journal = None
        # Journal epoch: bumped once per applied action.  Between two
        # epoch bumps the explorer never takes a revert mark, so one
        # OP_STEPS record per (thread, epoch) and one OP_FRAME snapshot
        # per (frame, epoch) restore every write of the action — the
        # journal grows per action, not per executed instruction.
        self._epoch = 0

    # -- construction -----------------------------------------------------

    def initial_state(self):
        state = State()
        for addr, value in self.ctx.global_layout:
            state.mem_write(addr, value)
        entry_fn = self.ctx.module.functions.get("main")
        if entry_fn is None:
            raise ValueError("no entry function @main")
        frame = Frame(entry_fn)
        thread = Thread(0, frame)
        state.threads[0] = thread
        state.next_tid = 1
        self.run_quiescence(state)
        return state

    # -- journaled primitive writes ---------------------------------------

    def _set_status(self, state, thread, status):
        if thread.status is status:
            return
        journal = self.journal
        touch(journal, thread)
        if journal is not None:
            journal.append((OP_STATUS, thread, thread.status))
        thread.status = status
        if status is FINISHED or status is LIMIT:
            # The only status transitions another thread's blocked
            # probe can observe (joins wait on these two).
            state.probe_epoch += 1

    def _set_violation(self, state, message):
        journal = self.journal
        if journal is not None:
            journal.append((OP_SSET, "violation", state.violation))
        state.violation = message

    # -- scheduling --------------------------------------------------------

    def run_quiescence(self, state):
        """Run every thread's invisible burst until nothing progresses.

        Blocked and ready threads are re-probed *without* flipping their
        status to RUN first: a probe that makes no progress re-derives
        the same status from the dispatch result, so the transient flip
        would only invalidate digest caches and grow the journal.  The
        probe itself is status-blind (``_run`` only refuses
        finished/limited threads), which is what lets a previously
        blocked thread advance once its window or a join target changed.

        Within one call, a failed probe can only turn into progress
        after *someone else's* progress, so each thread records the
        quiescence "version" it last probed at and is skipped while the
        version is unchanged: the usual no-progress confirmation round
        costs one probe instead of one per thread.

        Across calls, ``Thread._bepoch`` memoizes a failed probe against
        ``State.probe_epoch`` and is dropped only by an event that can
        change that probe's result.  Every ``_BLOCKED`` a step returns
        depends on the thread's own pending operands, its own window
        (the limit, a fence, a drain) or a join target's status; lazy
        wmm loads read memory only when they commit, private accesses
        never block, and immediate sc/tso accesses return ``_VISIBLE``
        whatever memory holds.  So two rules keep the memo exact:

        - Own content: every mutation of it clears the memo
          (``undo.touch``).  A ``store`` or ``rmw_store`` commit
          resolves no token, so it can only lift a block by freeing a
          slot of a full window or by emptying the window; otherwise
          ``_commit`` re-memoizes the thread as stuck.  Load and
          rmw-exec commits resolve tokens and keep the re-probe.
        - Others: ``State.probe_epoch`` counts a thread entering
          FINISHED or LIMIT and the revert of a status change — what
          joins wait on.  Memory writes and their reverts do not bump
          it: no probe reads memory before it blocks.

        While the memo matches the epoch the thread is provably still
        stuck and is not re-probed: a pure load-commit macro run, or a
        store commit, re-probes nobody else.
        """
        version = 0
        probed = {}
        progressed = True
        while progressed and state.violation is None:
            progressed = False
            for thread in list(state.threads.values()):
                status = thread.status
                if status is RUN or status is BLOCKED or status is READY:
                    if thread._bepoch == state.probe_epoch:
                        continue  # provably still stuck (see docstring)
                    tid = thread.tid
                    if probed.get(tid) == version:
                        continue  # nothing changed since its last probe
                    if self._burst(state, thread):
                        progressed = True
                        version += 1
                    probed[tid] = version
            # Join conditions may have been satisfied by finishing threads.

    def enabled_actions(self, state):
        """All scheduler choices at a quiescent state, as ``(action,
        key)`` pairs.

        ``key`` is the action's stable identity, carrying the data the
        explorers' independence test needs.  A visible step is
        ``("v", tid)``.  A commit is ``("c", tid, kind, addr)``: the
        model's one walk over the window (``MemoryModel.committable``)
        lets at most one entry per address commit — wmm refuses any
        entry with an earlier same-address entry, sc and tso commit only
        the head — so the key names one entry, and *not* by its window
        index, which shifts when the same thread commits an earlier
        (independent) entry.  Every committable entry's operands are
        resolved (a store holding a pending value may not commit, and
        RMW steps block until their operands resolve), so no key needs
        to say whether the entry can still change.  Keys are
        canonical-stable: two concrete states with equal
        :meth:`State.canonical` forms assign every enabled action the
        same key, so sleep sets stored with visited states stay
        meaningful on revisits.  A key can only go stale through a
        *dependent* action (same thread + same address, or a visible
        step of the thread), which removes it from every sleep set
        first.
        """
        pairs = []
        committable = self.ctx.model.committable
        reservations = state.reservations
        for tid, thread in state.threads.items():
            if thread.status == READY:
                pairs.append((("visible", tid), ("v", tid)))
            window = thread.window
            if not window:
                continue
            for index in committable(window):
                entry = window[index]
                kind = entry.kind
                addr = entry.addr
                if kind != "load":
                    reserved_by = reservations.get(addr)
                    if reserved_by is not None and reserved_by != tid:
                        continue
                pairs.append((("commit", tid, index), ("c", tid, kind, addr)))
        return pairs

    def apply_action(self, state, action):
        self._epoch += 1  # new revert-mark context (see __init__)
        kind = action[0]
        if kind == "visible":
            thread = state.threads[action[1]]
            try:
                self._run(state, thread, True)
            except ExecutionError as error:
                self._set_violation(state, error.message)
                return
        elif kind == "commit":
            self._commit(state, action[1], action[2])
        self.run_quiescence(state)

    # -- partial-order reduction support -----------------------------------

    def visible_footprint(self, state, tid):
        """Memory footprint of a READY thread's pending visible step.

        A thread is READY exactly when its next instruction is an
        *immediate* memory operation (every ``_VISIBLE`` return sits in
        a load, store or RMW step, after the address resolved — a
        pending address blocks instead), so the footprint can be peeked
        without executing anything.  Returns ``(kind,
        addr)`` with ``kind`` in ``{"load", "store", "rmw"}`` and a
        concrete address, or ``None`` when the instruction cannot be
        classified — callers must then treat the step as conflicting
        with everything.  The invisible burst that follows the
        immediate op never touches shared memory (that is what makes
        it invisible), so the footprint covers the whole action except
        the global allocation counters, which the DPOR driver tracks
        separately.
        """
        thread = state.threads.get(tid)
        if thread is None or not thread.frames:
            return None
        frame = thread.frames[-1]
        try:
            instr = frame.block.instructions[frame.index]
            if isinstance(instr, ins.Load):
                kind = "load"
            elif isinstance(instr, ins.Store):
                kind = "store"
            elif isinstance(instr, (ins.AtomicRMW, ins.Cmpxchg)):
                kind = "rmw"
            else:
                return None
            addr = self._value(frame, instr.pointer)
        except (IndexError, KeyError):
            return None
        if type(addr) is not int:
            return None
        return (kind, addr)

    def action_invisible(self, state, action):
        """Is ``action`` a commit no *other* thread could ever observe?

        A *load* commit only reads memory, so it is invisible when no
        other live thread can ever **write** the address; a *store* (or
        RMW) commit is invisible only when no other thread can access
        the address at all.  "Can": the address is not pending in their
        windows (conflictingly), and the static access sets of their
        remaining code (including anything they may still call or
        spawn) cannot name it.  Such a commit commutes with every
        action of every other thread, so the explorer may take it as an
        uninterruptible singleton step.
        """
        if action[0] != "commit":
            return False
        tid, index = action[1], action[2]
        thread = state.threads[tid]
        entry = thread.window[index]
        addr = entry.addr
        # A load commit is a pure read; only writers can conflict.  The
        # "rmw" exec half also reads only, but it acquires a
        # reservation, so treat anything non-load as a write.
        read_only = entry.kind == "load"
        region = self.ctx.global_region(addr)
        for other_tid, other in state.threads.items():
            if other_tid == tid or other.status == FINISHED:
                continue
            for pending in other.window:
                if pending.addr == addr and (
                        not read_only or pending.kind != "load"):
                    return False
            if other.status == LIMIT:
                continue  # bounded away: its code never runs again
            for frame in other.frames:
                reads, runknown, writes, wunknown = (
                    self.ctx.func_access[frame.function.name])
                names, unknown = (
                    (writes, wunknown) if read_only else (reads, runknown))
                if unknown:
                    return False
                if region is not None and region in names:
                    return False
        # Threads the committing thread itself may still spawn run
        # concurrently with the rest of its window: their accesses
        # count as "other thread" accesses too.
        if thread.status not in (FINISHED, FINISHING, LIMIT):
            for frame in thread.frames:
                reads, runknown, writes, wunknown = (
                    self.ctx.spawn_access[frame.function.name])
                names, unknown = (
                    (writes, wunknown) if read_only else (reads, runknown))
                if unknown:
                    return False
                if region is not None and region in names:
                    return False
        return True

    # -- commits -------------------------------------------------------------

    def _commit(self, state, tid, index):
        journal = self.journal
        thread = state.threads[tid]
        touch(journal, thread)
        window = thread.window
        entry = window[index]
        kind = entry.kind
        if kind == "load":
            value = state.memory.get(entry.addr, 0)
            if journal is not None:
                journal.append((OP_WDEL, thread, index, entry))
            del window[index]
            self._resolve(state, thread, entry.token, value)
            if state.trace_len < TRACE_CAP:
                state.log(f"T{tid} commit load @{entry.addr} -> {value}",
                          journal)
        elif kind == "rmw":
            self._exec_rmw(state, thread, entry, index)
        else:  # store / rmw_store
            addr = entry.addr
            state.mem_write(addr, entry.value, journal)
            if kind == "rmw_store":
                if journal is not None:
                    journal.append((OP_RES, addr, addr in state.reservations,
                                    state.reservations.get(addr)))
                state.reservations.pop(addr, None)
            full = len(window) == self.ctx.model.window_limit
            if journal is not None:
                journal.append((OP_WDEL, thread, index, entry))
            del window[index]
            if state.trace_len < TRACE_CAP:
                label = "store" if kind == "store" else "rmw-store"
                state.log(f"T{tid} commit {label} @{addr} = {entry.value}",
                          journal)
            if window and not full:
                # Resolved no token, freed no slot of a full window, left
                # the window non-empty: the thread is as stuck as before
                # (run_quiescence).
                thread._bepoch = state.probe_epoch
                return
        if thread.status == FINISHING and not window:
            self._set_status(state, thread, FINISHED)

    def _exec_rmw(self, state, thread, entry, index):
        journal = self.journal
        addr = entry.addr
        old = state.memory.get(addr, 0)
        token = entry.token
        if entry.rmw_expected is not None:
            # Compare-exchange.
            if old == entry.rmw_expected:
                if journal is not None:
                    journal.append((OP_WSET, thread, index, entry))
                thread.window[index] = WindowEntry(
                    "rmw_store", addr, entry.order, entry.instr,
                    value=entry.rmw_desired,
                )
                if journal is not None:
                    journal.append((OP_RES, addr, addr in state.reservations,
                                    state.reservations.get(addr)))
                state.reservations[addr] = thread.tid
            else:
                if journal is not None:
                    journal.append((OP_WDEL, thread, index, entry))
                del thread.window[index]  # failed CAS: no store half
        else:
            if journal is not None:
                journal.append((OP_WSET, thread, index, entry))
            thread.window[index] = WindowEntry(
                "rmw_store", addr, entry.order, entry.instr,
                value=_rmw_compute(entry.rmw_op, old, entry.rmw_operand),
            )
            if journal is not None:
                journal.append((OP_RES, addr, addr in state.reservations,
                                state.reservations.get(addr)))
            state.reservations[addr] = thread.tid
        self._resolve(state, thread, token, old)
        if state.trace_len < TRACE_CAP:
            state.log(f"T{thread.tid} exec rmw @{addr} old={old}", journal)

    def _resolve(self, state, thread, token, value):
        """Bind a pending load's value everywhere it may have flowed."""
        journal = self.journal
        touch(journal, thread)
        pending = (_PENDING, token)
        for index, frame in enumerate(thread.frames):
            if any(held == pending for held in frame.env.values()):
                frame = thread.mutable_frame_at(index, journal)
                if journal is not None and frame._fepoch != self._epoch:
                    snapshot_frame(journal, thread, frame, self._epoch)
                env = frame.env
                for key, held in env.items():
                    if held == pending:
                        env[key] = value
        window = thread.window
        for index, entry in enumerate(window):
            if entry.value == pending:
                if journal is not None:
                    journal.append((OP_WSET, thread, index, entry))
                window[index] = entry.resolved_with(value)
        if state.pending_mem:
            addrs = [addr for addr, held in state.pending_mem.items()
                     if held == token]
            for addr in addrs:
                state.mem_write(addr, value, journal)

    # -- bursts ------------------------------------------------------------------

    def _burst(self, state, thread):
        """Run invisible instructions; returns True if any progress."""
        try:
            return self._run(state, thread, False)
        except ExecutionError as error:
            self._set_violation(state, error.message)
            return True

    # -- the decoded kernel ------------------------------------------------------

    def _run(self, state, thread, visible_ok):
        """Run ``thread`` until it blocks, finishes, or needs a visible
        slot; returns True if any instruction executed.

        Every basic block runs as its decoded code (:meth:`_decode`): one
        ``(step, key, dies, keep)`` entry per instruction, where ``step``
        is the instruction specialized into a closure, ``key`` the env
        key of its result, ``dies`` the env keys whose last use it is,
        and ``keep`` whether anything ever reads the result.  The loop
        runs ``code[frame.index]`` and looks a block's code up again only
        after a step moved the PC (``_CONTROL``); the loop-invariant
        lookups (journal, epoch, code table, frame) are hoisted out,
        because per-instruction overhead is what bounds the explorer's
        states/s.  Only the *first* iteration honours ``visible_ok``: a
        scheduled visible step immediately continues into its invisible
        suffix (quiescence is confluent — invisible steps never write
        shared memory, and the only cross-thread influence, threads
        *finishing*, is monotone — so folding the suffix into the same
        loop cannot change the fixpoint).
        """
        status = thread.status
        if status is FINISHED or status is FINISHING or status is LIMIT:
            return False
        journal = self.journal
        epoch = self._epoch
        max_steps = self.max_steps
        codes = self.ctx.codes
        frames = thread.frames
        owned = thread.owned
        top = len(frames) - 1
        if owned[top]:
            frame = frames[top]  # explorer states are never cloned
        else:
            frame = thread.mutable_frame_at(top, journal)
        code = codes.get(frame.block) or self._decode(frame.block)
        # Journal epoch: one OP_FRAME snapshot per (frame, epoch)
        # restores the frame's every write of the action (see __init__).
        snapped = journal is None or frame._fepoch == epoch
        progressed = False
        steps = thread.steps
        try:
            while True:
                if steps >= max_steps:
                    self._set_status(state, thread, LIMIT)
                    break
                step, key, dies, keep = code[frame.index]
                result = step(self, state, thread, frame, visible_ok)
                if result is _BLOCKED:
                    # A failed probe mutated nothing: no touch, no journal.
                    if thread.status is not BLOCKED:
                        self._set_status(state, thread, BLOCKED)
                    thread._bepoch = state.probe_epoch  # memoize the failure
                    break
                if result is _VISIBLE:
                    self._set_status(state, thread, READY)
                    thread._bepoch = state.probe_epoch  # idem: probe-stable
                    break
                if not progressed:
                    # The run's first executed instruction: one OP_STEPS
                    # record per epoch restores the counter, and one
                    # touch covers every later write of this run (no
                    # digest is taken before it returns).
                    progressed = True
                    visible_ok = False  # only the scheduled step is visible
                    if journal is not None and thread._sepoch != epoch:
                        thread._sepoch = epoch
                        journal.append((OP_STEPS, thread, steps))
                    touch(journal, thread)
                steps += 1
                # The frame's first write of the action: the env GC, the
                # result or the index bump (a branch step snapshots its
                # frame itself; a ret writes the caller, never ``frame``).
                if not snapped and (dies or result is not _CONTROL):
                    snapped = True
                    if frame._fepoch != epoch:
                        snapshot_frame(journal, thread, frame, epoch)
                # Env GC: the operands whose last use this instruction
                # was are unreadable from here on — drop them (Ret has
                # an empty list; its popped frame may be shared and
                # must not be written).
                if dies:
                    env = frame.env
                    for dkey in dies:
                        env.pop(dkey, None)
                    frame._skeys = None
                if result is _CONTROL:
                    # Branch/call/ret moved the PC: refetch the frame.
                    if not frames:
                        break  # root-frame return already set the status
                    top = len(frames) - 1
                    if owned[top]:
                        frame = frames[top]
                    else:
                        frame = thread.mutable_frame_at(top, journal)
                    code = codes.get(frame.block) or self._decode(frame.block)
                    snapped = journal is None or frame._fepoch == epoch
                    continue
                if keep:  # never-read results are skipped entirely
                    env = frame.env
                    if key not in env:
                        frame._skeys = None
                    env[key] = result
                frame.index += 1
        except KeyError as error:
            # An operand no step can evaluate reads an env key that is
            # never bound (see _operand); any other miss is a liveness or
            # undo bug and propagates as the internal error it is.
            if error.args and type(error.args[0]) is _Unevaluable:
                raise ExecutionError(
                    f"cannot evaluate operand {error.args[0].operand!r}"
                ) from None
            raise
        finally:
            # Also on ExecutionError: the journal's OP_STEPS snapshot
            # reverts from whatever value is current, so the counter
            # must reflect the executed prefix.
            thread.steps = steps
        return progressed

    def _decode(self, block):
        """Decode ``block`` into its code (see :meth:`_run`).

        Decoding only reads the IR; every error an instruction can raise
        is raised by its step, when it executes, so an instruction the
        checker cannot run still checks ``ok`` in a block no execution
        reaches.  The code lives in the context's decode table
        (``Context.codes``) as long as the context does, so every check
        run on one context decodes a block once.  It captures only what
        the context and the block's instructions fix (orders, indices,
        operands); the machine reaches a step as its argument.  A write
        to the block between two checks, such as the weakener's order
        rewrites, fence deletions and their undos, must drop the
        block's code (``Context.invalidate``) before the next check.
        """
        ctx = self.ctx
        dies = ctx.dies
        unused = ctx.unused
        code = []
        for instr in block.instructions:
            decode = _DECODERS.get(instr.__class__)
            if decode is None:  # subclass-tolerant, in table order
                decode = next(
                    (decode for cls, decode in _DECODERS.items()
                     if isinstance(instr, cls)),
                    _decode_unsupported,
                )
            key = id(instr)
            code.append(
                (decode(self, instr), key, dies.get(key), key not in unused))
        ctx.codes[block] = code
        return code

    def _value(self, frame, operand):
        """One operand's current value (``KeyError`` when it has none)."""
        key, value = _operand(self, operand)
        return value if key is None else frame.env[key]


# Sentinels returned by the decoded steps.
_BLOCKED = object()
_VISIBLE = object()
_CONTROL = object()


class _Unevaluable:
    """The env key of an operand the checker cannot evaluate.

    It is never bound, so the step that reads it raises ``KeyError``
    with it when the instruction executes, which ``Machine._run``
    reports as "cannot evaluate operand".
    """

    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


def _operand(machine, operand):
    """``(key, value)`` of one operand, resolved once at decode time.

    Frame-free operands (constants, global addresses) come back as
    ``(None, value)``; registers as ``(env key, None)``, read in a step
    as ``value if key is None else frame.env[key]``.
    """
    if isinstance(operand, Constant):
        return None, operand.value
    if isinstance(operand, GlobalVar):
        return None, machine.ctx.global_addr[operand.name]
    if isinstance(operand, (Argument, ins.Instruction)):
        return id(operand), None
    return _Unevaluable(operand), None


# -- decoders: one per instruction class, each returning the step -----------
#
# A step is ``step(machine, state, thread, frame, visible_ok)`` and
# returns the instruction's result, or _BLOCKED, _VISIBLE or _CONTROL.
# Decoders resolve everything that is fixed for the check — operands,
# operator functions, the private-access flag, the model's buffering
# and drain answers for the instruction's order, the window limit — so
# the step does only the work that depends on the state.


def _constant_step(value):
    def step(machine, state, thread, frame, visible_ok):
        return value
    return step


def _step_zero(machine, state, thread, frame, visible_ok):
    return 0


def _step_fence(machine, state, thread, frame, visible_ok):
    return _BLOCKED if thread.window else 0


def _decode_binop(machine, instr):
    lkey, lvalue = _operand(machine, instr.left)
    rkey, rvalue = _operand(machine, instr.right)
    function = BINOP_FUNCTIONS.get(instr.op)
    if function is None:
        op = instr.op

        def function(left, right):
            raise ExecutionError(f"unknown binop {op!r}")

    def step(machine, state, thread, frame, visible_ok):
        env = frame.env
        left = lvalue if lkey is None else env[lkey]
        right = rvalue if rkey is None else env[rkey]
        if type(left) is tuple or type(right) is tuple:
            return _BLOCKED
        try:
            return function(left, right)
        except ZeroDivisionError as error:
            raise ExecutionError(str(error)) from None
    return step


def _decode_load(machine, instr):
    pkey, pvalue = _operand(machine, instr.pointer)
    model = machine.ctx.model
    private = id(instr) in machine.ctx.private
    buffered = model.buffers_loads()
    forwarding = model.buffers_stores()
    limit = model.window_limit
    order = instr.order

    def step(machine, state, thread, frame, visible_ok):
        addr = pvalue if pkey is None else frame.env[pkey]
        if type(addr) is tuple:
            return _BLOCKED
        if private:
            return state.memory.get(addr, 0)
        if buffered:
            window = thread.window
            if len(window) >= limit:
                return _BLOCKED
            journal = machine.journal
            touch(journal, thread)
            if journal is not None:
                journal.append((OP_SSET, "token_counter",
                                state.token_counter))
                journal.append((OP_WADD, thread))
            state.token_counter += 1
            token = state.token_counter
            window.append(
                WindowEntry("load", addr, order, instr, token=token))
            return (_PENDING, token)
        # Immediate load (SC / TSO): a visible scheduling point.
        if not visible_ok:
            return _VISIBLE
        if forwarding:
            for entry in reversed(thread.window):  # TSO store forwarding
                if entry.addr == addr and entry.kind in ("store", "rmw_store"):
                    return entry.value
        return state.memory.get(addr, 0)
    return step


def _decode_store(machine, instr):
    pkey, pvalue = _operand(machine, instr.pointer)
    vkey, vvalue = _operand(machine, instr.value)
    model = machine.ctx.model
    private = id(instr) in machine.ctx.private
    # Without buffered loads no pending value can be stored.
    tokens_block = not model.buffers_loads()
    drain = model.store_requires_drain(instr.order)
    buffered = model.buffers_stores()
    limit = model.window_limit
    order = instr.order

    def step(machine, state, thread, frame, visible_ok):
        env = frame.env
        addr = pvalue if pkey is None else env[pkey]
        value = vvalue if vkey is None else env[vkey]
        if type(addr) is tuple:
            return _BLOCKED
        if private:
            state.mem_write(addr, value, machine.journal)  # tokens may flow
            return 0
        if tokens_block and type(value) is tuple:
            return _BLOCKED
        if drain:
            if thread.window:
                return _BLOCKED
            if not visible_ok:
                return _VISIBLE
            if type(value) is tuple:
                return _BLOCKED
        elif buffered:
            window = thread.window
            if len(window) >= limit:
                return _BLOCKED
            journal = machine.journal
            touch(journal, thread)
            if journal is not None:
                journal.append((OP_WADD, thread))
            window.append(
                WindowEntry("store", addr, order, instr, value=value))
            return 0
        elif not visible_ok:
            return _VISIBLE
        state.mem_write(addr, value, machine.journal)
        return 0
    return step


def _decode_rmw(machine, instr):
    pkey, pvalue = _operand(machine, instr.pointer)
    cas = isinstance(instr, ins.Cmpxchg)
    if cas:
        ekey, evalue = _operand(machine, instr.expected)
        dkey, dvalue = _operand(machine, instr.desired)
        op = None
    else:
        okey, ovalue = _operand(machine, instr.value)
        op = instr.op
    private = id(instr) in machine.ctx.private
    model = machine.ctx.model
    drain = model.rmw_requires_drain()
    limit = model.window_limit
    order = instr.order

    def step(machine, state, thread, frame, visible_ok):
        env = frame.env
        addr = pvalue if pkey is None else env[pkey]
        if type(addr) is tuple:
            return _BLOCKED
        if cas:
            expected = evalue if ekey is None else env[ekey]
            desired = dvalue if dkey is None else env[dkey]
            if type(expected) is tuple or type(desired) is tuple:
                return _BLOCKED
            operand = None
        else:
            operand = ovalue if okey is None else env[okey]
            if type(operand) is tuple:
                return _BLOCKED
            expected = desired = None
        if private:
            old = state.memory.get(addr, 0)
            new = (
                desired
                if (op is None and old == expected)
                else old if op is None else _rmw_compute(op, old, operand)
            )
            state.mem_write(addr, new, machine.journal)
            return old
        if drain:
            if thread.window:
                return _BLOCKED
            if not visible_ok:
                return _VISIBLE
            old = state.memory.get(addr, 0)
            if op is None:
                if old == expected:
                    state.mem_write(addr, desired, machine.journal)
            else:
                state.mem_write(addr, _rmw_compute(op, old, operand),
                                machine.journal)
            return old
        # WMM: enter the window; execution happens at commit time.
        window = thread.window
        if len(window) >= limit:
            return _BLOCKED
        journal = machine.journal
        touch(journal, thread)
        if journal is not None:
            journal.append((OP_SSET, "token_counter", state.token_counter))
            journal.append((OP_WADD, thread))
        state.token_counter += 1
        token = state.token_counter
        window.append(
            WindowEntry(
                "rmw", addr, order, instr, token=token,
                rmw_op=op, rmw_operand=operand,
                rmw_expected=expected, rmw_desired=desired,
            )
        )
        return (_PENDING, token)
    return step


def _decode_gep(machine, instr):
    bkey, bvalue = _operand(machine, instr.base)
    # Field steps add constant offsets; only index steps read operands.
    offset = 0
    indices = []
    for path_step in instr.path:
        if path_step[0] == "field":
            struct_type, field_index = path_step[1], path_step[2]
            offset += sum(
                ftype.size for _, ftype in struct_type.fields[:field_index]
            )
        else:
            indices.append(
                (path_step[1].size,) + _operand(machine, path_step[2]))
    if not indices:
        if bkey is None:
            return _constant_step(bvalue + offset)

        def step(machine, state, thread, frame, visible_ok):
            addr = frame.env[bkey]
            if type(addr) is tuple:
                return _BLOCKED
            return addr + offset
        return step

    def step(machine, state, thread, frame, visible_ok):
        env = frame.env
        addr = bvalue if bkey is None else env[bkey]
        if type(addr) is tuple:
            return _BLOCKED
        addr += offset
        for size, key, value in indices:
            if key is not None:
                value = env[key]
                if type(value) is tuple:
                    return _BLOCKED
            addr += size * value
        return addr
    return step


def _decode_alloca(machine, instr):
    key = id(instr)
    size = max(instr.allocated_type.size, 1)

    def step(machine, state, thread, frame, visible_ok):
        addr = frame.alloca_addrs.get(key)
        if addr is None:
            journal = machine.journal
            touch(journal, thread)
            addr = thread.stack_top
            if journal is not None:
                journal.append((OP_STACK, thread, thread.stack_top))
                journal.append((OP_ALLOC, thread, frame, key))
            thread.stack_top = addr + size
            frame.alloca_addrs[key] = addr
            frame._salloc = None
            for offset in range(size):
                state.mem_write(addr + offset, 0, journal)
        return addr
    return step


def _decode_cast(machine, instr):
    key, value = _operand(machine, instr.value)
    if key is None:
        return _constant_step(value)

    def step(machine, state, thread, frame, visible_ok):
        return frame.env[key]  # pending values pass through unforced
    return step


def _decode_br(machine, instr):
    return _branch_step(None, 1, instr.target, instr.target)


def _decode_condbr(machine, instr):
    ckey, cvalue = _operand(machine, instr.cond)
    return _branch_step(ckey, cvalue, instr.true_block, instr.false_block)


def _branch_step(ckey, cvalue, true_block, false_block):
    def step(machine, state, thread, frame, visible_ok):
        cond = cvalue if ckey is None else frame.env[ckey]
        if type(cond) is tuple:
            return _BLOCKED
        journal = machine.journal
        touch(journal, thread)
        if journal is not None and frame._fepoch != machine._epoch:
            snapshot_frame(journal, thread, frame, machine._epoch)
        frame.block = true_block if cond else false_block
        frame.index = 0
        return _CONTROL
    return step


def _decode_ret(machine, instr):
    vkey, vvalue = (_operand(machine, instr.value) if instr.has_value
                    else (None, 0))

    def step(machine, state, thread, frame, visible_ok):
        value = vvalue if vkey is None else frame.env[vkey]
        if type(value) is tuple:
            return _BLOCKED
        journal = machine.journal
        touch(journal, thread)
        # Reclaim the frame's stack slots so re-execution is canonical.
        for addr in range(frame.stack_base, thread.stack_top):
            state.mem_del(addr, journal)
        if journal is not None:
            journal.append((OP_STACK, thread, thread.stack_top))
            journal.append((OP_FPOP, thread, thread.frames[-1],
                            thread.owned[-1]))
        thread.stack_top = frame.stack_base
        thread.pop_frame()
        if not thread.frames:
            machine._set_status(state, thread,
                                FINISHING if thread.window else FINISHED)
            return _CONTROL
        caller = thread.mutable_frame(journal)
        if journal is not None and caller._fepoch != machine._epoch:
            snapshot_frame(journal, thread, caller, machine._epoch)
        call_instr = frame.call_instr
        if call_instr is not None and id(call_instr) not in machine.ctx.unused:
            key = id(call_instr)
            env = caller.env
            if key not in env:
                caller._skeys = None
            env[key] = value
        caller.index += 1
        return _CONTROL
    return step


def _decode_call(machine, instr):
    args = [_operand(machine, operand) for operand in instr.args]
    callee = instr.callee
    params = [id(argument) for argument in callee.arguments]

    def step(machine, state, thread, frame, visible_ok):
        env = frame.env
        values = []
        for key, value in args:
            if key is not None:
                value = env[key]
                if type(value) is tuple:
                    return _BLOCKED
            values.append(value)
        if len(thread.frames) > 64:
            raise ExecutionError(
                f"call-stack overflow in @{frame.function.name}"
            )
        callee_frame = Frame(callee, call_instr=instr)
        # Born in this action: OP_FPUSH undoes it wholesale.
        callee_frame._fepoch = machine._epoch
        callee_frame.stack_base = thread.stack_top
        callee_env = callee_frame.env
        for param, value in zip(params, values):
            callee_env[param] = value
        journal = machine.journal
        touch(journal, thread)
        if journal is not None:
            journal.append((OP_FPUSH, thread))
        thread.push_frame(callee_frame)
        return _CONTROL
    return step


def _decode_thread_create(machine, instr):
    has_arg = instr.arg is not None
    akey, avalue = _operand(machine, instr.arg) if has_arg else (None, None)
    callee = instr.callee
    param = id(callee.arguments[0]) if callee.arguments else None

    def step(machine, state, thread, frame, visible_ok):
        arg = None
        if has_arg:
            arg = avalue if akey is None else frame.env[akey]
            if type(arg) is tuple:
                return _BLOCKED
        journal = machine.journal
        tid = state.next_tid
        if journal is not None:
            journal.append((OP_SSET, "next_tid", tid))
            journal.append((OP_TNEW, tid))
        state.next_tid = tid + 1
        new_frame = Frame(callee)
        new_frame._fepoch = machine._epoch  # OP_TNEW undoes it wholesale
        new_thread = Thread(tid, new_frame)
        if param is not None:
            new_frame.env[param] = 0 if arg is None else arg
        state.threads[tid] = new_thread
        if state.trace_len < TRACE_CAP:
            state.log(f"T{thread.tid} spawns T{tid} @{callee.name}",
                      journal)
        return tid
    return step


def _decode_thread_join(machine, instr):
    key, value = _operand(machine, instr.tid)

    def step(machine, state, thread, frame, visible_ok):
        tid = value if key is None else frame.env[key]
        if type(tid) is tuple:
            return _BLOCKED
        target = state.threads.get(tid)
        if target is None:
            raise ExecutionError(f"join of unknown thread {tid}")
        if target.status == FINISHED:
            return 0
        if target.status == LIMIT:
            return 0  # bounded-away thread: treat as joined (truncation)
        return _BLOCKED
    return step


def _decode_malloc(machine, instr):
    key, value = _operand(machine, instr.size)

    def step(machine, state, thread, frame, visible_ok):
        size = value if key is None else frame.env[key]
        if type(size) is tuple:
            return _BLOCKED
        journal = machine.journal
        addr = state.heap_top
        if journal is not None:
            journal.append((OP_SSET, "heap_top", addr))
        span = max(int(size), 1)
        state.heap_top = addr + span
        memory = state.memory
        for offset in range(span):
            if addr + offset not in memory:
                state.mem_write(addr + offset, 0, journal)
        return addr
    return step


def _decode_free(machine, instr):
    key, value = _operand(machine, instr.pointer)

    def step(machine, state, thread, frame, visible_ok):
        pointer = value if key is None else frame.env[key]
        return _BLOCKED if type(pointer) is tuple else 0
    return step


def _decode_assert(machine, instr):
    key, value = _operand(machine, instr.cond)

    def step(machine, state, thread, frame, visible_ok):
        cond = value if key is None else frame.env[key]
        if type(cond) is tuple:
            return _BLOCKED
        if not cond:
            raise ExecutionError(
                f"assertion failed in @{frame.function.name}: "
                f"{instr.message or instr!r}"
            )
        return 0
    return step


def _decode_print(machine, instr):
    key, value = _operand(machine, instr.value)

    def step(machine, state, thread, frame, visible_ok):
        printed = value if key is None else frame.env[key]
        if type(printed) is tuple:
            return _BLOCKED
        journal = machine.journal
        if journal is not None:
            journal.append((OP_OUT,))
        state.output.append(printed)
        return 0
    return step


def _decode_unsupported(machine, instr):
    def step(machine, state, thread, frame, visible_ok):
        raise ExecutionError(f"model checker cannot execute {instr!r}")
    return step


#: Instruction class -> decoder.  ``Machine._decode`` looks the exact
#: class up and falls back to the first ``isinstance`` match in this
#: order, so subclasses decode like their base class.
_DECODERS = {
    ins.BinOp: _decode_binop,
    ins.Load: _decode_load,
    ins.Store: _decode_store,
    ins.CondBr: _decode_condbr,
    ins.Br: _decode_br,
    ins.Gep: _decode_gep,
    ins.Alloca: _decode_alloca,
    ins.Cast: _decode_cast,
    ins.Cmpxchg: _decode_rmw,
    ins.AtomicRMW: _decode_rmw,
    ins.Fence: lambda machine, instr: _step_fence,
    ins.Ret: _decode_ret,
    ins.Call: _decode_call,
    ins.ThreadCreate: _decode_thread_create,
    ins.ThreadJoin: _decode_thread_join,
    ins.Malloc: _decode_malloc,
    ins.Free: _decode_free,
    ins.Sleep: lambda machine, instr: _step_zero,
    ins.CompilerBarrier: lambda machine, instr: _step_zero,
    ins.AssertInst: _decode_assert,
    ins.PrintInst: _decode_print,
}


def _rmw_compute(op, old, operand):
    function = RMW_FUNCTIONS.get(op)
    if function is None:
        raise ExecutionError(f"unknown rmw op {op!r}")
    return function(old, operand)
