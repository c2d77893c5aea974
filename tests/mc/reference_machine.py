"""Slower originals of three model-checker rules, kept as a test oracle.

``ReferenceMachine`` is :class:`repro.mc.machine.Machine` with three
rules of the production machine replaced by their slower originals:

- **Interpretation.**  ``_run`` fetches
  ``frame.block.instructions[frame.index]`` and dispatches it through
  an exact-class handler table (an ``isinstance`` scan for
  subclasses), and every handler evaluates its operands through
  ``_value``, where the production machine runs decoded step closures.
  It journals through the same ``OP_FRAME`` snapshots.
- **Commit rule and keys.**  ``enabled_actions`` asks the per-index
  commit rule (:func:`may_commit`) about every window entry, where the
  production machine walks each window once
  (``MemoryModel.committable``), and ranks each commit by re-scanning
  the window before it.  ``_action_key`` asserts that every enabled
  commit has rank 0 and no pending operand, which is why the production
  keys can leave both out.
- **Wake-ups.**  ``run_quiescence`` is a memo-free fixpoint: each round
  probes every RUN, BLOCKED and READY thread, ignoring
  ``Thread._bepoch``, until a round makes no progress, where the
  production machine skips the threads whose failed probe nothing has
  invalidated since.

Everything else (commits, footprints, the undo journal) is inherited,
so a difference in any exploration result between the two machines
points at the decoded steps, the commit walk and its keys, or the
wake-up rules.
"""

from repro.ir import instructions as ins
from repro.ir.semantics import BINOP_FUNCTIONS
from repro.ir.values import Argument, Constant, GlobalVar
from repro.mc.machine import (
    _ABSENT,
    _BLOCKED,
    _CONTROL,
    _PENDING,
    _VISIBLE,
    BLOCKED,
    FINISHED,
    FINISHING,
    LIMIT,
    READY,
    RUN,
    TRACE_CAP,
    ExecutionError,
    Frame,
    Machine,
    Thread,
    WindowEntry,
    _main_closure,
    _rmw_compute,
    is_pending,
)
from repro.mc.undo import (
    OP_ALLOC,
    OP_FPOP,
    OP_FPUSH,
    OP_OUT,
    OP_SSET,
    OP_STACK,
    OP_STEPS,
    OP_TNEW,
    OP_WADD,
    snapshot_frame,
    touch,
)


class ReferenceMachine(Machine):
    """``Machine`` with the handler-dispatch interpreter."""

    def __init__(self, context, max_steps=2500):
        super().__init__(context, max_steps=max_steps)
        self._loads_buffered = context.model.buffers_loads()
        self._stores_buffered = context.model.buffers_stores()
        self._dies = context.dies
        self._unused = context.unused
        # Frame-free operand values (constants, global addresses).
        self._opvals = {}
        for function in _main_closure(context.module):
            for instr in function.instructions():
                for operand in instr.operands:
                    if isinstance(operand, Constant):
                        self._opvals[id(operand)] = operand.value
                    elif isinstance(operand, GlobalVar):
                        self._opvals[id(operand)] = (
                            context.global_addr[operand.name])

    def run_quiescence(self, state):
        """Memo-free fixpoint: each round probes every RUN, BLOCKED and
        READY thread until a round makes no progress."""
        progressed = True
        while progressed and state.violation is None:
            progressed = False
            for thread in list(state.threads.values()):
                if thread.status in (RUN, BLOCKED, READY):
                    if self._burst(state, thread):
                        progressed = True

    def enabled_actions(self, state):
        """Scheduler choices paired with their keys, each commit ranked
        by a re-scan of the window entries before it."""
        return [(action, _action_key(state, action))
                for action in self._actions(state)]

    def _actions(self, state):
        actions = []
        model = self.ctx.model
        reservations = state.reservations
        for tid, thread in state.threads.items():
            if thread.status == READY:
                actions.append(("visible", tid))
            window = thread.window
            for index, entry in enumerate(window):
                if not may_commit(model, window, index):
                    continue
                if entry.kind != "load":
                    reserved_by = reservations.get(entry.addr)
                    if reserved_by is not None and reserved_by != tid:
                        continue
                actions.append(("commit", tid, index))
        return actions

    # -- the interpreter -------------------------------------------------------

    def _run(self, state, thread, visible_ok):
        """Run ``thread`` until it blocks, finishes, or needs a visible
        slot; returns True if any instruction executed.

        The whole burst runs in one loop with the loop-invariant lookups
        (journal, epoch, dispatch table, liveness tables, frame) hoisted
        out — per-instruction overhead is what bounds the explorer's
        states/s, so this path avoids one function call and a re-derived
        prologue per instruction.  Only the *first* iteration honours
        ``visible_ok``: a scheduled visible step immediately continues
        into its invisible suffix (quiescence is confluent — invisible
        steps never write shared memory, and the only cross-thread
        influence, threads *finishing*, is monotone — so folding the
        suffix into the same loop cannot change the fixpoint).
        """
        status = thread.status
        if status is FINISHED or status is FINISHING or status is LIMIT:
            return False
        journal = self.journal
        epoch = self._epoch
        max_steps = self.max_steps
        handlers = _HANDLERS
        dies_get = self._dies.get
        unused = self._unused
        frames = thread.frames
        owned = thread.owned
        top = len(frames) - 1
        if owned[top]:
            frame = frames[top]  # explorer states are never cloned
        else:
            frame = thread.mutable_frame_at(top, journal)
        progressed = False
        steps = thread.steps
        try:
            while True:
                if steps >= max_steps:
                    self._set_status(state, thread, LIMIT)
                    break
                instr = frame.block.instructions[frame.index]
                handler = handlers.get(instr.__class__)
                if handler is not None:
                    result = handler(
                        self, state, thread, frame, instr, visible_ok)
                else:
                    result = self._dispatch_generic(
                        state, thread, frame, instr, visible_ok)
                if result is _BLOCKED:
                    # A failed probe mutated nothing: no touch, no journal.
                    self._set_status(state, thread, BLOCKED)
                    thread._bepoch = state.probe_epoch  # memoize the failure
                    break
                if result is _VISIBLE:
                    self._set_status(state, thread, READY)
                    thread._bepoch = state.probe_epoch  # idem: probe-stable
                    break
                visible_ok = False  # only the scheduled step is visible
                progressed = True
                if journal is not None and thread._sepoch != epoch:
                    thread._sepoch = epoch
                    journal.append((OP_STEPS, thread, steps))
                steps += 1
                key = id(instr)
                # Env GC: the operands whose last use this instruction
                # was are unreadable from here on — drop them (Ret has
                # an empty list; its popped frame may be shared and
                # must not be written).
                dies = dies_get(key)
                if dies:
                    touch(journal, thread)
                    if journal is not None and frame._fepoch != epoch:
                        snapshot_frame(journal, thread, frame, epoch)
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
                    continue
                touch(journal, thread)
                if journal is not None and frame._fepoch != epoch:
                    snapshot_frame(journal, thread, frame, epoch)
                env = frame.env
                if key not in unused:  # skip never-read results entirely
                    if key not in env:
                        frame._skeys = None
                    env[key] = result
                frame.index += 1
        finally:
            # Also on ExecutionError: the journal's OP_STEPS snapshot
            # reverts from whatever value is current, so the counter
            # must reflect the executed prefix.
            thread.steps = steps
        return progressed

    def _dispatch_generic(self, state, thread, frame, instr, visible_ok):
        """Subclass-tolerant fallback for exact-class handler misses."""
        for cls, handler in _HANDLERS.items():
            if isinstance(instr, cls):
                return handler(self, state, thread, frame, instr, visible_ok)
        raise ExecutionError(f"model checker cannot execute {instr!r}")

    def _value(self, frame, operand):
        key = id(operand)
        value = self._opvals.get(key, _ABSENT)
        if value is not _ABSENT:
            return value  # constant or global address, precomputed
        try:
            return frame.env[key]
        except KeyError:
            if isinstance(operand, (Argument, ins.Instruction)):
                raise  # a liveness/undo bug, not a user-program error
            raise ExecutionError(f"cannot evaluate operand {operand!r}")

    # -- memory operations ------------------------------------------------------------

    def _do_alloca(self, state, thread, frame, instr):
        addr = frame.alloca_addrs.get(id(instr))
        if addr is None:
            journal = self.journal
            touch(journal, thread)
            addr = thread.stack_top
            size = max(instr.allocated_type.size, 1)
            if journal is not None:
                journal.append((OP_STACK, thread, thread.stack_top))
                journal.append((OP_ALLOC, thread, frame, id(instr)))
            thread.stack_top = addr + size
            frame.alloca_addrs[id(instr)] = addr
            frame._salloc = None
            for offset in range(size):
                state.mem_write(addr + offset, 0, journal)
        return addr

    def _do_load(self, state, thread, frame, instr, visible_ok):
        addr = self._value(frame, instr.pointer)
        if type(addr) is tuple:
            return _BLOCKED
        if id(instr) in self.ctx.private:
            return state.memory.get(addr, 0)
        if self._loads_buffered:
            window = thread.window
            if len(window) >= self.ctx.model.window_limit:
                return _BLOCKED
            journal = self.journal
            touch(journal, thread)
            if journal is not None:
                journal.append((OP_SSET, "token_counter",
                                state.token_counter))
                journal.append((OP_WADD, thread))
            state.token_counter += 1
            token = state.token_counter
            window.append(
                WindowEntry("load", addr, instr.order, instr, token=token)
            )
            return (_PENDING, token)
        # Immediate load (SC / TSO): a visible scheduling point.
        if not visible_ok:
            return _VISIBLE
        if self._stores_buffered:
            for entry in reversed(thread.window):  # TSO store forwarding
                if entry.addr == addr and entry.kind in ("store", "rmw_store"):
                    return entry.value
        return state.memory.get(addr, 0)

    def _do_store(self, state, thread, frame, instr, visible_ok):
        addr = self._value(frame, instr.pointer)
        value = self._value(frame, instr.value)
        if type(addr) is tuple:
            return _BLOCKED
        if id(instr) in self.ctx.private:
            state.mem_write(addr, value, self.journal)  # tokens may flow
            return 0
        model = self.ctx.model
        if type(value) is tuple and not self._loads_buffered:
            return _BLOCKED
        if model.store_requires_drain(instr.order):
            if thread.window:
                return _BLOCKED
            if not visible_ok:
                return _VISIBLE
            if type(value) is tuple:
                return _BLOCKED
            state.mem_write(addr, value, self.journal)
            return 0
        if self._stores_buffered:
            window = thread.window
            if len(window) >= model.window_limit:
                return _BLOCKED
            journal = self.journal
            touch(journal, thread)
            if journal is not None:
                journal.append((OP_WADD, thread))
            window.append(
                WindowEntry("store", addr, instr.order, instr, value=value)
            )
            return 0
        if not visible_ok:
            return _VISIBLE
        state.mem_write(addr, value, self.journal)
        return 0

    def _do_rmw(self, state, thread, frame, instr, visible_ok):
        addr = self._value(frame, instr.pointer)
        if type(addr) is tuple:
            return _BLOCKED
        if isinstance(instr, ins.Cmpxchg):
            expected = self._value(frame, instr.expected)
            desired = self._value(frame, instr.desired)
            if type(expected) is tuple or type(desired) is tuple:
                return _BLOCKED
            op, operand = None, None
        else:
            operand = self._value(frame, instr.value)
            if type(operand) is tuple:
                return _BLOCKED
            op = instr.op
            expected = desired = None

        if id(instr) in self.ctx.private:
            old = state.memory.get(addr, 0)
            new = (
                desired
                if (op is None and old == expected)
                else old if op is None else _rmw_compute(op, old, operand)
            )
            state.mem_write(addr, new, self.journal)
            return old

        model = self.ctx.model
        if model.rmw_requires_drain():
            if thread.window:
                return _BLOCKED
            if not visible_ok:
                return _VISIBLE
            old = state.memory.get(addr, 0)
            if op is None:
                if old == expected:
                    state.mem_write(addr, desired, self.journal)
            else:
                state.mem_write(addr, _rmw_compute(op, old, operand),
                                self.journal)
            return old
        # WMM: enter the window; execution happens at commit time.
        window = thread.window
        if len(window) >= model.window_limit:
            return _BLOCKED
        journal = self.journal
        touch(journal, thread)
        if journal is not None:
            journal.append((OP_SSET, "token_counter", state.token_counter))
            journal.append((OP_WADD, thread))
        state.token_counter += 1
        token = state.token_counter
        window.append(
            WindowEntry(
                "rmw", addr, instr.order, instr, token=token,
                rmw_op=op, rmw_operand=operand,
                rmw_expected=expected, rmw_desired=desired,
            )
        )
        return (_PENDING, token)

    def _do_fence(self, thread):
        if thread.window:
            return _BLOCKED
        return 0

    def _do_gep(self, frame, instr):
        addr = self._value(frame, instr.base)
        if type(addr) is tuple:
            return _BLOCKED
        for step in instr.path:
            if step[0] == "field":
                struct_type, field_index = step[1], step[2]
                addr += sum(
                    ftype.size for _, ftype in struct_type.fields[:field_index]
                )
            else:
                element, index_value = step[1], self._value(frame, step[2])
                if type(index_value) is tuple:
                    return _BLOCKED
                addr += element.size * index_value
        return addr

    def _do_binop(self, frame, instr):
        left = self._value(frame, instr.left)
        right = self._value(frame, instr.right)
        if type(left) is tuple or type(right) is tuple:
            return _BLOCKED
        function = BINOP_FUNCTIONS.get(instr.op)
        if function is None:
            raise ExecutionError(f"unknown binop {instr.op!r}")
        try:
            return function(left, right)
        except ZeroDivisionError as error:
            raise ExecutionError(str(error)) from None

    # -- control -------------------------------------------------------------------------

    def _do_ret(self, state, thread, frame, instr):
        value = 0
        if instr.has_value:
            value = self._value(frame, instr.value)
            if type(value) is tuple:
                return _BLOCKED
        journal = self.journal
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
            self._set_status(state, thread,
                             FINISHING if thread.window else FINISHED)
            return _CONTROL
        caller = thread.mutable_frame(journal)
        if journal is not None and caller._fepoch != self._epoch:
            snapshot_frame(journal, thread, caller, self._epoch)
        call_instr = frame.call_instr
        if call_instr is not None and id(call_instr) not in self._unused:
            key = id(call_instr)
            env = caller.env
            if key not in env:
                caller._skeys = None
            env[key] = value
        caller.index += 1
        return _CONTROL

    def _do_call(self, state, thread, frame, instr):
        args = []
        for operand in instr.args:
            value = self._value(frame, operand)
            if type(value) is tuple:
                return _BLOCKED
            args.append(value)
        if len(thread.frames) > 64:
            raise ExecutionError(
                f"call-stack overflow in @{frame.function.name}"
            )
        callee_frame = Frame(instr.callee, call_instr=instr)
        callee_frame._fepoch = self._epoch  # OP_FPUSH undoes it wholesale
        callee_frame.stack_base = thread.stack_top
        for argument, value in zip(instr.callee.arguments, args):
            callee_frame.env[id(argument)] = value
        journal = self.journal
        touch(journal, thread)
        if journal is not None:
            journal.append((OP_FPUSH, thread))
        thread.push_frame(callee_frame)
        return _CONTROL

    def _do_thread_create(self, state, thread, frame, instr):
        arg = None
        if instr.arg is not None:
            arg = self._value(frame, instr.arg)
            if type(arg) is tuple:
                return _BLOCKED
        journal = self.journal
        tid = state.next_tid
        if journal is not None:
            journal.append((OP_SSET, "next_tid", tid))
            journal.append((OP_TNEW, tid))
        state.next_tid = tid + 1
        new_frame = Frame(instr.callee)
        new_frame._fepoch = self._epoch  # OP_TNEW undoes it wholesale
        new_thread = Thread(tid, new_frame)
        if instr.callee.arguments and arg is not None:
            new_frame.env[id(instr.callee.arguments[0])] = arg
        elif instr.callee.arguments:
            new_frame.env[id(instr.callee.arguments[0])] = 0
        state.threads[tid] = new_thread
        if state.trace_len < TRACE_CAP:
            state.log(f"T{thread.tid} spawns T{tid} @{instr.callee.name}",
                      journal)
        return tid

    def _do_thread_join(self, state, frame, instr):
        tid = self._value(frame, instr.tid)
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

    def _do_malloc(self, state, frame, instr):
        size = self._value(frame, instr.size)
        if type(size) is tuple:
            return _BLOCKED
        journal = self.journal
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


def may_commit(model, window, index):
    """May ``window[index]`` commit given earlier pending entries?

    The per-index rule ``MemoryModel.committable`` replaced: sc and tso
    commit in program order; wmm re-scans the entries before ``index``.
    """
    if model.name != "wmm":
        return index == 0
    entry = window[index]
    if entry.kind == "store" and is_pending(entry.value):
        return False  # the stored value comes from an uncommitted load
    if index and entry.rel:
        return False  # release: waits for everything earlier
    addr = entry.addr
    sc = entry.sc
    for earlier in window[:index]:
        if earlier.addr == addr:
            return False  # coherence: same-location program order
        if earlier.acq:
            return False  # acquire: later ops wait
        if sc and earlier.sc:
            return False  # SC total order respects program order
    return True


def _action_key(state, action):
    """``("c", tid, kind, addr)`` identity of a commit, checking that
    the parts the production keys leave out carry no information: the
    rank (earlier same-``(kind, addr)`` window entries) is 0 and no
    operand is pending."""
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
    assert rank == 0 and pristine, (entry, rank, pristine)
    return ("c", tid, entry.kind, entry.addr)


# -- standalone dispatch handlers (uniform signature) -----------------------


def _h_br(machine, state, thread, frame, instr, visible_ok):
    journal = machine.journal
    touch(journal, thread)
    if journal is not None and frame._fepoch != machine._epoch:
        snapshot_frame(journal, thread, frame, machine._epoch)
    frame.block = instr.target
    frame.index = 0
    return _CONTROL


def _h_condbr(machine, state, thread, frame, instr, visible_ok):
    cond = machine._value(frame, instr.cond)
    if type(cond) is tuple:
        return _BLOCKED
    journal = machine.journal
    touch(journal, thread)
    if journal is not None and frame._fepoch != machine._epoch:
        snapshot_frame(journal, thread, frame, machine._epoch)
    frame.block = instr.true_block if cond else instr.false_block
    frame.index = 0
    return _CONTROL


def _h_free(machine, state, thread, frame, instr, visible_ok):
    value = machine._value(frame, instr.pointer)
    return _BLOCKED if type(value) is tuple else 0


def _h_assert(machine, state, thread, frame, instr, visible_ok):
    cond = machine._value(frame, instr.cond)
    if type(cond) is tuple:
        return _BLOCKED
    if not cond:
        raise ExecutionError(
            f"assertion failed in @{frame.function.name}: "
            f"{instr.message or instr!r}"
        )
    return 0


def _h_print(machine, state, thread, frame, instr, visible_ok):
    value = machine._value(frame, instr.value)
    if type(value) is tuple:
        return _BLOCKED
    journal = machine.journal
    if journal is not None:
        journal.append((OP_OUT,))
    state.output.append(value)
    return 0


# Exact-class dispatch table (isinstance fallback in _dispatch_generic).
_HANDLERS = {
    ins.BinOp: lambda m, s, t, f, i, v: m._do_binop(f, i),
    ins.Load: lambda m, s, t, f, i, v: m._do_load(s, t, f, i, v),
    ins.Store: lambda m, s, t, f, i, v: m._do_store(s, t, f, i, v),
    ins.CondBr: _h_condbr,
    ins.Br: _h_br,
    ins.Gep: lambda m, s, t, f, i, v: m._do_gep(f, i),
    ins.Alloca: lambda m, s, t, f, i, v: m._do_alloca(s, t, f, i),
    ins.Cast: lambda m, s, t, f, i, v: m._value(f, i.value),
    ins.Cmpxchg: lambda m, s, t, f, i, v: m._do_rmw(s, t, f, i, v),
    ins.AtomicRMW: lambda m, s, t, f, i, v: m._do_rmw(s, t, f, i, v),
    ins.Fence: lambda m, s, t, f, i, v: m._do_fence(t),
    ins.Ret: lambda m, s, t, f, i, v: m._do_ret(s, t, f, i),
    ins.Call: lambda m, s, t, f, i, v: m._do_call(s, t, f, i),
    ins.ThreadCreate: lambda m, s, t, f, i, v: m._do_thread_create(s, t, f, i),
    ins.ThreadJoin: lambda m, s, t, f, i, v: m._do_thread_join(s, f, i),
    ins.Malloc: lambda m, s, t, f, i, v: m._do_malloc(s, f, i),
    ins.Free: _h_free,
    ins.Sleep: lambda m, s, t, f, i, v: 0,
    ins.CompilerBarrier: lambda m, s, t, f, i, v: 0,
    ins.AssertInst: _h_assert,
    ins.PrintInst: _h_print,
}
