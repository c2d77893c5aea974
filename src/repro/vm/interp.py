"""Architectural IR interpreter with cycle accounting.

Runs a module to completion under a deterministic round-robin scheduler
(no memory reordering — this VM measures *performance*, the model
checker in :mod:`repro.mc` measures *correctness*).  Every instruction
is charged abstract cycles from a :class:`CostModel`; a small MESI-like
line tracker adds cross-thread contention penalties.
"""

from repro.errors import AssertionFailure, VMError
from repro.ir import instructions as ins
from repro.ir.semantics import BINOP_FUNCTIONS, RMW_FUNCTIONS
from repro.ir.values import Argument, Constant, GlobalVar
from repro.vm.costs import CostModel
from repro.vm.stats import RunStats

GLOBAL_BASE = 1_000
HEAP_BASE = 10_000_000
STACK_BASE = 100_000_000
STACK_SIZE = 1_000_000


class RunResult:
    """Outcome of one VM run."""

    def __init__(self, exit_value, stats, output):
        self.exit_value = exit_value
        self.stats = stats
        self.output = output

    @property
    def cycles(self):
        return self.stats.cycles

    def __repr__(self):
        return f"RunResult(exit={self.exit_value}, {self.stats.summary()})"


class _Frame:
    __slots__ = ("function", "block", "index", "env", "alloca_addrs",
                 "stack_base", "call_instr")

    def __init__(self, function, call_instr=None):
        self.function = function
        self.block = function.entry
        self.index = 0
        self.env = {}
        self.alloca_addrs = {}
        self.stack_base = None
        self.call_instr = call_instr


class _Thread:
    __slots__ = ("tid", "frames", "finished", "waiting_on", "cycles",
                 "stack_top")

    def __init__(self, tid, frame):
        self.tid = tid
        self.frames = [frame]
        self.finished = False
        self.waiting_on = None
        self.cycles = 0
        self.stack_top = STACK_BASE + tid * STACK_SIZE
        frame.stack_base = self.stack_top


class Interpreter:
    """Executes one module; see :func:`run_module` for the simple API."""

    def __init__(self, module, cost_model=None, quantum=64,
                 max_instructions=200_000_000, schedule_seed=0,
                 record_counts=False):
        self.module = module
        self.costs = cost_model or CostModel()
        self.quantum = max(1, quantum + (schedule_seed % 7))
        self.max_instructions = max_instructions
        self.record_counts = record_counts
        self._counts = {}
        self.stats = RunStats()
        self.memory = {}
        self.global_addr = {}
        self.heap_top = HEAP_BASE
        self.output = []
        self.threads = {}
        self.next_tid = 0
        # MESI-lite: addr -> (owner_tid_or_None, frozenset_of_sharers)
        self.line_owner = {}
        self.line_sharers = {}
        self._layout_globals()
        # Provably thread-private accesses execute at register-like cost
        # (the paper's baselines are -O2 binaries where locals live in
        # registers) and never pay coherence penalties.
        from repro.analysis.nonlocal_ import NonLocalInfo

        self.private = set()
        for function in module.functions.values():
            info = NonLocalInfo(function)
            for instr in function.instructions():
                if instr.is_memory_access():
                    if not info.is_nonlocal_pointer(instr.accessed_pointer()):
                        self.private.add(id(instr))

    def _layout_globals(self):
        addr = GLOBAL_BASE
        for gvar in self.module.globals.values():
            self.global_addr[gvar.name] = addr
            for offset, value in enumerate(gvar.initializer):
                self.memory[addr + offset] = value
            addr += max(gvar.value_type.size, 1)

    # -- public ------------------------------------------------------------

    def run(self):
        entry_fn = self.module.functions.get("main")
        if entry_fn is None:
            raise VMError("no entry function @main")
        main = _Thread(0, _Frame(entry_fn))
        self.threads[0] = main
        self.next_tid = 1

        exit_value = 0
        runnable = [0]
        while runnable:
            progressed = False
            for tid in list(runnable):
                thread = self.threads[tid]
                if thread.finished:
                    continue
                ran = self._run_slice(thread)
                if ran:
                    progressed = True
                if thread.finished and tid == 0:
                    exit_value = thread.waiting_on  # reused as exit slot
            runnable = [
                tid for tid, thread in self.threads.items()
                if not thread.finished
            ]
            if runnable and not progressed:
                blocked = {
                    tid: thread.waiting_on
                    for tid, thread in self.threads.items()
                    if not thread.finished
                }
                raise VMError(f"deadlock: all threads blocked on {blocked}")
        self.stats.per_thread_cycles = {
            tid: thread.cycles for tid, thread in self.threads.items()
        }
        self.stats.cycles = sum(self.stats.per_thread_cycles.values())
        if self.record_counts:
            positions = {}
            for name, function in self.module.functions.items():
                for block in function.blocks:
                    for index, instr in enumerate(block.instructions):
                        positions[id(instr)] = (name, block.label, index)
            self.stats.instr_counts = {
                positions[key]: count
                for key, count in self._counts.items()
                if key in positions
            }
        return RunResult(exit_value, self.stats, self.output)

    # -- scheduling ---------------------------------------------------------

    def _run_slice(self, thread):
        """Run up to one quantum; returns True if any instruction ran."""
        executed = 0
        while executed < self.quantum and not thread.finished:
            if thread.waiting_on is not None and not thread.finished:
                target = self.threads.get(thread.waiting_on)
                if target is None or target.finished:
                    thread.waiting_on = None
                else:
                    break  # still joining
            self._step(thread)
            executed += 1
            if self.stats.instructions > self.max_instructions:
                raise VMError(
                    f"instruction budget exceeded "
                    f"({self.max_instructions})"
                )
        return executed > 0

    # -- execution -----------------------------------------------------------

    def _step(self, thread):
        frame = thread.frames[-1]
        instr = frame.block.instructions[frame.index]
        self.stats.instructions += 1
        if self.record_counts:
            key = id(instr)
            self._counts[key] = self._counts.get(key, 0) + 1
        cost = self.costs.instruction_cost(instr)

        kind = type(instr)
        if kind is ins.BinOp:
            frame.env[id(instr)] = _compute(
                instr.op,
                self._value(frame, instr.left),
                self._value(frame, instr.right),
            )
            frame.index += 1
        elif kind is ins.Load:
            addr = self._value(frame, instr.pointer)
            if id(instr) in self.private:
                cost = self.costs.private_access
            else:
                cost += self._touch_read(
                    thread.tid, addr, instr.order.is_atomic
                )
            frame.env[id(instr)] = self.memory.get(addr, 0)
            if instr.order.is_atomic:
                self.stats.atomic_loads += 1
            else:
                self.stats.plain_loads += 1
            frame.index += 1
        elif kind is ins.Store:
            addr = self._value(frame, instr.pointer)
            if id(instr) in self.private:
                cost = self.costs.private_access
            else:
                cost += self._touch_write(
                    thread.tid, addr, instr.order.is_atomic
                )
            self.memory[addr] = self._value(frame, instr.value)
            if instr.order.is_atomic:
                self.stats.atomic_stores += 1
            else:
                self.stats.plain_stores += 1
            frame.index += 1
        elif kind is ins.Gep:
            frame.env[id(instr)] = self._gep_addr(frame, instr)
            frame.index += 1
        elif kind is ins.Br:
            frame.block = instr.target
            frame.index = 0
        elif kind is ins.CondBr:
            taken = self._value(frame, instr.cond)
            frame.block = instr.true_block if taken else instr.false_block
            frame.index = 0
        elif kind is ins.Alloca:
            addr = frame.alloca_addrs.get(id(instr))
            if addr is None:
                addr = thread.stack_top
                size = max(instr.allocated_type.size, 1)
                thread.stack_top += size
                frame.alloca_addrs[id(instr)] = addr
                for offset in range(size):
                    self.memory[addr + offset] = 0
            frame.env[id(instr)] = addr
            frame.index += 1
        elif kind is ins.Cast:
            frame.env[id(instr)] = self._value(frame, instr.value)
            frame.index += 1
        elif kind is ins.Ret:
            value = self._value(frame, instr.value) if instr.has_value else 0
            for addr in range(frame.stack_base, thread.stack_top):
                self.memory.pop(addr, None)
            thread.stack_top = frame.stack_base
            thread.frames.pop()
            if not thread.frames:
                thread.finished = True
                thread.waiting_on = value  # exit-value slot for main
            else:
                caller = thread.frames[-1]
                if frame.call_instr is not None:
                    caller.env[id(frame.call_instr)] = value
                caller.index += 1
        elif kind is ins.Call:
            self.stats.calls += 1
            callee_frame = _Frame(instr.callee, call_instr=instr)
            callee_frame.stack_base = thread.stack_top
            for argument, operand in zip(instr.callee.arguments, instr.args):
                callee_frame.env[id(argument)] = self._value(frame, operand)
            if len(thread.frames) > 256:
                raise VMError(f"stack overflow in @{frame.function.name}")
            thread.frames.append(callee_frame)
        elif kind is ins.Cmpxchg:
            addr = self._value(frame, instr.pointer)
            cost += self._touch_write(thread.tid, addr, True)
            old = self.memory.get(addr, 0)
            if old == self._value(frame, instr.expected):
                self.memory[addr] = self._value(frame, instr.desired)
            frame.env[id(instr)] = old
            self.stats.rmw_ops += 1
            frame.index += 1
        elif kind is ins.AtomicRMW:
            addr = self._value(frame, instr.pointer)
            cost += self._touch_write(thread.tid, addr, True)
            old = self.memory.get(addr, 0)
            self.memory[addr] = _rmw(instr.op, old,
                                     self._value(frame, instr.value))
            frame.env[id(instr)] = old
            self.stats.rmw_ops += 1
            frame.index += 1
        elif kind is ins.Fence:
            self.stats.fences += 1
            frame.index += 1
        elif kind is ins.AssertInst:
            if not self._value(frame, instr.cond):
                raise AssertionFailure(
                    f"@{frame.function.name}: {instr.message or instr!r}",
                    thread_id=thread.tid,
                )
            frame.index += 1
        elif kind is ins.PrintInst:
            self.output.append(self._value(frame, instr.value))
            frame.index += 1
        elif kind is ins.Malloc:
            size = max(int(self._value(frame, instr.size)), 1)
            addr = self.heap_top
            self.heap_top += size
            self.stats.allocations += 1
            frame.env[id(instr)] = addr
            frame.index += 1
        elif kind is ins.Free:
            self._value(frame, instr.pointer)
            frame.index += 1
        elif kind is ins.Sleep:
            self._value(frame, instr.duration)
            frame.index += 1
        elif kind is ins.CompilerBarrier:
            frame.index += 1
        elif kind is ins.ThreadCreate:
            tid = self.next_tid
            self.next_tid += 1
            self.stats.threads_spawned += 1
            new_frame = _Frame(instr.callee)
            new_thread = _Thread(tid, new_frame)
            new_frame.stack_base = new_thread.stack_top
            if instr.callee.arguments:
                arg = (
                    self._value(frame, instr.arg)
                    if instr.arg is not None
                    else 0
                )
                new_frame.env[id(instr.callee.arguments[0])] = arg
            self.threads[tid] = new_thread
            frame.env[id(instr)] = tid
            frame.index += 1
        elif kind is ins.ThreadJoin:
            target = self._value(frame, instr.tid)
            target_thread = self.threads.get(target)
            if target_thread is None:
                raise VMError(f"join of unknown thread {target}")
            if not target_thread.finished:
                thread.waiting_on = target
                # Do not advance: re-execute the join after waking.
                thread.cycles += cost
                self.stats.instructions -= 1
                return
            frame.index += 1
        else:
            raise VMError(f"VM cannot execute {instr!r}")

        thread.cycles += cost

    # -- helpers ---------------------------------------------------------------

    def _value(self, frame, operand):
        if type(operand) is Constant:
            return operand.value
        if isinstance(operand, GlobalVar):
            return self.global_addr[operand.name]
        return frame.env[id(operand)]

    def _gep_addr(self, frame, instr):
        cached = getattr(instr, "_vm_path", None)
        if cached is None:
            const_offset = 0
            dynamic = []
            for step in instr.path:
                if step[0] == "field":
                    struct_type, field_index = step[1], step[2]
                    const_offset += sum(
                        ftype.size
                        for _, ftype in struct_type.fields[:field_index]
                    )
                else:
                    dynamic.append((step[1].size, step[2]))
            cached = (const_offset, dynamic)
            instr._vm_path = cached
        addr = self._value(frame, instr.base) + cached[0]
        for size, operand in cached[1]:
            addr += size * self._value(frame, operand)
        return addr

    def _touch_read(self, tid, addr, atomic=False):
        addr = addr >> 4  # cache-line granularity (costs.line_slots)
        owner = self.line_owner.get(addr)
        if owner is None or owner == tid:
            return 0
        sharers = self.line_sharers.get(addr)
        if sharers and tid in sharers:
            return 0
        self.stats.contended_accesses += 1
        if sharers:
            self.line_sharers[addr] = sharers | {tid}
        else:
            self.line_sharers[addr] = frozenset((owner, tid))
        return self.costs.contention_atomic if atomic else self.costs.contention

    def _touch_write(self, tid, addr, atomic=False):
        addr = addr >> 4  # cache-line granularity (costs.line_slots)
        owner = self.line_owner.get(addr)
        sharers = self.line_sharers.get(addr)
        contended = (owner is not None and owner != tid) or (
            sharers is not None and sharers - {tid}
        )
        self.line_owner[addr] = tid
        if sharers is not None:
            self.line_sharers.pop(addr, None)
        if contended:
            self.stats.contended_accesses += 1
            return (
                self.costs.contention_atomic
                if atomic
                else self.costs.contention
            )
        return 0


def run_module(module, schedule_seed=0, cost_model=None, quantum=64,
               max_instructions=200_000_000, record_counts=False):
    """Execute ``module`` and return a :class:`RunResult`.

    ``record_counts=True`` additionally records per-instruction dynamic
    execution counts into ``result.stats.instr_counts`` (keyed by
    position), the weighting input of
    :func:`repro.vm.costs.estimate_cost`.
    """
    interp = Interpreter(
        module,
        cost_model=cost_model,
        quantum=quantum,
        max_instructions=max_instructions,
        schedule_seed=schedule_seed,
        record_counts=record_counts,
    )
    return interp.run()


def _rmw(op, old, operand):
    function = RMW_FUNCTIONS.get(op)
    if function is None:
        raise VMError(f"unknown rmw op {op!r}")
    return function(old, operand)


def _compute(op, left, right):
    function = BINOP_FUNCTIONS.get(op)
    if function is None:
        raise VMError(f"unknown binop {op!r}")
    try:
        return function(left, right)
    except ZeroDivisionError as error:
        raise VMError(str(error)) from None
