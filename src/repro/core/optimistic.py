"""Optimistic-loop detection (§3.3, "Optimistic Accesses").

A spinloop is an *optimistic loop* when it reads some non-local location
that is not one of its spin controls and that value is used after the
loop (sequence locks, MariaDB's lf-hash validation loops, ...).  The
loop's spin controls are then promoted to *optimistic controls*, which
the transformation protects with explicit barriers in addition to the
SC-atomic conversion.
"""

from dataclasses import dataclass, field

from repro.analysis.nonlocal_ import pointer_root
from repro.ir import instructions as ins


@dataclass
class OptimisticLoopInfo:
    """One optimistic loop: the spinloop plus promoted controls."""

    spinloop: object  # SpinloopInfo
    #: The optimistic (uncontrolled) reads that leak out of the loop.
    optimistic_reads: set = field(default_factory=set)

    @property
    def loop(self):
        return self.spinloop.loop

    @property
    def function_name(self):
        return self.spinloop.function_name

    @property
    def control_instructions(self):
        return self.spinloop.spin_controls

    @property
    def control_keys(self):
        return self.spinloop.control_keys


@dataclass
class OptimisticResult:
    optimistic_loops: list = field(default_factory=list)
    control_instructions: set = field(default_factory=set)
    control_keys: set = field(default_factory=set)

    def apply(self, mapping):
        """Mark every optimistic control; ``mapping`` is
        :meth:`Module.own`'s map for the functions that hold them."""
        if mapping:
            for info in self.optimistic_loops:
                info.spinloop.translate(mapping)
                info.optimistic_reads = {
                    mapping.get(instr, instr)
                    for instr in info.optimistic_reads
                }
            self.control_instructions = {
                mapping.get(instr, instr)
                for instr in self.control_instructions
            }
        for instr in self.control_instructions:
            instr.marks.add("optimistic_control")


def detect_optimistic_loops(module, spinloop_result, cache=None):
    """Classify each detected spinloop as optimistic or plain, and mark
    the optimistic loops' controls (:func:`find_optimistic_loops`)."""
    result = find_optimistic_loops(module, spinloop_result, cache)
    result.apply(module.own_holders(result.control_instructions))
    return result


def find_optimistic_loops(module, spinloop_result, cache=None):
    """Classify each detected spinloop as optimistic or plain; the
    module is only read.

    Classification is intra-procedural: spinloops are grouped by
    function so each function's use-map and nonlocal-info are built
    once; results keep spinloop order.
    """
    from repro.analysis.nonlocal_ import NonLocalInfo

    # Group the spinloops by function, preserving detection order.
    groups = {}
    for info in spinloop_result.spinloops:
        groups.setdefault(info.function_name, []).append(info)

    result = OptimisticResult()
    for function_name, infos in groups.items():
        function = module.functions[function_name]
        uses = _build_use_map(function)
        nonlocal_info = (cache.nonlocal_info(function) if cache is not None
                         else NonLocalInfo(function))
        for info in infos:
            optimistic_reads = set()
            control_keys = info.control_keys
            for instr in info.loop.instructions():
                if not isinstance(instr, ins.Load):
                    continue
                if instr in info.spin_controls:
                    continue
                # Only non-local reads can be "optimistic" accesses to
                # shared data; local slots are invisible to peers.
                if not nonlocal_info.is_nonlocal_pointer(instr.pointer):
                    continue
                key = nonlocal_info.location_key(instr.pointer)
                if key is not None and key in control_keys:
                    continue  # reads of the controls themselves
                if _value_used_outside(instr, info.loop, uses):
                    optimistic_reads.add(instr)
            if not optimistic_reads:
                continue
            result.optimistic_loops.append(
                OptimisticLoopInfo(info, optimistic_reads)
            )
            result.control_instructions |= info.spin_controls
            result.control_keys |= info.control_keys
    return result


def _build_use_map(function):
    uses = {}
    for instr in function.instructions():
        for operand in instr.operands:
            uses.setdefault(id(operand), []).append(instr)
    return uses


def _value_used_outside(load, loop, uses):
    """Forward slice: does the loaded value flow to code after the loop?

    Follows direct value uses, plus flows through local stack slots
    (store inside the loop, load anywhere else in the function).
    """
    worklist = [load]
    visited = set()
    while worklist:
        value = worklist.pop()
        if id(value) in visited:
            continue
        visited.add(id(value))
        for user in uses.get(id(value), ()):
            if user.block not in loop.body:
                return True
            if isinstance(user, ins.Store):
                if user.value is value:
                    target = pointer_root(user.pointer)
                    if isinstance(target, ins.Alloca):
                        # Track the slot's readers.
                        for reader in uses.get(id(target), ()):
                            if isinstance(reader, ins.Load):
                                if reader.block not in loop.body:
                                    return True
                                worklist.append(reader)
                            elif isinstance(reader, ins.Gep):
                                worklist.append(reader)
                    else:
                        # Written to non-local memory: observable later.
                        return True
                continue
            if isinstance(user, (ins.CondBr, ins.Ret, ins.AssertInst)):
                if isinstance(user, ins.Ret):
                    return True
                continue
            worklist.append(user)
    return False
