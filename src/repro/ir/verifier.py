"""Structural IR verifier.

Catches the invariant violations that passes could introduce: blocks
without terminators, terminators in the middle of a block, operands that
belong to other functions, dangling branch targets, and calls to
functions outside the module.

It also enforces C11 memory-order well-formedness so no pass can emit
semantically meaningless combinations: loads cannot carry release
orders, stores cannot carry acquire/consume orders, fences must have an
order that actually fences, and atomic accesses must target a
single-slot (atomic-capable) location — never a whole array or struct.
"""

from repro.errors import IRError
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.ir.values import Argument, Constant, GlobalVar

#: Orders a stand-alone fence may carry.  ``fence relaxed`` (and weaker)
#: is a no-op C11 forbids; consume fences are promoted to acquire by
#: every compiler and never reach the IR.
_FENCE_ORDERS = frozenset((
    MemoryOrder.ACQUIRE,
    MemoryOrder.RELEASE,
    MemoryOrder.ACQ_REL,
    MemoryOrder.SEQ_CST,
))

#: Orders that are invalid on a load (release semantics need a write).
_BAD_LOAD_ORDERS = frozenset((MemoryOrder.RELEASE, MemoryOrder.ACQ_REL))

#: Orders that are invalid on a store (acquire semantics need a read).
_BAD_STORE_ORDERS = frozenset((
    MemoryOrder.CONSUME,
    MemoryOrder.ACQUIRE,
    MemoryOrder.ACQ_REL,
))


def verify_module(module, functions=None):
    """Raise :class:`IRError` on the first malformed construct found.

    ``functions`` optionally restricts verification to the named
    subset — the porting pipeline's incremental fast path: a clone of a
    verified module only needs its *touched* functions re-checked.
    Unknown names are ignored (a touched-set may mention functions a
    later stage removed).
    """
    if functions is None:
        targets = module.functions.values()
    else:
        targets = [
            module.functions[name] for name in functions
            if name in module.functions
        ]
    for function in targets:
        _verify_function(function, module)
    return True


def _verify_function(function, module):
    if not function.blocks:
        raise IRError(f"@{function.name}: function has no blocks")
    block_set = set(function.blocks)
    defined = set(function.arguments)
    labels = set()

    for block in function.blocks:
        if block.function is not function:
            raise IRError(
                f"@{function.name}/{block.label}: block.function mismatch"
            )
        if block.label in labels:
            raise IRError(
                f"@{function.name}/{block.label}: duplicate block label"
            )
        labels.add(block.label)
        if not block.instructions:
            raise IRError(f"@{function.name}/{block.label}: empty block")
        terminator = block.instructions[-1]
        if not terminator.is_terminator:
            raise IRError(
                f"@{function.name}/{block.label}: missing terminator"
            )
        for instr in block.instructions[:-1]:
            if instr.is_terminator:
                raise IRError(
                    f"@{function.name}/{block.label}: terminator "
                    f"{instr!r} in the middle of a block"
                )
        for instr in block.instructions:
            if instr.block is not block:
                raise IRError(
                    f"@{function.name}/{block.label}: instr.block mismatch "
                    f"for {instr!r}"
                )
            defined.add(instr)
            for successor in _branch_targets(instr):
                if successor not in block_set:
                    raise IRError(
                        f"@{function.name}/{block.label}: branch to foreign "
                        f"block {successor.label}"
                    )
            if isinstance(instr, (ins.Call, ins.ThreadCreate)):
                if module.functions.get(instr.callee.name) is not instr.callee:
                    raise IRError(
                        f"@{function.name}: call to out-of-module function "
                        f"@{instr.callee.name}"
                    )
            _verify_memory_semantics(function, block, instr)

    # Operand sanity: every non-constant operand must be a global, an
    # argument of this function, or an instruction of this function.
    instruction_set = set()
    for block in function.blocks:
        instruction_set.update(block.instructions)
    for block in function.blocks:
        for instr in block.instructions:
            for operand in instr.operands:
                _verify_operand(function, instr, operand, instruction_set)


def _verify_memory_semantics(function, block, instr):
    where = f"@{function.name}/{block.label}"
    if isinstance(instr, ins.Fence):
        if instr.order not in _FENCE_ORDERS:
            raise IRError(
                f"{where}: fence with invalid order "
                f"{instr.order.name.lower()}"
            )
        return
    if isinstance(instr, ins.Load) and instr.order in _BAD_LOAD_ORDERS:
        raise IRError(
            f"{where}: load cannot have release semantics "
            f"({instr.order.name.lower()})"
        )
    if isinstance(instr, ins.Store) and instr.order in _BAD_STORE_ORDERS:
        raise IRError(
            f"{where}: store cannot have acquire semantics "
            f"({instr.order.name.lower()})"
        )
    atomic = isinstance(instr, (ins.AtomicRMW, ins.Cmpxchg)) or (
        isinstance(instr, (ins.Load, ins.Store)) and instr.order.is_atomic
    )
    if atomic:
        size = _pointee_slots(instr.pointer)
        if size > 1:
            raise IRError(
                f"{where}: atomic {instr.opcode} on multi-slot operand "
                f"{instr.pointer.short()} ({size} slots; not "
                f"atomic-capable)"
            )


def _pointee_slots(pointer):
    """Number of memory slots an access through ``pointer`` covers."""
    if isinstance(pointer, GlobalVar):
        return max(pointer.value_type.size, 1)
    if isinstance(pointer, ins.Alloca):
        return max(pointer.allocated_type.size, 1)
    return 1


def _branch_targets(instr):
    if isinstance(instr, ins.Br):
        return [instr.target]
    if isinstance(instr, ins.CondBr):
        return [instr.true_block, instr.false_block]
    return []


def _verify_operand(function, instr, operand, instruction_set):
    if operand is None or isinstance(operand, (Constant, GlobalVar)):
        return
    if isinstance(operand, Argument):
        if operand.function is not function:
            raise IRError(
                f"@{function.name}: {instr!r} uses argument of "
                f"@{operand.function.name}"
            )
        return
    if isinstance(operand, ins.Instruction):
        if operand not in instruction_set:
            raise IRError(
                f"@{function.name}: {instr!r} uses instruction from another "
                f"function: {operand!r}"
            )
        return
    raise IRError(f"@{function.name}: {instr!r} has bad operand {operand!r}")
