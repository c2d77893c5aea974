"""Pre-analysis function inlining (§3.5, "Loops Spanning Multiple
Functions").

Loops that call tiny helpers (``lock()``, ``load_state()``, ...) hide
their non-local accesses behind a call.  Instead of paying for
inter-procedural analysis, AtoMig inlines small, non-recursive callees
before running its detectors — the same trade-off the paper makes.
"""

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import reverse_postorder
from repro.errors import PassError
from repro.ir import instructions as ins
from repro.ir.module import BasicBlock, _clone_instruction
from repro.ir.values import Constant


def inline_module(module, size_limit=80, touched=None):
    """Inline eligible call sites module-wide; returns #sites inlined.

    When ``touched`` is a set, the names of functions whose bodies were
    rewritten (the callers) are added to it — the porting pipeline's
    incremental verifier uses this to know what to re-check.
    """
    graph = CallGraph(module)
    module.know_callers(
        (site.caller, site.callee)
        for site in graph.call_sites + graph.spawn_sites
    )
    recursive = graph.recursive_functions()
    # Own every caller with an eligible site before the first splice.
    # Inlining only grows callees, and bottom-up, so every caller the
    # loop below inlines into is among them.
    module.own({
        site.caller for site in graph.call_sites
        if _eligible(site.caller, module.functions[site.callee],
                     recursive, size_limit)
    })
    inlined = 0
    for name in graph.bottom_up_order():
        function = module.functions[name]
        sites = _inline_into(module, function, recursive, size_limit)
        if sites and touched is not None:
            touched.add(name)
        inlined += sites
    return inlined


def _function_size(function):
    return sum(len(block.instructions) for block in function.blocks)


def _eligible(caller_name, callee, recursive, size_limit):
    """May a call from ``caller_name`` to ``callee`` be inlined?"""
    return (callee.name != caller_name and callee.name not in recursive
            and bool(callee.blocks)
            and _function_size(callee) <= size_limit)


def _inline_into(module, caller, recursive, size_limit):
    # Every label of the caller, kept current across its call sites so
    # each new label is checked against all earlier ones.
    labels = {block.label for block in caller.blocks}
    inlined = 0
    changed = True
    while changed:
        changed = False
        for block in list(caller.blocks):
            for instr in list(block.instructions):
                if not isinstance(instr, ins.Call):
                    continue
                if not _eligible(caller.name, instr.callee, recursive,
                                 size_limit):
                    continue
                _inline_call_site(module, caller, instr, labels)
                inlined += 1
                changed = True
                break
            if changed:
                break
    return inlined


def _inline_call_site(module, caller, call, labels):
    """Inline one call: split the block, splice in a clone of the callee.

    ``labels`` holds the caller's block labels and gains the new ones.
    A clone is labelled ``inl.<callee>.<label>``, suffixed only when
    the caller already has that label (the callee inlined twice); the
    continuation is suffixed likewise (a parsed caller restarts its
    block counter).
    """
    callee = call.callee
    block = call.block
    call_index = block.instructions.index(call)

    # Continuation block receives everything after the call.
    continuation = caller.new_block(f"inl.cont.{callee.name}")
    continuation.label = _fresh_label(continuation.label, labels)
    tail = block.instructions[call_index + 1 :]
    del block.instructions[call_index:]
    for moved in tail:
        continuation.append(moved)

    # Result slot for non-void callees (loaded in the continuation).
    result_slot = None
    if not callee.return_type.is_void():
        result_slot = ins.Alloca(callee.return_type)
        result_slot.name = f"inl.ret.{callee.name}"
        caller.entry.insert(0, result_slot)

    # Map callee arguments to the actual call operands.
    value_map = {}
    for argument, actual in zip(callee.arguments, call.args):
        value_map[argument] = actual

    block_map = {}
    for source_block in reverse_postorder(callee):
        label = _fresh_label(f"inl.{callee.name}.{source_block.label}", labels)
        clone = BasicBlock(label, caller)
        caller.blocks.append(clone)
        block_map[source_block] = clone

    for source_block in reverse_postorder(callee):
        clone_block = block_map[source_block]
        for source_instr in source_block.instructions:
            if isinstance(source_instr, ins.Ret):
                if source_instr.has_value and result_slot is not None:
                    value = _map_value(source_instr.value, value_map)
                    clone_block.append(ins.Store(result_slot, value))
                clone_block.append(ins.Br(continuation))
                continue
            cloned = _clone_instruction(
                source_instr,
                lambda value: _map_value(value, value_map),
                block_map,
                module,
            )
            cloned.source_line = source_instr.source_line
            cloned.marks = set(source_instr.marks)
            if isinstance(cloned, (ins.Call, ins.ThreadCreate)):
                module.note_call(caller.name, cloned.callee.name)
            if source_instr.name is not None:
                cloned.name = f"inl.{source_instr.name}.{caller.next_value_name()}"
            clone_block.append(cloned)
            value_map[source_instr] = cloned

    # Jump into the inlined body.
    block.append(ins.Br(block_map[callee.entry]))

    # Replace uses of the call's result with a load of the result slot.
    if result_slot is not None:
        result_load = ins.Load(result_slot)
        result_load.name = f"inl.res.{caller.next_value_name()}"
        continuation.insert(0, result_load)
        replacement = result_load
    else:
        replacement = Constant(0)
    for other_block in caller.blocks:
        for other in other_block.instructions:
            other.replace_operand(call, replacement)


def _fresh_label(label, labels):
    """``label``, suffixed ``.2``, ``.3``, ... if ``labels`` has it; the
    result is added to ``labels``."""
    if label in labels:
        suffix = 2
        while f"{label}.{suffix}" in labels:
            suffix += 1
        label = f"{label}.{suffix}"
    labels.add(label)
    return label


def _map_value(value, value_map):
    if value is None or isinstance(value, Constant):
        return value
    mapped = value_map.get(value)
    if mapped is not None:
        return mapped
    if isinstance(value, ins.Instruction) or hasattr(value, "index"):
        # Values defined in the callee must have been cloned already
        # (reverse postorder guarantees defs precede uses).
        if isinstance(value, ins.Instruction):
            raise PassError(f"inline: unmapped callee value {value!r}")
    return value  # globals are shared between caller and callee
