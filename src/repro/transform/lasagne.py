"""A Lasagne-like porter (Rocha et al., PLDI 2022) as a baseline.

Lasagne lifts an x86 binary, makes it SC by inserting *explicit* fences
around memory operations, then removes fences that are provably
redundant.  We reproduce that strategy at the IR level:

1. insert an SC fence before every access to non-local memory;
2. run a sound intra-block redundancy elimination: a fence is dropped
   when no memory access separates it from an adjacent fence.

Accesses stay plain (explicit-barrier style), which is the root of
Lasagne's overhead versus implicit-barrier approaches (paper Table 6:
Lasagne is on average slower than even the Naive porter).
"""

from repro.analysis.nonlocal_ import NonLocalInfo
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder


def lasagne_port(module):
    """Apply the fence-insertion + elimination pipeline.

    Owns (:meth:`Module.own`) every function it rewrites.  Returns
    ``(inserted, removed)`` fence counts.
    """
    shared, names = _scan(module)
    functions, shared = _own(module, names, shared)
    inserted = _insert_fences(functions, shared)
    removed = _eliminate(functions, shared)
    return inserted, removed


def _scan(module):
    """(non-local accesses, names of the functions holding one or a
    Lasagne fence); ``module`` is only read."""
    shared = set()
    names = set()
    for function in module.functions.values():
        info = NonLocalInfo(function)
        for instr in function.instructions():
            if instr.is_memory_access():
                if info.is_nonlocal_pointer(instr.accessed_pointer()):
                    shared.add(instr)
                    names.add(function.name)
            elif isinstance(instr, ins.Fence) and "lasagne" in instr.marks:
                names.add(function.name)
    return shared, names


def _own(module, names, shared):
    """Own ``names``; returns their functions and the translated
    ``shared`` accesses."""
    mapping = module.own(names)
    functions = [function for name, function in module.functions.items()
                 if name in names]
    return functions, {mapping.get(instr, instr) for instr in shared}


def _insert_fences(functions, shared):
    inserted = 0
    for function in functions:
        for block in function.blocks:
            index = 0
            while index < len(block.instructions):
                if block.instructions[index] in shared:
                    fence = ins.Fence(MemoryOrder.SEQ_CST)
                    fence.marks.add("lasagne")
                    block.insert(index, fence)
                    inserted += 1
                    index += 1  # skip over the fence we just added
                index += 1
    return inserted


def eliminate_redundant_fences(module):
    """Lasagne's verified barrier elimination, approximated soundly.

    The goal is TSO-equivalence on Arm: the load-load, load-store and
    store-store orders must be restored, while store-load reordering is
    already allowed by x86-TSO.  A fence guarding an access is therefore
    provably redundant exactly when the previous shared access in the
    same block is a *store* and the guarded access is a *load* — the one
    pair TSO never orders.  (The real Lasagne additionally removes
    fences around accesses its binary-level analyses prove unrelated to
    synchronization; see EXPERIMENTS.md for the resulting magnitude
    difference.)  Returns the number of fences removed.
    """
    shared, names = _scan(module)
    return _eliminate(*_own(module, names, shared))


def _eliminate(functions, shared):
    removed = 0
    for function in functions:
        for block in function.blocks:
            kept = []
            previous_shared = None  # "load" | "store" | None
            pending_fence = None
            for instr in block.instructions:
                if isinstance(instr, ins.Fence) and "lasagne" in instr.marks:
                    if pending_fence is not None:
                        removed += 1  # adjacent duplicate
                    pending_fence = instr
                    continue
                if instr in shared:
                    is_load = isinstance(instr, ins.Load)
                    if pending_fence is not None:
                        if previous_shared == "store" and is_load:
                            removed += 1  # TSO already allows store->load
                        else:
                            kept.append(pending_fence)
                        pending_fence = None
                    previous_shared = "load" if is_load else "store"
                elif pending_fence is not None:
                    kept.append(pending_fence)
                    pending_fence = None
                kept.append(instr)
            if pending_fence is not None:
                kept.append(pending_fence)
            block.instructions = kept
    return removed
