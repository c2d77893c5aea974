"""The transformation stage: SC atomics and explicit barriers.

Turns every marked access into an SC atomic (an *implicit* barrier:
LDAR/STLR-class instructions on Arm) and, for optimistic controls, adds
the *explicit* SC fences of Figure 6 / Figure 7:

- a fence before every optimistic-control load inside an optimistic
  loop (forces the loop's uncontrolled reads to complete before exit);
- a fence after every store to an optimistic-control location anywhere
  in the module (keeps writer-side publication ordered).
"""

from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder


def atomize_accesses(instructions, force_explicit=False):
    """Upgrade ``instructions`` to SC atomics; returns conversion count.

    With ``force_explicit`` (ablation knob) accesses stay plain and are
    bracketed by explicit fences instead, emulating an explicit-barrier
    porting style.
    """
    converted = 0
    for instr in instructions:
        if force_explicit:
            if _wrap_with_fences(instr):
                converted += 1
            continue
        if getattr(instr, "order", None) is None:
            continue
        if instr.order is not MemoryOrder.SEQ_CST:
            instr.order = MemoryOrder.SEQ_CST
            converted += 1
    return converted


def _wrap_with_fences(instr):
    block = instr.block
    index = block.instructions.index(instr)
    before = ins.Fence(MemoryOrder.SEQ_CST)
    after = ins.Fence(MemoryOrder.SEQ_CST)
    before.marks.add("explicit_ablation")
    after.marks.add("explicit_ablation")
    block.insert(index, before)
    block.insert(index + 2, after)
    return True


def optimistic_fence_sites(module, optimistic_result, cache):
    """Where the explicit barriers of optimistic controls go.

    Reader side, a fence before every optimistic-control load inside an
    optimistic loop; writer side, a fence after every store or RMW to
    an optimistic-control location anywhere in the module (the paper:
    "sticky buddies of optimistic controls additionally get explicit
    barriers depending on where they are").  Returns ``(access,
    after)`` pairs for :func:`insert_fences`; ``module`` is only read.
    """
    opt_keys = set(optimistic_result.control_keys)
    control_loads_in_loops = set()
    for opt in optimistic_result.optimistic_loops:
        info = cache.nonlocal_info(module.functions[opt.function_name])
        for instr in opt.loop.instructions():
            if not isinstance(instr, (ins.Load, ins.Cmpxchg, ins.AtomicRMW)):
                continue
            key = info.location_key(instr.accessed_pointer())
            if instr in opt.control_instructions or (
                key is not None and key in opt_keys
            ):
                control_loads_in_loops.add(instr)

    # Reader side: fence before each optimistic-control load inside an
    # optimistic loop.
    sites = [(instr, False) for instr in control_loads_in_loops
             if isinstance(instr, ins.Load)]

    # Writer side: fence after every store/RMW to an optimistic-control
    # location, module-wide.
    for function in module.functions.values():
        info = cache.nonlocal_info(function)
        for block in function.blocks:
            for instr in block.instructions:
                if not isinstance(instr, (ins.Store, ins.Cmpxchg, ins.AtomicRMW)):
                    continue
                key = info.location_key(instr.accessed_pointer())
                if key is None or key not in opt_keys:
                    continue
                sites.append((instr, True))
    return sites


def insert_fences(sites, mapping):
    """Insert an SC fence at each ``(access, after)`` site; returns the
    count.  ``mapping`` is :meth:`Module.own`'s map for the functions
    that hold the sites."""
    for instr, after in sites:
        instr = mapping.get(instr, instr)
        block = instr.block
        fence = ins.Fence(MemoryOrder.SEQ_CST)
        fence.marks.add("optimistic")
        block.insert(block.instructions.index(instr) + int(after), fence)
    return len(sites)
