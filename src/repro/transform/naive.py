"""The Naive porter (§2.2, Table 1).

Make *every* shared memory access sequentially consistent.  Safe,
scalable and fully automatic — but each global/heap access now carries
an implicit barrier, which is where the paper's 1.27x-5.35x slowdowns
come from.
"""

from repro.analysis.nonlocal_ import NonLocalInfo
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder


def naive_port(module):
    """Convert all non-local accesses to SC atomics; returns #converted.

    Owns (:meth:`Module.own`) every function it rewrites.
    """
    sites = []
    for function in module.functions.values():
        info = NonLocalInfo(function)
        for instr in function.instructions():
            if isinstance(instr, (ins.Load, ins.Store)):
                if info.is_nonlocal_pointer(instr.pointer):
                    sites.append(instr)
            elif isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
                sites.append(instr)
    mapping = module.own_holders(sites)
    converted = 0
    for instr in sites:
        instr = mapping.get(instr, instr)
        if instr.order is not MemoryOrder.SEQ_CST:
            instr.order = MemoryOrder.SEQ_CST
            converted += 1
        instr.marks.add("naive")
    return converted
