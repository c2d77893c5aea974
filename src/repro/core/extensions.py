"""Extension detectors from the paper's discussion section (§6).

Two additional synchronization entry points AtoMig's authors propose as
future work, implemented here behind configuration flags (both default
off, preserving the paper's evaluated configuration):

1. **Polling loops** (``detect_polling_loops``): "shared memory accesses
   mixed with timing-based polling or asynchronous methods ...  Locating
   code segments around specific system calls or external library
   functions that offer wait semantics can help in their detection."  A
   loop containing a wait-semantics operation (``usleep`` /
   ``sched_yield``) whose exit conditions read non-local memory is
   treated like a spinloop even when it also has a local timeout
   counter — exactly the shape the strict spinloop definition rejects.

2. **Compiler-barrier seeds** (``compiler_barrier_seeds``): "use the
   placement of compiler barriers (which are turned into NOPs in the
   generated assembly code) as additional entry points."  The non-local
   accesses adjacent to an ``__asm__("" ::: "memory")`` are marked as
   synchronization accesses.

The ``find_*`` functions only read the module; ``detect_*`` also mark
the accesses they find.
"""

from dataclasses import dataclass, field

from repro.analysis.influence import InfluenceAnalysis
from repro.analysis.loops import find_loops
from repro.ir import instructions as ins


@dataclass
class ExtensionResult:
    """Accesses found by the §6 extension detectors."""

    polling_loops: list = field(default_factory=list)
    control_instructions: set = field(default_factory=set)
    control_keys: set = field(default_factory=set)
    #: (access, mark) for every control found, in detection order.
    marks: list = field(default_factory=list)

    def apply(self, mapping):
        """Mark every control; ``mapping`` is :meth:`Module.own`'s map
        for the functions that hold them."""
        self.marks = [(mapping.get(instr, instr), mark)
                      for instr, mark in self.marks]
        self.control_instructions = {instr for instr, _mark in self.marks}
        for instr, mark in self.marks:
            instr.marks.add(mark)


def detect_polling_loops(module, result=None, cache=None):
    """Mark the non-local exit dependencies of timing-polling loops
    (:func:`find_polling_loops`)."""
    result = find_polling_loops(module, result, cache)
    result.apply(module.own_holders(result.control_instructions))
    return result


def detect_compiler_barrier_seeds(module, result=None, window=3, cache=None):
    """Mark non-local accesses adjacent to compiler barriers
    (:func:`find_compiler_barrier_seeds`)."""
    result = find_compiler_barrier_seeds(module, result, window, cache)
    result.apply(module.own_holders(result.control_instructions))
    return result


def find_polling_loops(module, result=None, cache=None):
    """The non-local exit dependencies of timing-polling loops.

    Unlike plain spinloop detection, condition (1) is weakened — only
    *some* exit condition needs a non-local dependency — and condition
    (2) is dropped: the whole point of a polling loop is that a local
    timeout counter also influences the exit.  The sleep call is the
    evidence of intent that makes this precise enough (the paper's
    false-positive concern does not apply: plain search loops do not
    sleep).
    """
    result = result or ExtensionResult()
    for function in module.functions.values():
        influence = InfluenceAnalysis(
            function,
            nonlocal_info=(cache.nonlocal_info(function)
                           if cache is not None else None),
        )
        for loop in find_loops(function):
            if not _contains_sleep(loop):
                continue
            conditions = loop.exit_conditions()
            if not conditions:
                continue
            nonlocal_reads = set()
            for condition in conditions:
                closure = influence.closure(condition, loop.body)
                nonlocal_reads |= closure.nonlocal_accesses
            if not nonlocal_reads:
                continue
            result.polling_loops.append((function.name, loop.header.label))
            for access in nonlocal_reads:
                result.marks.append((access, "polling_control"))
                result.control_instructions.add(access)
                key = influence.nonlocal_info.location_key(
                    access.accessed_pointer()
                )
                if key is not None:
                    result.control_keys.add(key)
    return result


def _contains_sleep(loop):
    for instr in loop.instructions():
        if isinstance(instr, ins.Sleep):
            return True
    return False


def find_compiler_barrier_seeds(module, result=None, window=3, cache=None):
    """The non-local accesses adjacent to compiler barriers.

    ``window`` bounds how many instructions on each side of the barrier
    are inspected — the barrier expresses an ordering intent between its
    immediate neighbours.
    """
    from repro.analysis.nonlocal_ import NonLocalInfo

    result = result or ExtensionResult()
    for function in module.functions.values():
        info = (cache.nonlocal_info(function) if cache is not None
                else NonLocalInfo(function))
        for block in function.blocks:
            barrier_positions = [
                index
                for index, instr in enumerate(block.instructions)
                if isinstance(instr, ins.CompilerBarrier)
            ]
            for position in barrier_positions:
                low = max(0, position - window)
                high = min(len(block.instructions), position + window + 1)
                for instr in block.instructions[low:high]:
                    if not instr.is_memory_access():
                        continue
                    pointer = instr.accessed_pointer()
                    if not info.is_nonlocal_pointer(pointer):
                        continue
                    result.marks.append((instr, "barrier_seed"))
                    result.control_instructions.add(instr)
                    key = info.location_key(pointer)
                    if key is not None:
                        result.control_keys.add(key)
    return result
