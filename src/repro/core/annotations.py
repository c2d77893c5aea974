"""Explicit-annotation analysis (§3.2).

Three annotation kinds hint at shared-memory synchronization:

1. C11 atomics — already atomic, but TSO-era code habitually uses
   insufficient memory orders, so every atomic order is raised to SC;
2. ``volatile`` — suppresses compiler optimizations but gives no
   hardware ordering; all volatile accesses become SC atomics;
3. x86 inline assembly — already mapped to portable fences by the
   frontend pass (:mod:`repro.lower.asm_map`), so it arrives here as
   marked ``fence`` instructions.

The pass returns the set of location keys it touched so alias
exploration can propagate "once atomic, always atomic" to their buddies.
:func:`find_annotations` only reads the module; the porting pipeline
applies its result after owning the functions it writes
(:meth:`repro.ir.module.Module.own`).
"""

from repro.analysis.nonlocal_ import NonLocalInfo
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.ir.values import GlobalVar


class AnnotationResult:
    """Outcome of the explicit-annotation pass."""

    def __init__(self):
        #: Memory-access instructions strengthened or confirmed atomic.
        self.marked_instructions = set()
        #: Location keys of those accesses (seed for alias exploration).
        self.location_keys = set()
        #: Number of accesses whose order was changed.
        self.conversions = 0
        #: Marked access -> its sub-mark (``annotation_atomic`` or
        #: ``annotation_volatile``).
        self.kinds = {}

    def atomic_instructions(self):
        """The source-level atomics among the marked accesses."""
        return {instr for instr, kind in self.kinds.items()
                if kind == "annotation_atomic"}

    def apply(self, mapping):
        """Raise every marked access to SC and mark it.

        ``mapping`` is :meth:`Module.own`'s map for the functions that
        hold the accesses.
        """
        self.kinds = {mapping.get(instr, instr): kind
                      for instr, kind in self.kinds.items()}
        self.marked_instructions = set(self.kinds)
        for instr, kind in self.kinds.items():
            instr.order = MemoryOrder.SEQ_CST
            # ``annotation`` is the public provenance mark; the ``kind``
            # sub-mark distinguishes volatile promotions (prunable when
            # lock-protected) from source-level atomics (never
            # prunable).
            instr.marks.add("annotation")
            instr.marks.add(kind)


def analyze_annotations(module, blacklist=(), cache=None):
    """Run the explicit-annotation pass on ``module`` in place."""
    result = find_annotations(module, blacklist, cache)
    result.apply(module.own_holders(result.marked_instructions))
    return result


def find_annotations(module, blacklist=(), cache=None):
    """The explicit-annotation pass's findings; ``module`` is only read."""
    blacklist = set(blacklist)
    result = AnnotationResult()
    for function in module.functions.values():
        info = (cache.nonlocal_info(function) if cache is not None
                else NonLocalInfo(function))
        _analyze_function(function, info, blacklist, result)
    result.marked_instructions = set(result.kinds)
    if cache is not None:
        result.location_keys = {
            cache.intern(key) for key in result.location_keys
        }
    return result


def _analyze_function(function, info, blacklist, result):
    for instr in function.instructions():
        if isinstance(instr, (ins.Load, ins.Store)):
            if instr.order.is_atomic:
                _mark(instr, info, result, "annotation_atomic")
            elif instr.volatile and not _blacklisted(instr, blacklist):
                _mark(instr, info, result, "annotation_volatile")
        elif isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
            # RMW operations are atomic by construction; raise to SC.
            _mark(instr, info, result, "annotation_atomic")


def _blacklisted(instr, blacklist):
    """True for accesses to blacklisted volatiles (devices, signals)."""
    if not blacklist:
        return False
    pointer = instr.accessed_pointer()
    from repro.analysis.nonlocal_ import pointer_root

    root = pointer_root(pointer)
    return isinstance(root, GlobalVar) and root.name in blacklist


def _mark(instr, info, result, kind):
    if instr.order is not MemoryOrder.SEQ_CST:
        result.conversions += 1
    result.kinds[instr] = kind
    key = info.location_key(instr.accessed_pointer())
    if key is not None:
        result.location_keys.add(key)
