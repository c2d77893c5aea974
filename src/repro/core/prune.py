"""Lock-protection pruning of over-atomization (``prune_protected``).

AtoMig deliberately over-approximates (§3.5): volatile promotion and
sticky-buddy alias exploration mark every type-compatible access, so
consistently lock-protected plain accesses get promoted to SC atomics —
pure overhead.  By the reduction argument for well-locked programs,
accesses that hold a common lock at every concurrent occurrence are
race-free under *any* memory model; this stage exempts exactly those
from atomization.

Never pruned, regardless of what the linter says:

- lock-word accesses themselves (class ``lock``);
- spin and optimistic controls (the WMM repair depends on them);
- source-level C11 atomics (``annotation_atomic``): the programmer
  asked for atomicity, only its *order* was AtoMig's doing;
- RMW instructions (atomic by construction, nothing to demote);
- accesses proven protected only by the name-pair heuristic.
"""

from repro.analysis.races import classify_module
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder

#: Provenance marks that veto pruning.
_VETO_MARKS = frozenset(
    ("spin_control", "optimistic_control", "annotation_atomic")
)


def find_protected_accesses(module, candidates, vetoed, cache):
    """The lock-protected ``candidates`` to leave plain.

    ``candidates`` is the set of marked instructions about to be
    atomized; ``vetoed`` holds accesses that carry a veto mark once the
    detectors' marks are applied.  The functions are only read
    (:func:`demote` applies the result), and the race report used for
    the decision is dropped: its findings reference instructions, so
    keeping it in the port's metadata would make every fork and clone
    of the port deep-copy IR.
    """
    report = classify_module(module, cache=cache)
    protected = report.protected_instructions(structural_only=True)
    return {
        instr for instr in candidates
        if instr in protected and _prunable(instr, vetoed)
    }


def prune_thread_local_accesses(module, candidates, cache):
    """Demote ``candidates`` whose memory is provably thread-local.

    The points-to counterpart of :func:`find_protected_accesses`: a
    sticky buddy acquired through type-based matching (same struct
    field, same global array) may target an object no other thread can
    ever reach — a stack snapshot, a private accumulator.  The
    thread-escape analysis proves it, so the SC promotion is dropped.
    The same veto list applies: spin/optimistic controls and
    source-level atomics are never demoted, and RMWs have nothing to
    demote.
    """
    pruned = find_thread_local_accesses(candidates, cache)
    return demote(pruned, "pruned_thread_local",
                  module.own_holders(pruned))


def find_thread_local_accesses(candidates, cache, vetoed=frozenset()):
    """The ``candidates`` :func:`prune_thread_local_accesses` demotes."""
    escape = cache.thread_escape()
    return {
        instr for instr in candidates
        if _prunable(instr, vetoed)
        and escape.pointer_is_thread_local(instr.accessed_pointer())
    }


def demote(instructions, mark, mapping):
    """Reset ``instructions`` to plain accesses marked ``mark``.

    ``mapping`` is :meth:`Module.own`'s map for the functions that hold
    them.  Returns the demoted (translated) accesses.
    """
    demoted = {mapping.get(instr, instr) for instr in instructions}
    for instr in demoted:
        instr.order = MemoryOrder.NOT_ATOMIC
        instr.marks.add(mark)
    return demoted


def _prunable(instr, vetoed):
    return (isinstance(instr, (ins.Load, ins.Store))
            and not instr.marks & _VETO_MARKS and instr not in vetoed)
