"""Weakening-candidate enumeration and mutation primitives.

A *candidate* is one site the optimizer may relax: an SC atomic access
whose order can step down a ladder of weaker orders, or a
porter-inserted explicit fence that can be deleted outright.  Each
candidate walks its ladder one rung per optimizer round; a rung that
the oracle rejects advances to the next *alternative* at the same
strength (RMWs may drop either half of ACQ_REL) and freezes the
candidate when none is left — every remaining rung is strictly weaker
than a rejected one, so it would be rejected too.

Ladders only contain orders the IR verifier accepts (no release loads,
no acquire stores), so an optimized module always re-verifies.
"""

from dataclasses import dataclass, field

from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder

#: Provenance marks identifying accesses a porter strengthened.  The
#: optimizer only relaxes these by default: an access that is SC in the
#: *source* (without any porting mark) is presumed intentional.
PORTER_ACCESS_MARKS = frozenset({
    "annotation", "spin_control", "optimistic_control", "sticky",
    "naive", "polling_control", "barrier_seed", "volatile", "repair",
})

#: Marks identifying porter-inserted (not source-level) fences; only
#: these are deletion candidates — a fence the programmer wrote is
#: kept even when the oracle would tolerate its removal.
PORTER_FENCE_MARKS = frozenset({
    "optimistic", "explicit_ablation", "lasagne", "repair",
})

#: Sentinel "order" for fence-deletion rungs.
DELETE = "delete"

#: Rung ladders per access kind: a tuple of levels, each level a tuple
#: of alternatives tried left to right.  Levels are ordered strongest
#: to weakest; every order in level N+1 is weaker than (or incomparable
#: only to a *sibling* of) every order in level N, which is what makes
#: freeze-on-exhausted-alternatives sound.
LOAD_LADDER = (
    (MemoryOrder.ACQUIRE,),
    (MemoryOrder.RELAXED,),
)
STORE_LADDER = (
    (MemoryOrder.RELEASE,),
    (MemoryOrder.RELAXED,),
)
RMW_LADDER = (
    (MemoryOrder.ACQ_REL,),
    # Either half of ACQ_REL may be droppable on its own (a lock
    # acquire keeps ACQUIRE, a lock release keeps RELEASE).
    (MemoryOrder.ACQUIRE, MemoryOrder.RELEASE),
    (MemoryOrder.RELAXED,),
)
FENCE_LADDER = ((DELETE,),)


@dataclass
class Candidate:
    """One weakenable site and its position on the ladder."""

    instr: object
    #: Stable identity recorded at enumeration time, before any fence
    #: deletion shifts block indices: (function, block_label, index).
    position: tuple
    kind: str  # "load" | "store" | "rmw" | "fence"
    ladder: tuple
    #: Dynamic execution count weight (1 = static).
    weight: int = 1
    #: Order the access carried when enumerated.
    original_order: object = MemoryOrder.SEQ_CST
    #: Order currently committed (== original until a rung is accepted).
    committed: object = MemoryOrder.SEQ_CST
    level: int = 0
    alternative: int = 0
    frozen: bool = False
    #: Accepted rungs, strongest first (the optimize_tour trail).
    history: list = field(default_factory=list)
    #: The most recent proposal the oracle rejected (report fodder).
    last_rejected: object = None

    def proposal(self):
        """The next order to try, or None when the ladder is done."""
        if self.frozen or self.level >= len(self.ladder):
            return None
        return self.ladder[self.level][self.alternative]

    def accept(self):
        """Commit the current proposal and move down a level."""
        order = self.proposal()
        self.history.append(order)
        self.committed = order
        self.level += 1
        self.alternative = 0

    def reject(self):
        """Try the next alternative at this strength, else freeze."""
        self.last_rejected = self.proposal()
        self.alternative += 1
        if self.alternative >= len(self.ladder[self.level]):
            self.frozen = True

    def savings(self, cost_model):
        """Estimated cycles saved by the current proposal."""
        order = self.proposal()
        if order is None:
            return 0
        before = cost_model.access_cost(self.instr, self.committed)
        if order is DELETE:
            after = 0
        else:
            after = cost_model.access_cost(self.instr, order)
        return (before - after) * self.weight

    def describe(self):
        function, block, index = self.position
        final = "deleted" if self.committed is DELETE else (
            self.committed.name.lower()
        )
        return (
            f"{function}:{block}[{index}] {self.kind} "
            f"{self.original_order.name.lower()} -> {final}"
        )


def enumerate_candidates(module, cost_model, counts=None,
                         require_marks=True):
    """List every weakenable site of ``module``.

    Candidates are SC atomic accesses (optionally restricted to those
    carrying porter provenance marks) and porter-inserted fences.
    ``counts`` (position -> dynamic execution count) weights the
    savings estimates; sites that never executed weigh 0 but are still
    candidates — weakening them is free and harmless.  The result is
    sorted by descending estimated first-rung savings, then position,
    so "weaken the most expensive barriers first" is the enumeration
    order itself.
    """
    candidates = []
    for function_name, function in module.functions.items():
        for block in function.blocks:
            for index, instr in enumerate(block.instructions):
                candidate = _classify(
                    instr, (function_name, block.label, index),
                    require_marks,
                )
                if candidate is None:
                    continue
                if counts is not None:
                    candidate.weight = counts.get(candidate.position, 0)
                candidates.append(candidate)
    candidates.sort(
        key=lambda c: (-c.savings(cost_model), c.position)
    )
    return candidates


def _classify(instr, position, require_marks):
    if isinstance(instr, ins.Fence):
        if not instr.marks & PORTER_FENCE_MARKS:
            return None
        return Candidate(
            instr=instr, position=position, kind="fence",
            ladder=FENCE_LADDER, original_order=instr.order,
            committed=instr.order,
        )
    if isinstance(instr, ins.Load):
        kind, ladder = "load", LOAD_LADDER
    elif isinstance(instr, ins.Store):
        kind, ladder = "store", STORE_LADDER
    elif isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
        kind, ladder = "rmw", RMW_LADDER
    else:
        return None
    if instr.order is not MemoryOrder.SEQ_CST:
        return None
    if require_marks and not instr.marks & PORTER_ACCESS_MARKS:
        return None
    return Candidate(
        instr=instr, position=position, kind=kind, ladder=ladder,
        original_order=instr.order, committed=instr.order,
    )


def apply_proposal(candidate):
    """Mutate the module per the candidate's proposal; return an undo.

    Undos must be invoked in reverse application order (LIFO): a fence
    deletion records its index at apply time, which stays valid only
    while later mutations are unwound first.  Between two checks of one
    :class:`repro.opt.oracle.Oracle`, write through ``Oracle.apply``,
    which wraps this and keeps the session's checker context current.
    """
    order = candidate.proposal()
    instr = candidate.instr
    if order is DELETE:
        block = instr.block
        index = block.instructions.index(instr)
        del block.instructions[index]

        def undo():
            block.instructions.insert(index, instr)
    else:
        previous = instr.order
        instr.order = order

        def undo():
            instr.order = previous
    return undo
