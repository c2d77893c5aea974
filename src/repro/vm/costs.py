"""Cycle cost models calibrated to per-architecture barrier measurements.

The default (Armv8) ratios follow "No Barrier in the Road: A
Comprehensive Study and Optimization of ARM Barriers" (Liu, Zang, Chen —
PPoPP 2020), the paper AtoMig cites for its implicit-over-explicit
design decision:

- one-way (implicit) barriers — LDAR / STLR — cost a small multiple of
  plain accesses;
- full fences — DMB ISH — are an order of magnitude more expensive;
- atomic RMWs sit in between; cross-CPU cache-line transfer dominates
  contended accesses regardless of their atomicity.

Absolute values are abstract cycles; only ratios matter for the
normalized slowdowns reported by the benchmark harness.

:data:`COST_MODELS` names the per-architecture weight tables the fence
synthesizer and Table 10 state their results against: ``armv8`` (the
defaults above) and ``power``, a Power-like machine where acquire and
release map to ``lwsync`` (expensive on *both* sides, unlike Armv8's
nearly-free LDAR) and a full fence is ``hwsync`` — so the cheapest
repair differs per architecture, which is the point of carrying the
architecture name through the reports.
"""

from dataclasses import dataclass

from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder


@dataclass
class CostModel:
    """Per-operation abstract cycle costs."""

    #: Architecture the weights are calibrated for (reporting only;
    #: never part of cost arithmetic).
    name: str = "armv8"
    alu: int = 1
    branch: int = 1
    plain_load: int = 2
    plain_store: int = 2
    #: Accesses to provably thread-private stack slots: the paper's
    #: baselines are -O2 binaries where these live in registers.
    private_access: int = 1
    #: LDAR-class implicit barrier: nearly free when uncontended
    #: (Liu et al. measure LDAR ~ LDR on Kunpeng 920).
    acquire_load: int = 2
    #: STLR-class implicit barrier: drains prior stores.
    release_store: int = 20
    #: Relaxed atomics translate to plain LDR/STR on Armv8.
    relaxed_load: int = 2
    relaxed_store: int = 2
    #: DMB ISH explicit fence.
    fence: int = 40
    rmw: int = 10
    #: SC RMWs (CASAL-class) cost barely more than relaxed CAS: the
    #: exclusive-access machinery dominates either way.
    rmw_sc: int = 11
    call: int = 2
    ret: int = 1
    malloc: int = 24
    free: int = 6
    thread_op: int = 200
    #: usleep / sched_yield: the syscall + reschedule overhead.
    sleep_op: int = 120
    #: Extra cycles when touching a line last written by another thread.
    contention: int = 18
    #: Contended *atomic* accesses additionally serialize on the
    #: coherence response (acquire/release cannot complete until the
    #: line settles), so they pay a higher transfer penalty.
    contention_atomic: int = 70
    #: Slots per modeled cache line (coherence granularity).
    line_slots: int = 16

    def load_cost(self, order):
        if order is MemoryOrder.NOT_ATOMIC:
            return self.plain_load
        if order.has_acquire:
            return self.acquire_load
        return self.relaxed_load

    def store_cost(self, order):
        if order is MemoryOrder.NOT_ATOMIC:
            return self.plain_store
        if order.has_release:
            return self.release_store
        return self.relaxed_store

    def rmw_cost(self, order):
        return self.rmw_sc if order is MemoryOrder.SEQ_CST else self.rmw

    def instruction_cost(self, instr):
        """Base cost of ``instr`` (contention handled by the VM)."""
        if isinstance(instr, ins.Load):
            return self.load_cost(instr.order)
        if isinstance(instr, ins.Store):
            return self.store_cost(instr.order)
        if isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
            return self.rmw_cost(instr.order)
        if isinstance(instr, ins.Fence):
            return self.fence
        if isinstance(instr, (ins.Br, ins.CondBr)):
            return self.branch
        if isinstance(instr, ins.Call):
            return self.call
        if isinstance(instr, ins.Ret):
            return self.ret
        if isinstance(instr, ins.Malloc):
            return self.malloc
        if isinstance(instr, ins.Free):
            return self.free
        if isinstance(instr, (ins.ThreadCreate, ins.ThreadJoin)):
            return self.thread_op
        if isinstance(instr, ins.Sleep):
            return self.sleep_op
        if isinstance(instr, ins.CompilerBarrier):
            return 0  # compiles to nothing
        return self.alu

    def access_cost(self, instr, order=None):
        """Cost of a memory access / fence *as if* it carried ``order``.

        ``order=None`` uses the instruction's own order.  This is the
        costing path the barrier optimizer uses to rank weakening
        candidates: the savings of a candidate is
        ``access_cost(instr) - access_cost(instr, weaker_order)``.
        """
        if order is None:
            order = instr.order
        if isinstance(instr, ins.Load):
            return self.load_cost(order)
        if isinstance(instr, ins.Store):
            return self.store_cost(order)
        if isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)):
            return self.rmw_cost(order)
        if isinstance(instr, ins.Fence):
            return self.fence
        raise TypeError(f"not a memory access or fence: {instr!r}")


#: Named per-architecture weight tables.  ``armv8`` is the dataclass
#: default (LDAR nearly free, STLR moderate, DMB expensive).  ``power``
#: models an lwsync/hwsync machine: acquire *loads* are as expensive as
#: release stores (both lower to lwsync-class barriers), full fences
#: (hwsync) cost twice Armv8's DMB, and SC RMWs pay the surrounding
#: sync pair.  Ratios loosely follow the lwsync/hwsync measurements in
#: the literature; as everywhere in this module only ratios matter.
COST_MODELS = {
    "armv8": CostModel(),
    "power": CostModel(
        name="power",
        acquire_load=14,
        release_store=14,
        fence=80,
        rmw=16,
        rmw_sc=44,
    ),
}


def cost_model_for(arch):
    """The named :class:`CostModel`, or ``arch`` itself when it already
    is one (so every ``arch=`` knob accepts both spellings)."""
    if isinstance(arch, CostModel):
        return arch
    if arch is None:
        return COST_MODELS["armv8"]
    try:
        return COST_MODELS[arch]
    except KeyError:
        raise ValueError(
            f"unknown architecture {arch!r} "
            f"(known: {', '.join(sorted(COST_MODELS))})"
        ) from None


def is_barrier(instr):
    """True for instructions counted as barriers (explicit or implicit).

    Stand-alone fences are explicit barriers; atomic loads, stores and
    RMWs are implicit barriers (LDAR/STLR/CASAL-class on Arm).  The
    one definition: :func:`repro.core.report.count_barriers` and the
    cost estimates both classify with it.
    """
    if isinstance(instr, ins.Fence):
        return True
    if isinstance(instr, (ins.Load, ins.Store)):
        return instr.order.is_atomic
    return isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW))


@dataclass
class CostEstimate:
    """Module-level abstract cycle estimate (one costing path for the
    optimizer, Table 9 and the benchmark harness)."""

    #: Weighted cost of every instruction in the module.
    total: int = 0
    #: Weighted cost of barrier instructions only (fences + atomics).
    barriers: int = 0
    #: Number of barrier instructions (static count, unweighted).
    barrier_sites: int = 0
    #: Total weight applied to barrier sites (== barrier_sites when
    #: static, sum of dynamic execution counts otherwise).
    barrier_weight: int = 0
    #: True when dynamic execution counts weighted the estimate.
    dynamic: bool = False

    def to_dict(self):
        return {
            "total": self.total,
            "barriers": self.barriers,
            "barrier_sites": self.barrier_sites,
            "barrier_weight": self.barrier_weight,
            "dynamic": self.dynamic,
        }


def estimate_cost(module, cost_model=None, counts=None):
    """Estimate the abstract cycle cost of ``module``.

    Sums per-instruction costs from ``cost_model`` (default
    :class:`CostModel`), weighted by dynamic execution counts when
    ``counts`` is given — a mapping of ``(function, block_label,
    index_in_block)`` to executed count, as recorded in
    :attr:`repro.vm.stats.RunStats.instr_counts` by
    ``run_module(..., record_counts=True)``.  Without ``counts`` every
    instruction weighs 1 (static estimate).  Returns a
    :class:`CostEstimate` whose ``barriers`` field is the number
    Table 9 reports: the modeled cost of explicit + implicit barriers.
    """
    model = cost_model or CostModel()
    estimate = CostEstimate(dynamic=counts is not None)
    for function_name, function in module.functions.items():
        for block in function.blocks:
            for index, instr in enumerate(block.instructions):
                if counts is None:
                    weight = 1
                else:
                    weight = counts.get(
                        (function_name, block.label, index), 0
                    )
                cost = model.instruction_cost(instr) * weight
                estimate.total += cost
                if is_barrier(instr):
                    estimate.barriers += cost
                    estimate.barrier_sites += 1
                    estimate.barrier_weight += weight
    return estimate
