"""Backward liveness over the IR CFG, driving the machine's env GC.

The model checker's per-frame environment used to keep every executed
instruction's result until the frame returned, so frame envs grew with
the number of *distinct instructions executed* — and every state
encode, canonical form and copy-on-write frame clone paid O(that).
Almost all of those values are dead: a typical spin-loop body keeps
two or three registers live at any point.

This module computes, per function:

- ``dies[id(instr)]`` — the env keys (operand value ids) whose last use
  is ``instr``: once it has executed, no path through the CFG can read
  them again, so the machine deletes them from the frame env.
- ``unused`` — ids of instructions whose result no instruction ever
  reads: the machine skips the env write entirely (stores, fences,
  asserts and fire-and-forget calls all fall in this bucket).

Soundness: liveness is a may-analysis over the union of CFG successors,
so a value kept live on *any* outgoing path is kept on all of them —
the env can only over-approximate the live set, never lose a value that
is still read (the fixpoint propagates uses around loop back-edges).
Dropping dead values coarsens the state partition of the explorer's
canonical form — states that differ only in unreadable registers now
dedup together — which is a bisimulation-preserving abstraction: a
dead value can never influence a future transition, an assertion, or
an output.  Every exploration backend consults the same tables, so
their verdicts stay identical.

``Ret`` instructions get an empty death list by construction: the whole
frame is discarded on return, and the popped frame may still be shared
copy-on-write with other states, so the machine must not write to it.
"""

from repro.ir import instructions as ins
from repro.ir.values import Argument


def _operand_ids(instr):
    """ids of the operands that live in a frame env (values, arguments)."""
    return [
        id(operand) for operand in instr.operands
        if isinstance(operand, (ins.Instruction, Argument))
    ]


def liveness_tables(function):
    """``(dies, unused)`` for one function (see module docstring)."""
    blocks = function.blocks
    if not blocks:
        return {}, set()

    # Block-level gen/kill: gen = values read before (re)definition,
    # kill = values defined in the block.
    gen = {}
    kill = {}
    for block in blocks:
        bgen, bkill = set(), set()
        for instr in block.instructions:
            for oid in _operand_ids(instr):
                if oid not in bkill:
                    bgen.add(oid)
            bkill.add(id(instr))
        key = id(block)
        gen[key] = bgen
        kill[key] = bkill

    # Classic backward fixpoint: live_out = union of successor live_in.
    live_in = {id(block): set() for block in blocks}
    live_out = {id(block): set() for block in blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            key = id(block)
            out = set()
            for successor in block.successors():
                out |= live_in[id(successor)]
            if out != live_out[key]:
                live_out[key] = out
                changed = True
            new_in = gen[key] | (out - kill[key])
            if new_in != live_in[key]:
                live_in[key] = new_in
                changed = True

    # Death points: one backward walk per block over the solved live-out.
    dies = {}
    for block in blocks:
        live = set(live_out[id(block)])
        for instr in reversed(block.instructions):
            iid = id(instr)
            live.discard(iid)
            dead_here = []
            for oid in _operand_ids(instr):
                if oid not in live:
                    dead_here.append(oid)
                    live.add(oid)
            # Returns discard the whole frame; never touch it post-pop.
            dies[iid] = () if isinstance(instr, ins.Ret) else tuple(dead_here)

    used = set()
    for instr in function.instructions():
        used.update(_operand_ids(instr))
    unused = {
        id(instr) for instr in function.instructions() if id(instr) not in used
    }
    return dies, unused
