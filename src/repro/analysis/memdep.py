"""Scoped memory-dependence analysis for stack slots.

Implements the paper's "fine-grained memory dependency analysis, i.e.,
scoped within a few specified basic blocks, a loop or at most within a
function" (§3.5).  Queries ask which in-region stores to a local alloca
may reach a given load; results are cached per (alloca, region), also as
the paper describes.
"""

from repro.analysis.cfg import predecessors
from repro.analysis.nonlocal_ import pointer_root
from repro.ir import instructions as ins


class MemoryDependence:
    """Reaching-store queries for one function."""

    def __init__(self, function):
        self.function = function
        self._preds = predecessors(function)
        self._cache = {}

    def reaching_stores(self, load, region):
        """In-region stores to the load's alloca that may reach ``load``.

        ``region`` is a set of blocks (e.g. a loop body).  Stores outside
        the region are deliberately excluded: spinloop analysis only asks
        whether *in-loop* stores influence the exit conditions.
        """
        alloca = pointer_root(load.pointer)
        if not isinstance(alloca, ins.Alloca):
            return set()
        region_key = frozenset(region)
        cache_key = (alloca, region_key)
        block_out = self._cache.get(cache_key)
        if block_out is None:
            block_out = self._dataflow(alloca, region_key)
            self._cache[cache_key] = block_out

        block = load.block
        if block not in region_key:
            return set()
        live = set()
        for pred in self._preds[block]:
            if pred in region_key:
                live |= block_out[pred]
        for instr in block.instructions:
            if instr is load:
                return live
            live = self._transfer(instr, alloca, live)
        return live

    def _dataflow(self, alloca, region):
        """Per-block OUT sets of may-reaching stores to ``alloca``."""
        block_out = {block: set() for block in region}
        changed = True
        while changed:
            changed = False
            for block in region:
                live = set()
                for pred in self._preds[block]:
                    if pred in region:
                        live |= block_out[pred]
                for instr in block.instructions:
                    live = self._transfer(instr, alloca, live)
                if live != block_out[block]:
                    block_out[block] = live
                    changed = True
        return block_out

    @staticmethod
    def _transfer(instr, alloca, live):
        if isinstance(instr, ins.Store) and pointer_root(instr.pointer) is alloca:
            if instr.pointer is alloca:
                # Exact overwrite of the slot: kills earlier stores.
                return {instr}
            # Partial (gep-based) store: generates without killing.
            return live | {instr}
        return live
