"""Alias exploration: sticky buddies (§3.4).

For every marked access we find all other accesses in the module to the
same memory location and mark them too ("once atomic, always atomic").
Globals match by name; pointer-based struct accesses match by type and
field offset via the ``gep`` signature — the scalable, type-based scheme
the paper chooses over inter-procedural alias analysis.

``alias_mode="points_to"`` swaps in a :class:`PointsToKeyProvider`: the
type-based keys stay authoritative where they exist, and pointers that
are keyless under the type scheme (plain ``int*`` arguments, loaded
pointers) are keyed by their points-to equivalence class instead — so
a store through a pointer parameter that provably targets ``@flag``
joins ``@flag``'s buddy group rather than silently dropping out of
propagation.

The module-wide access map is built once; lookups are constant time, and
already-stickied accesses are skipped, exactly as §3.5 describes.
"""

from repro.analysis.cache import AnalysisCache


class AccessIndex:
    """Module-wide map from location key to memory-access instructions."""

    def __init__(self, module, cache=None, mode="type_based"):
        self.module = module
        self.cache = cache if cache is not None else AnalysisCache(module)
        self.mode = mode
        self.provider = self.cache.key_provider(mode)
        self.by_key = {}
        #: instr -> (key, origin) for every keyed access (provenance).
        self.key_of = {}
        #: instr -> (function, block-label, ordinal) for every memory
        #: access — a stable identity for deterministic provenance
        #: ordering (``repr(instr)`` is id()-based for unnamed values).
        self.position_of = {}
        self._build()

    def _build(self):
        intern = self.cache.intern
        for function in self.module.functions.values():
            for block in function.blocks:
                for ordinal, instr in enumerate(block.instructions):
                    if not instr.is_memory_access():
                        continue
                    self.position_of[instr] = (
                        function.name, block.label, ordinal
                    )
                    key, origin = self.provider.key_with_origin(
                        function, instr.accessed_pointer()
                    )
                    if key is not None:
                        key = intern(key)
                        self.by_key.setdefault(key, []).append(instr)
                        self.key_of[instr] = (key, origin)

    def accesses_for(self, key):
        return self.by_key.get(key, ())


def explore_aliases(module, seed_keys, index=None, *, cache=None,
                    mode="type_based", seed_instructions=()):
    """Mark every access matching ``seed_keys`` as a sticky buddy.

    ``seed_instructions`` are already-marked accesses whose own keys
    should join the seed set — under the type-based provider a keyless
    marked access contributes nothing, but the points-to provider can
    often key it, pulling its true aliases into the buddy closure.

    Returns ``(marked_instructions, index)``; the index is reusable
    across calls on the same module.  When marking had to own shared
    functions of a forked module, the index is rebuilt over the copies.
    """
    marked, index = find_aliases(
        module, seed_keys, index, cache=cache, mode=mode,
        seed_instructions=seed_instructions,
    )
    mapping = module.own_holders(marked)
    if mapping:
        marked = {mapping.get(instr, instr) for instr in marked}
        index = AccessIndex(module, mode=mode)
    for instr in marked:
        instr.marks.add("sticky")
    return marked, index


def find_aliases(module, seed_keys, index=None, *, cache=None,
                 mode="type_based", seed_instructions=()):
    """:func:`explore_aliases`'s buddies, unmarked: ``module`` is only
    read.  Returns ``(buddies, index)``."""
    index = index or AccessIndex(module, cache=cache, mode=mode)
    keys = set(seed_keys)
    for instr in seed_instructions:
        keyed = index.key_of.get(instr)
        if keyed is not None:
            keys.add(keyed[0])
    marked = set()
    for key in keys:
        for instr in index.accesses_for(key):
            if "sticky" in instr.marks:
                continue  # once stickied, always stickied
            marked.add(instr)
    return marked, index
