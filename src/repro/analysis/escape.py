"""Thread-escape analysis over the points-to graph.

A memory location is *thread-shared* only if another thread can obtain
its address: it is a global, it is (reachable from) a ``thread_create``
argument, or a pointer to it is stored inside memory that is itself
thread-shared.  Everything else — stack and heap objects that never
flow into that closure — is *thread-local*, and accesses to it can
never race, no matter what type-based buddy matching says.

This is the soundness argument behind ``alias_mode="points_to"``
pruning (mirroring ``prune_protected``): a sticky buddy whose every
aliased abstract object is thread-local is removed from the atomize
set.  The analysis is conservative in exactly the right direction —
any pointer the points-to solver lost track of has an empty points-to
set and is treated as *shared*.
"""

from repro.ir import instructions as ins


class ThreadEscapeAnalysis:
    """Classify abstract objects as thread-shared or thread-local."""

    def __init__(self, module, pointsto, callgraph=None):
        self.module = module
        self.pointsto = pointsto
        self.callgraph = callgraph
        self.shared = self._compute_shared()

    def _spawn_arguments(self):
        if self.callgraph is not None:
            for site in self.callgraph.spawn_sites:
                if site.instr.arg is not None:
                    yield site.instr.arg
        else:
            for instr in self.module.instructions():
                if isinstance(instr, ins.ThreadCreate) and instr.arg is not None:
                    yield instr.arg

    def _compute_shared(self):
        """Globals, spawn arguments, and everything reachable from them.

        Reachability is over object *contents*: if a shared object holds
        a pointer to another object, that object is shared too — another
        thread can load the pointer and dereference it.
        """
        shared = set()
        worklist = []

        def mark(obj):
            if obj not in shared:
                shared.add(obj)
                worklist.append(obj)

        for obj in self.pointsto.objects:
            if obj.kind == "global":
                mark(obj)
        for arg in self._spawn_arguments():
            for obj in self.pointsto.points_to(arg):
                mark(obj)

        while worklist:
            obj = worklist.pop()
            for reachable in self.pointsto.contents(obj):
                mark(reachable)
        return shared

    def is_shared(self, obj):
        return obj in self.shared

    def is_thread_local(self, obj):
        return obj not in self.shared

    def pointer_is_thread_local(self, pointer):
        """True when *every* object the pointer may target is local.

        An empty points-to set means the solver does not know what the
        pointer targets, so it must be assumed shared.
        """
        targets = self.pointsto.points_to(pointer)
        return bool(targets) and all(
            obj not in self.shared for obj in targets
        )
