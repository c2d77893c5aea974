"""Shared per-module analysis cache.

Almost every pipeline stage (annotations, spinloops, optimistic loops,
alias exploration, pruning) needs ``NonLocalInfo`` for the functions it
inspects, and before this cache each stage rebuilt it from scratch —
``AccessIndex._build`` alone recomputed it once per index build.  The
cache memoizes the per-function and module-wide analyses for one module
*snapshot*: build it after pre-inlining and thread it through the rest
of the pipeline's read-only detectors.  Owning functions of a forked
module (``Module.own``) replaces their objects, so no cache outlives an
ownership change: the pipeline owns once, after every detector has
read, and writes through the translated references.  It must never be
stored on the module itself (``Module.fork`` and ``Module.clone``
deep-copy metadata, and the cached analyses hold references into the
IR).
"""


class AnalysisCache:
    """Memoized analyses over one (already-transformed) module."""

    def __init__(self, module):
        self.module = module
        self._nonlocal = {}
        self._callgraph = None
        self._pointsto = None
        self._escape = None
        self._providers = {}
        self._interned = {}

    def intern(self, key):
        """Canonical instance of a location key.

        Location keys are tuples rebuilt independently by every stage;
        interning makes equal keys pointer-identical, so the heavy set
        operations downstream (seed-key unions, buddy-map lookups)
        compare by identity first instead of re-hashing tuple contents.
        """
        if key is None:
            return None
        canonical = self._interned.get(key)
        if canonical is None:
            self._interned[key] = key
            canonical = key
        return canonical

    def nonlocal_info(self, function):
        """Per-function :class:`NonLocalInfo`, computed at most once."""
        info = self._nonlocal.get(function.name)
        if info is None or info.function is not function:
            from repro.analysis.nonlocal_ import NonLocalInfo

            info = NonLocalInfo(function)
            self._nonlocal[function.name] = info
        return info

    def nonlocal_infos(self):
        """name -> NonLocalInfo for every function in the module."""
        return {
            name: self.nonlocal_info(function)
            for name, function in self.module.functions.items()
        }

    def scoped(self, names):
        """This cache narrowed to the functions ``names``.

        ``names`` must be closed under calls, as the functions that can
        run are.  The narrowed cache's module is a view that holds only
        those functions, and it shares this cache's per-function
        analyses.  Its call graph has their call edges and every spawn
        site of the whole module, so thread entries and thread counts
        read as they do on the whole module.
        """
        if len(names) == len(self.module.functions):
            return self
        from repro.analysis.callgraph import CallGraph
        from repro.ir.module import Module

        view = Module(self.module.name)
        view.globals = self.module.globals
        view.struct_types = self.module.struct_types
        view.functions = {
            name: function
            for name, function in self.module.functions.items()
            if name in names
        }
        scoped = AnalysisCache(view)
        scoped._nonlocal = self._nonlocal
        graph = scoped._callgraph = CallGraph(view)
        whole = self.callgraph()
        graph.spawn_sites = whole.spawn_sites
        graph.thread_entries = whole.thread_entries
        return scoped

    def callgraph(self):
        if self._callgraph is None:
            from repro.analysis.callgraph import CallGraph

            self._callgraph = CallGraph(self.module)
        return self._callgraph

    def pointsto(self):
        if self._pointsto is None:
            from repro.analysis.pointsto import PointsToAnalysis

            self._pointsto = PointsToAnalysis(self.module)
        return self._pointsto

    def thread_escape(self):
        if self._escape is None:
            from repro.analysis.escape import ThreadEscapeAnalysis

            self._escape = ThreadEscapeAnalysis(
                self.module, self.pointsto(), self.callgraph()
            )
        return self._escape

    def key_provider(self, mode="type_based"):
        """The :class:`LocationKeyProvider` for an alias mode."""
        provider = self._providers.get(mode)
        if provider is None:
            if mode == "type_based":
                from repro.analysis.nonlocal_ import TypeBasedKeyProvider

                provider = TypeBasedKeyProvider(self)
            elif mode == "points_to":
                from repro.analysis.pointsto import PointsToKeyProvider

                provider = PointsToKeyProvider(self)
            else:
                raise ValueError(f"unknown alias mode: {mode!r}")
            self._providers[mode] = provider
        return provider
