"""Module-wide Andersen-style points-to analysis.

AtoMig deliberately skips real alias analysis (§3.4-3.5) and matches
accesses by type and field offset.  That over-approximates in one
direction (every type-compatible access is a buddy, even of provably
thread-local objects) and under-approximates in another (a plain
``int *`` parameter has no location key at all, so buddy propagation
stops at non-inlined call boundaries).  This module supplies the
missing precision: a flow-insensitive, field-insensitive, inclusion
-based ("Andersen") points-to analysis over the whole IR module.

Abstract objects are allocation sites — one per global, per ``alloca``
and per ``malloc`` — and every pointer-valued IR value becomes a set
variable.  Constraints:

- address-of: ``pts(alloca) ∋ obj``, ``pts(@g) ∋ obj(g)``,
  ``pts(malloc) ∋ obj(site)``;
- copy: ``gep``/``cast`` results include their base's set (field
  *insensitive*: an object is one blob);
- load: ``pts(dst) ⊇ contents(o)`` for every ``o ∈ pts(ptr)``;
- store: ``contents(o) ⊇ pts(src)`` for every ``o ∈ pts(ptr)`` (also
  the ``desired``/``value`` operands of ``cmpxchg``/``atomicrmw``);
- call/spawn: actual arguments flow into formal parameters, returned
  values flow into call results (context-insensitive, so recursion —
  which the pre-inliner skips — is handled by the fixpoint).

The :class:`PointsToKeyProvider` turns the solution into *location
keys* for alias exploration: type-based keys where they exist, and
points-to equivalence classes for pointers that previously had ``None``
keys (pointer arguments, loaded pointers).  A keyless pointer whose
points-to set is exactly one global resolves to that global's own key,
so sticky buddies finally propagate through ``int *`` parameters.
"""

from repro.analysis.nonlocal_ import LocationKeyProvider
from repro.ir import instructions as ins
from repro.ir.values import Constant


class AbstractObject:
    """One allocation site: a global, an ``alloca`` or a ``malloc``."""

    __slots__ = ("kind", "label", "node", "function_name")

    def __init__(self, kind, label, node, function_name=None):
        #: ``"global"``, ``"stack"`` or ``"heap"``.
        self.kind = kind
        #: Stable printable identity (used in keys and reports).
        self.label = label
        #: The defining IR node (GlobalVar / Alloca / Malloc).
        self.node = node
        self.function_name = function_name

    def __repr__(self):
        return f"<obj {self.label}>"


class PointsToAnalysis:
    """Inclusion-constraint points-to solution for one module.

    The solver collapses copy cycles into single representatives
    (Tarjan SCC + union-find) and propagates only the *difference* —
    objects a successor has not seen yet — along each edge.  Copy
    cycles are common in real constraint graphs (recursive calls bind
    actuals and formals in both directions, pointers round-trip
    through globals and load/store pairs), and a plain full-set
    worklist re-propagates whole sets around them until they
    stabilize.  Inclusion constraints have a unique least fixpoint, so
    both reach the same ``points_to``/``class_key`` results;
    ``tests/analysis/test_pointsto_solver.py`` keeps the full-set
    worklist as the reference and checks the two agree.
    """

    def __init__(self, module):
        self.module = module
        #: value -> set(AbstractObject); also AbstractObject -> set(...)
        #: for the *contents* of an object (what pointers stored into it
        #: may reference).
        self._pts = {}
        self._copy_edges = {}
        self._load_edges = {}
        self._store_edges = {}
        self.objects = []
        self._object_of = {}
        #: union-find parent map for collapsed copy cycles (a node
        #: absent from it represents itself).
        self._parent = {}
        #: solver work counters (for profiling / tests).
        self.stats = {"sccs_collapsed": 0, "nodes_merged": 0, "rounds": 0}
        self._generate()
        self._solve()

    # -- public queries ----------------------------------------------------

    def points_to(self, value):
        """Abstract objects ``value`` may point to (frozenset)."""
        return frozenset(self._pts.get(self._find(value), ()))

    def contents(self, obj):
        """Objects that pointers *stored inside* ``obj`` may reference."""
        return frozenset(self._pts.get(self._find(obj), ()))

    def object_for(self, node):
        """The AbstractObject of a GlobalVar / Alloca / Malloc node."""
        return self._object_of.get(node)

    def class_key(self, pointer):
        """Location key derived from the points-to equivalence class.

        ``None`` when the set is empty (a pointer the analysis never
        saw take an address — e.g. one computed from an integer).  A
        singleton set holding a global resolves to that global's own
        ``("global", name)`` key, bridging keyless pointer parameters
        into the existing buddy groups; anything else is keyed by the
        sorted object labels.
        """
        targets = self.points_to(pointer)
        if not targets:
            return None
        if len(targets) == 1:
            only = next(iter(targets))
            if only.kind == "global":
                return ("global", only.node.name)
        return ("pts",) + tuple(sorted(obj.label for obj in targets))

    # -- constraint generation --------------------------------------------

    def _new_object(self, kind, label, node, function_name=None):
        obj = AbstractObject(kind, label, node, function_name)
        self.objects.append(obj)
        self._object_of[node] = obj
        return obj

    def _generate(self):
        for gvar in self.module.globals.values():
            obj = self._new_object("global", f"@{gvar.name}", gvar)
            self._seed(gvar, obj)

        for function in self.module.functions.values():
            stack_seq = 0
            heap_seq = 0
            for instr in function.instructions():
                if isinstance(instr, ins.Alloca):
                    name = instr.name or f"#{stack_seq}"
                    stack_seq += 1
                    obj = self._new_object(
                        "stack", f"{function.name}:%{name}", instr,
                        function.name,
                    )
                    self._seed(instr, obj)
                elif isinstance(instr, ins.Malloc):
                    obj = self._new_object(
                        "heap", f"{function.name}:malloc#{heap_seq}", instr,
                        function.name,
                    )
                    heap_seq += 1
                    self._seed(instr, obj)
                elif isinstance(instr, ins.Gep):
                    self._copy(instr.base, instr)
                elif isinstance(instr, ins.Cast):
                    self._copy(instr.value, instr)
                elif isinstance(instr, ins.BinOp):
                    # Pointer arithmetic folded into a binop (addresses
                    # cast to int and back): stay sound by letting both
                    # sides flow through.  Comparisons produce booleans,
                    # never dereferenced, so the pollution is harmless.
                    if instr.op in ins.BinOp.ARITH:
                        self._copy(instr.left, instr)
                        self._copy(instr.right, instr)
                elif isinstance(instr, ins.Load):
                    self._load(instr.pointer, instr)
                elif isinstance(instr, ins.Store):
                    self._store(instr.value, instr.pointer)
                elif isinstance(instr, ins.Cmpxchg):
                    self._store(instr.desired, instr.pointer)
                    self._load(instr.pointer, instr)
                elif isinstance(instr, ins.AtomicRMW):
                    self._store(instr.value, instr.pointer)
                    self._load(instr.pointer, instr)
                elif isinstance(instr, ins.Call):
                    callee = self.module.functions.get(instr.callee.name)
                    if callee is not None:
                        self._bind_call(callee, instr.args, instr)
                elif isinstance(instr, ins.ThreadCreate):
                    callee = self.module.functions.get(instr.callee.name)
                    if callee is not None and instr.arg is not None:
                        self._bind_call(callee, [instr.arg], None)

    def _bind_call(self, callee, actuals, result):
        for formal, actual in zip(callee.arguments, actuals):
            self._copy(actual, formal)
        if result is not None:
            for instr in callee.instructions():
                if isinstance(instr, ins.Ret) and instr.has_value:
                    self._copy(instr.value, result)

    def _seed(self, value, obj):
        self._pts.setdefault(value, set()).add(obj)

    def _copy(self, src, dst):
        if isinstance(src, Constant) or src is None:
            return
        self._copy_edges.setdefault(src, set()).add(dst)

    def _load(self, pointer, dst):
        self._load_edges.setdefault(pointer, set()).add(dst)

    def _store(self, src, pointer):
        if isinstance(src, Constant) or src is None:
            return
        self._store_edges.setdefault(pointer, set()).add(src)

    # -- SCC-collapsing difference-propagation solver ----------------------

    def _find(self, node):
        """Union-find lookup with path compression."""
        root = node
        parent = self._parent.get(root)
        while parent is not None:
            root = parent
            parent = self._parent.get(root)
        while node is not root:
            next_node = self._parent[node]
            if next_node is not root:
                self._parent[node] = root
            node = next_node
        return root

    def _solve(self):
        """Worklist solver: Tarjan cycle collapsing + delta propagation.

        Nodes in a copy cycle provably share one points-to set, so each
        strongly connected component is merged into a representative.
        Along the remaining (acyclic between collapses) edges only the
        *delta* — objects the successor has not absorbed yet — flows.
        Load/store constraints materialize new copy edges during the
        solve; those can close new cycles, so when the worklist drains
        after growing the graph, the collapse runs again.
        """
        pts = self._pts
        delta = {node: set(objs) for node, objs in pts.items()}
        worklist = list(pts)
        queued = set(map(id, worklist))
        self._grown = 0

        def push(node):
            if id(node) not in queued:
                queued.add(id(node))
                worklist.append(node)

        def add_copy(src, dst):
            src = self._find(src)
            dst = self._find(dst)
            if src is dst:
                return
            edges = self._copy_edges.setdefault(src, set())
            if dst in edges:
                return
            edges.add(dst)
            self._grown += 1
            source_set = pts.get(src)
            if source_set:
                target = pts.setdefault(dst, set())
                news = source_set - target
                if news:
                    target |= news
                    delta.setdefault(dst, set()).update(news)
                    push(dst)

        # Offline collapse first: cycles from recursion and mutual
        # copies exist before any propagation happens.
        self._collapse(push, delta)

        while worklist:
            self.stats["rounds"] += 1
            node = worklist.pop()
            queued.discard(id(node))
            if self._find(node) is not node:
                continue  # merged away; its delta moved to the rep
            d = delta.get(node)
            if d:
                delta[node] = set()
                for dst in self._load_edges.get(node, ()):
                    for obj in d:
                        add_copy(obj, dst)
                for src in self._store_edges.get(node, ()):
                    for obj in d:
                        add_copy(src, obj)
                for dst in list(self._copy_edges.get(node, ())):
                    dst_rep = self._find(dst)
                    if dst_rep is node:
                        continue
                    target = pts.setdefault(dst_rep, set())
                    news = d - target
                    if news:
                        target |= news
                        delta.setdefault(dst_rep, set()).update(news)
                        push(dst_rep)
            if not worklist and self._grown:
                self._collapse(push, delta)

    def _collapse(self, push, delta):
        """Collapse every multi-node SCC of the copy graph (Tarjan)."""
        self._grown = 0
        index = {}
        low = {}
        onstack = set()
        stack = []
        counter = 0
        merged = 0

        def successors(node):
            out = self._copy_edges.get(node)
            if not out:
                return []
            result = []
            seen = set()
            for dst in out:
                rep = self._find(dst)
                if rep is node or id(rep) in seen:
                    continue
                seen.add(id(rep))
                result.append(rep)
            return result

        roots = []
        seen_roots = set()
        for node in list(self._copy_edges):
            rep = self._find(node)
            if id(rep) not in seen_roots:
                seen_roots.add(id(rep))
                roots.append(rep)

        for root in roots:
            if id(root) in index:
                continue
            index[id(root)] = low[id(root)] = counter
            counter += 1
            stack.append(root)
            onstack.add(id(root))
            frames = [(root, iter(successors(root)))]
            while frames:
                node, it = frames[-1]
                advanced = False
                for succ in it:
                    if id(succ) not in index:
                        index[id(succ)] = low[id(succ)] = counter
                        counter += 1
                        stack.append(succ)
                        onstack.add(id(succ))
                        frames.append((succ, iter(successors(succ))))
                        advanced = True
                        break
                    if id(succ) in onstack:
                        low[id(node)] = min(low[id(node)], index[id(succ)])
                if advanced:
                    continue
                frames.pop()
                if low[id(node)] == index[id(node)]:
                    component = []
                    while True:
                        member = stack.pop()
                        onstack.discard(id(member))
                        component.append(member)
                        if member is node:
                            break
                    if len(component) > 1:
                        self._merge_component(component, push, delta)
                        merged += 1
                if frames:
                    parent, _ = frames[-1]
                    low[id(parent)] = min(low[id(parent)], low[id(node)])
        self.stats["sccs_collapsed"] += merged
        return merged > 0

    def _merge_component(self, component, push, delta):
        """Union one SCC into ``component[0]``; re-propagate its set."""
        rep = component[0]
        merged_pts = self._pts.setdefault(rep, set())
        for node in component[1:]:
            self._parent[node] = rep
            merged_pts.update(self._pts.pop(node, ()))
            delta.pop(node, None)
            for edges in (
                self._copy_edges, self._load_edges, self._store_edges
            ):
                moved = edges.pop(node, None)
                if moved:
                    edges.setdefault(rep, set()).update(moved)
            self.stats["nodes_merged"] += 1
        if merged_pts:
            # Conservative restart for the merged node: its whole set
            # counts as fresh so every successor (old and newly
            # inherited) absorbs it.
            delta[rep] = set(merged_pts)
            push(rep)


class PointsToKeyProvider(LocationKeyProvider):
    """Location keys refined by the points-to equivalence classes.

    Type-based keys win when they exist (they are field-granular, the
    points-to classes are not); pointers that are keyless under the
    type-based scheme fall back to their points-to class.
    """

    mode = "points_to"

    def __init__(self, cache):
        super().__init__(cache)
        self.pointsto = cache.pointsto()

    def location_key(self, function, pointer):
        key, _origin = self.key_with_origin(function, pointer)
        return key

    def key_with_origin(self, function, pointer):
        """(key, origin) where origin explains how the key was derived.

        origin is ``"type"`` for the classic type-based key,
        ``"pts_global"`` when a keyless pointer resolved to a single
        global, ``"pts_class"`` for a points-to equivalence class and
        ``"none"`` when even the points-to set is empty.
        """
        type_key = self.cache.nonlocal_info(function).location_key(pointer)
        if type_key is not None:
            return type_key, "type"
        key = self.pointsto.class_key(pointer)
        if key is None:
            return None, "none"
        origin = "pts_global" if key[0] == "global" else "pts_class"
        return key, origin
