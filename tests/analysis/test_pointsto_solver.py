"""Equivalence and termination of the SCC-collapsing points-to solver.

Inclusion constraints have a unique least fixpoint, so
``PointsToAnalysis`` (cycle collapsing + difference propagation) must
produce exactly the same solution as the plain full-set worklist kept
here as the reference — on every module, and in particular on *cyclic*
copy graphs (recursion binds actuals and formals in both directions,
pointers round-trip through globals and load/store pairs), which is
where cycle collapsing both pays off and is easiest to get wrong.

Solutions are compared by object *label* (and by ``class_key``), never
by ``AbstractObject`` identity: the two analyses allocate their own
object instances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pointsto import PointsToAnalysis
from repro.api import compile_source


class ReferencePointsTo(PointsToAnalysis):
    """The original full-set worklist solver, the reference only.

    Same constraint generation; solving re-propagates whole points-to
    sets along copy edges until nothing grows, with no cycle
    collapsing (every node represents itself).
    """

    def _solve(self):
        worklist = list(self._pts)
        queued = set(map(id, worklist))

        def push(node):
            if id(node) not in queued:
                queued.add(id(node))
                worklist.append(node)

        def add_copy(src, dst):
            edges = self._copy_edges.setdefault(src, set())
            if dst not in edges:
                edges.add(dst)
                if self._pts.get(src):
                    push(src)

        while worklist:
            self.stats["rounds"] += 1
            node = worklist.pop()
            queued.discard(id(node))
            pts = self._pts.get(node)
            if not pts:
                continue
            # Complex constraints materialize into copy edges.
            for dst in self._load_edges.get(node, ()):
                for obj in pts:
                    add_copy(obj, dst)
            for src in self._store_edges.get(node, ()):
                for obj in pts:
                    add_copy(src, obj)
            # Propagate along copy edges.
            for dst in self._copy_edges.get(node, ()):
                target = self._pts.setdefault(dst, set())
                before = len(target)
                target |= pts
                if len(target) != before:
                    push(dst)


def _labels(objects):
    return frozenset(obj.label for obj in objects)


def _solution(analysis):
    """The full solution as label-comparable data."""
    values = {}
    for function in analysis.module.functions.values():
        for seq, arg in enumerate(function.arguments):
            values[(function.name, "arg", seq)] = arg
        for seq, instr in enumerate(function.instructions()):
            values[(function.name, "instr", seq)] = instr
    pts = {
        ident: _labels(analysis.points_to(value))
        for ident, value in values.items()
    }
    keys = {
        ident: analysis.class_key(value)
        for ident, value in values.items()
    }
    contents = {
        obj.label: _labels(analysis.contents(obj))
        for obj in analysis.objects
    }
    return pts, keys, contents


def assert_solvers_agree(source):
    module = compile_source(source)
    scc = PointsToAnalysis(module)
    basic = ReferencePointsTo(compile_source(source))
    assert basic.stats["sccs_collapsed"] == 0
    assert _solution(scc) == _solution(basic)
    return scc


RECURSIVE_IDENTITY = """
int a = 0;
int b = 0;
int *pick(int *p, int depth) {
    if (depth > 0) { return pick(p, depth - 1); }
    return p;
}
int main() {
    int *x = pick(&a, 3);
    int *y = pick(&b, 2);
    *x = 1;
    return *y;
}
"""

GLOBAL_ROUND_TRIP = """
int data = 0;
int other = 0;
int *slot;
int main() {
    slot = &data;
    int *p = slot;
    slot = p;
    int *q = slot;
    if (data > 0) { slot = &other; }
    *q = 2;
    return *p;
}
"""

MUTUAL_RECURSION = """
int cell = 0;
int *ping(int *p, int n);
int *pong(int *p, int n) {
    if (n == 0) { return p; }
    return ping(p, n - 1);
}
int *ping(int *p, int n) {
    if (n == 0) { return p; }
    return pong(p, n - 1);
}
int main() {
    int *r = ping(&cell, 4);
    *r = 7;
    return cell;
}
"""

SWAP_CYCLE = """
int left = 0;
int right = 0;
int main() {
    int *p = &left;
    int *q = &right;
    for (int i = 0; i < 4; i++) {
        int *t = p;
        p = q;
        q = t;
    }
    *p = 1;
    *q = 2;
    return left + right;
}
"""

CYCLIC_PROGRAMS = {
    "recursive_identity": RECURSIVE_IDENTITY,
    "global_round_trip": GLOBAL_ROUND_TRIP,
    "mutual_recursion": MUTUAL_RECURSION,
    "swap_cycle": SWAP_CYCLE,
}


def test_recursive_identity_agrees_and_terminates():
    scc = assert_solvers_agree(RECURSIVE_IDENTITY)
    arg = scc.module.functions["pick"].arguments[0]
    assert _labels(scc.points_to(arg)) == {"@a", "@b"}


def test_global_round_trip_agrees():
    scc = assert_solvers_agree(GLOBAL_ROUND_TRIP)
    slot = scc.module.globals["slot"]
    obj = scc.object_for(slot)
    assert _labels(scc.contents(obj)) == {"@data", "@other"}


def test_mutual_recursion_agrees():
    scc = assert_solvers_agree(MUTUAL_RECURSION)
    arg = scc.module.functions["ping"].arguments[0]
    assert scc.class_key(arg) == ("global", "cell")


def test_swap_cycle_agrees():
    assert_solvers_agree(SWAP_CYCLE)


def test_scc_solver_collapses_cycles():
    """At least one cyclic program actually exercises the collapse."""
    collapsed = {}
    for name, source in CYCLIC_PROGRAMS.items():
        scc = PointsToAnalysis(compile_source(source))
        collapsed[name] = scc.stats["sccs_collapsed"]
        assert scc.stats["rounds"] > 0
    assert any(count > 0 for count in collapsed.values()), collapsed


# -- randomized equivalence -------------------------------------------------

_STMTS = [
    "slot = &g{a};",
    "p{k} = &g{a};",
    "p{k} = slot;",
    "slot = p{k};",
    "p{k} = keep(p{j}, {n});",
    "p{k} = p{j};",
    "*p{k} = {n};",
    "acc = acc + *p{j};",
]


@st.composite
def pointer_programs(draw):
    """Random straight-line pointer shuffles over two globals, a global
    pointer slot and a recursive identity helper."""
    count = draw(st.integers(min_value=1, max_value=8))
    statements = []
    for _ in range(count):
        template = draw(st.sampled_from(_STMTS))
        statements.append(template.format(
            a=draw(st.integers(min_value=0, max_value=1)),
            k=draw(st.integers(min_value=0, max_value=2)),
            j=draw(st.integers(min_value=0, max_value=2)),
            n=draw(st.integers(min_value=0, max_value=5)),
        ))
    body = "\n    ".join(statements)
    return f"""
int g0 = 0;
int g1 = 0;
int *slot;
int *keep(int *p, int depth) {{
    if (depth > 0) {{ return keep(p, depth - 1); }}
    return p;
}}
int main() {{
    int acc = 0;
    int *p0 = &g0;
    int *p1 = &g1;
    int *p2 = slot;
    {body}
    return acc;
}}
"""


@given(pointer_programs())
@settings(max_examples=40, deadline=None)
def test_solvers_agree_on_random_modules(source):
    assert_solvers_agree(source)
