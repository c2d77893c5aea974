"""Ports write through copy-on-write forks, and stay isolated.

Over the inputs ``test_port_digests.py`` pins, every port configuration
must leave its input's printed IR (marks included) unchanged, produce a
module that passes a full ``verify_module``, and share by identity
every function it did not write.  A port may own more than it writes,
but only where its contract says so:

- the callers and spawners of an owned function (to re-point calls);
- the callers with a site the inliner may inline (owned up front);
- the live functions, when repair applied a round;
- the functions holding weakening candidates, when it optimizes.

Without ``optimize`` the report's barrier pair, counted from shared
per-function counts, must equal a fresh count of the port.
"""

import functools

import pytest
from test_port_digests import SOURCES

from repro.analysis.callgraph import CallGraph
from repro.analysis.races import _live_functions
from repro.api import check_module, compile_source, port_module
from repro.core.config import AtoMigConfig, PortingLevel
from repro.core.report import count_barriers
from repro.ir.printer import print_function, print_module
from repro.ir.verifier import verify_module
from repro.opt.candidates import PORTER_ACCESS_MARKS, PORTER_FENCE_MARKS
from repro.transform.inline import _eligible

PORTS = {
    "original+repair": (PortingLevel.ORIGINAL, {"repair_mode": True}),
    "expl": (PortingLevel.EXPL, {}),
    "spin": (PortingLevel.SPIN, {}),
    "atomig": (PortingLevel.ATOMIG, {}),
    "atomig+repair": (PortingLevel.ATOMIG, {"repair_mode": True}),
    "naive": (PortingLevel.NAIVE, {}),
    "lasagne": (PortingLevel.LASAGNE, {}),
    "atomig+prune_protected": (PortingLevel.ATOMIG,
                               {"prune_protected": True}),
    "atomig+points_to": (PortingLevel.ATOMIG, {"alias_mode": "points_to"}),
}
SYNTH_PORTS = ("atomig+repair", "naive")
#: Ports re-run with the weakener on every corpus ``mc_source``.
OPTIMIZED_PORTS = ("original+repair", "atomig+repair", "naive", "lasagne")

CASES = [
    (label, port, False)
    for label in sorted(SOURCES)
    for port in PORTS
    if not label.startswith("synth.") or port in SYNTH_PORTS
] + [
    (label, port, True)
    for label in sorted(SOURCES) if label.endswith(".mc_source")
    for port in OPTIMIZED_PORTS
]


@functools.lru_cache(maxsize=None)
def _input(label):
    """One compiled module per input, shared by all its ports: every
    port forks the same object, so each must leave it as it was."""
    module = compile_source(SOURCES[label], label, cache=False)
    return module, print_module(module)


def _callers(*modules):
    """callee -> callers and spawners, over the call graphs of ``modules``."""
    callers = {}
    for module in modules:
        graph = CallGraph(module)
        for site in graph.call_sites + graph.spawn_sites:
            callers.setdefault(site.callee, set()).add(site.caller)
    return callers


#: The levels that run the AtoMig stages, pre-inlining included.
ATOMIG_LEVELS = (PortingLevel.EXPL, PortingLevel.SPIN, PortingLevel.ATOMIG)


def _may_own(module, ported, report, level, options, optimize, written):
    """The functions the port's contract lets it own."""
    owned = set(written)
    config = AtoMigConfig.for_level(level, AtoMigConfig(**options))
    if level in ATOMIG_LEVELS and config.inline_before_analysis:
        graph = CallGraph(module)
        recursive = graph.recursive_functions()
        owned |= {site.caller for site in graph.call_sites
                  if _eligible(site.caller, module.functions[site.callee],
                               recursive, 80)}
    if report.repair and report.repair["rounds"]:
        owned |= _live_functions(ported, CallGraph(ported))
    if optimize:
        # The candidates are the porter-marked sites of the port before
        # weakening; a deleted fence leaves no mark behind.
        before, _ = port_module(module, level, config=AtoMigConfig(**options))
        marks = PORTER_ACCESS_MARKS | PORTER_FENCE_MARKS
        owned |= {name for name, function in before.functions.items()
                  if any(instr.marks & marks
                         for instr in function.instructions())}
    callers = _callers(module, ported)
    pending = list(owned)
    while pending:
        for caller in callers.get(pending.pop(), ()):
            if caller not in owned:
                owned.add(caller)
                pending.append(caller)
    return owned


@pytest.mark.parametrize(("label", "port", "optimize"), CASES)
def test_port_is_isolated(label, port, optimize):
    module, printed = _input(label)
    level, options = PORTS[port]
    ported, report = port_module(module, level,
                                 config=AtoMigConfig(**options),
                                 optimize=optimize)
    assert print_module(module) == printed
    verify_module(ported)

    unshared = {name for name, function in ported.functions.items()
                if function is not module.functions[name]}
    written = {name for name in unshared
               if print_function(ported.functions[name])
               != print_function(module.functions[name])}
    assert unshared <= _may_own(module, ported, report, level, options,
                                optimize, written)
    if not optimize:
        assert (report.ported_explicit_barriers,
                report.ported_implicit_barriers) == count_barriers(ported)


def _statements(variable, count):
    return "\n".join(f"    {variable} = {variable} * 3 + {index};"
                     for index in range(count))


#: ``relay`` and ``publish`` are both far above the inliner's
#: 80-instruction limit, so neither is inlined: the port writes the
#: volatile store in ``publish`` and must own and re-point ``relay``,
#: which only calls it, and ``worker``, which calls ``relay``.
BIG_CALLER = f"""
volatile int flag = 0;
int data = 0;

int publish(int seed) {{
    int acc = seed;
{_statements("acc", 30)}
    data = acc;
    flag = 1;
    return acc;
}}

int relay(int seed) {{
    int acc = seed;
{_statements("acc", 30)}
    return publish(acc);
}}

void worker(int seed) {{
    relay(seed);
}}

int main() {{
    int t = thread_create(worker, 1);
    while (flag == 0) {{ }}
    int seen = data;
    thread_join(t);
    assert(seen != 0);
    return 0;
}}
"""


def test_big_caller_port_matches_a_port_of_a_clone():
    module = compile_source(BIG_CALLER, "big", cache=False)
    printed = print_module(module)
    config = AtoMigConfig(repair_mode=True)
    ported, _report = port_module(module, PortingLevel.ATOMIG, config=config)
    reference, _ = port_module(module.clone(), PortingLevel.ATOMIG,
                               config=config)
    assert print_module(module) == printed
    assert print_module(ported) == print_module(reference)
    verify_module(ported)

    relay = ported.functions["relay"]
    assert relay is not module.functions["relay"]
    assert print_function(relay) == print_function(module.functions["relay"])
    assert ported.functions["publish"] is not module.functions["publish"]
    for instr in relay.instructions():
        if getattr(instr, "callee", None) is not None:
            assert instr.callee is ported.functions[instr.callee.name]

    verdict = check_module(ported, model="wmm", max_steps=4000)
    expected = check_module(reference, model="wmm", max_steps=4000)
    assert (verdict.outcome, verdict.states_explored) == (
        expected.outcome, expected.states_explored)
