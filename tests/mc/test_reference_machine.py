"""The production machine against the reference machine.

``reference_machine`` keeps the slower originals of three rules of
:mod:`repro.mc.machine`: the handler-dispatch interpreter the decoded
kernel replaced (a per-instruction class dispatch, one ``_value`` call
per operand), the per-index commit rule with a window re-scan per
commit key that ``MemoryModel.committable`` replaced, and a memo-free
quiescence fixpoint in place of the wake-up rules.  Each case here
checks one module twice, once with each machine (patched in as
``repro.mc.explorer.Machine``), and asserts the explorations agree
exactly: outcome, violation text, traces, notes, ``states_explored``
and every exploration counter.  The inputs cover the litmus gallery,
the weakened-litmus templates, every ported corpus module under both
reducing backends, random memory-order assignments, a writer that
fills its commit window, and the error paths (a zero divisor, an
instruction subclass, instructions the checker cannot execute, and
operands it cannot evaluate).
"""

from unittest import mock

import pytest

from reference_machine import ReferenceMachine
from repro.api import compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.core.config import PortingLevel
from repro.ir import instructions as ins
from repro.ir.values import Value
from repro.lang.ctypes import INT
from repro.mc.explorer import check_module
from repro.mc.litmus import LITMUS_TESTS, WEAKENED_LITMUS, weakened_source
from repro.mc.machine import Machine

BOUNDS = dict(max_steps=600, max_states=5000)
PORS = ("sleep", "dpor")
#: Wall-clock fields of ExplorationStats; everything else must agree.
TIMING = ("wall_seconds", "states_per_second")


def _run(machine_cls, module, **kwargs):
    with mock.patch("repro.mc.explorer.Machine", machine_cls):
        result = check_module(module, **kwargs)
    stats = {key: value for key, value in result.stats.to_dict().items()
             if key not in TIMING}
    return {
        "outcome": result.outcome,
        "violation": result.violation,
        "trace": result.trace,
        "deadlock_trace": result.deadlock_trace,
        "notes": result.notes,
        "states_explored": result.states_explored,
        "stats": stats,
    }


def assert_same_exploration(module, **kwargs):
    """Both machines explore ``module`` identically; returns the run."""
    decoded = _run(Machine, module, **kwargs)
    assert decoded == _run(ReferenceMachine, module, **kwargs), kwargs
    return decoded


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_gallery(name):
    source, expected = LITMUS_TESTS[name]
    module = compile_source(source, f"litmus_{name}")
    for model in expected:
        for por in PORS:
            run = assert_same_exploration(module, model=model, por=por,
                                          **BOUNDS)
            assert (run["violation"] is None) == expected[model]


@pytest.mark.parametrize("name", sorted(WEAKENED_LITMUS))
def test_weakened_litmus_templates(name):
    _template, _minimal, too_weak = WEAKENED_LITMUS[name]
    for overrides in [None] + list(too_weak.values()):
        module = compile_source(weakened_source(name, overrides),
                                f"weakened_{name}")
        for model in ("sc", "tso", "wmm"):
            for por in PORS:
                assert_same_exploration(module, model=model, por=por,
                                        **BOUNDS)


@pytest.mark.parametrize(
    "name", sorted(name for name, benchmark in BENCHMARKS.items()
                   if benchmark.mc_source is not None))
def test_ported_corpus(name):
    module, _report = port_module(
        compile_source(BENCHMARKS[name].mc_source(), name),
        PortingLevel.ATOMIG,
    )
    for por in PORS:
        assert_same_exploration(module, model="wmm", por=por, **BOUNDS)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a CI dependency
    pass
else:
    LOAD_ORDERS = ("memory_order_relaxed", "memory_order_acquire",
                   "memory_order_seq_cst")
    STORE_ORDERS = ("memory_order_relaxed", "memory_order_release",
                    "memory_order_seq_cst")

    @st.composite
    def weakened_variants(draw):
        """A weakened template with random valid orders (template keys
        starting with ``r`` name loads, the rest stores)."""
        name = draw(st.sampled_from(sorted(WEAKENED_LITMUS)))
        minimal = WEAKENED_LITMUS[name][1]
        overrides = {
            key: draw(st.sampled_from(
                LOAD_ORDERS if key.startswith("r") else STORE_ORDERS))
            for key in sorted(minimal)
        }
        return name, overrides

    @settings(max_examples=40, deadline=None)
    @given(variant=weakened_variants(),
           model=st.sampled_from(("sc", "tso", "wmm")),
           por=st.sampled_from(PORS))
    def test_random_order_assignments(variant, model, por):
        name, overrides = variant
        module = compile_source(weakened_source(name, overrides),
                                f"weakened_{name}")
        assert_same_exploration(module, model=model, por=por, **BOUNDS)


def test_full_windows():
    """The writer's ten stores fill its eight-entry window: commits that
    free a slot of a full window must wake it (no other input fills a
    window)."""
    module = compile_source("""
int slots[10];
int done = 0;
void writer() {
    int i = 0;
    while (i < 10) {
        slots[i] = i + 1;
        i = i + 1;
    }
    done = 1;
}
int main() {
    int t = thread_create(writer);
    int seen = done;
    if (seen == 1) {
        assert(slots[9] == 10);
    }
    thread_join(t);
    return 0;
}
""", "full_window")
    for model in ("tso", "wmm"):
        for por in PORS:
            assert_same_exploration(module, model=model, por=por, **BOUNDS)


# -- error paths -----------------------------------------------------------


class _Mystery(ins.Instruction):
    """An instruction class neither machine knows how to execute."""

    opcode = "mystery"


class _SubBinOp(ins.BinOp):
    """A BinOp subclass: found by the subclass-tolerant lookup."""


def _insert(block, index, instr):
    instr.block = block
    block.instructions.insert(index, instr)


def test_zero_divisor_is_a_violation():
    module = compile_source("""
int zero = 0;
int main() {
    int x = 10 / zero;
    return x;
}
""", "divide")
    for model in ("sc", "wmm"):
        run = assert_same_exploration(module, model=model, **BOUNDS)
        assert run["violation"] == "division by zero"


def test_binop_subclass_runs_like_its_base():
    source = """
int x = 0;
void writer() { x = 3; }
int main() {
    int t = thread_create(writer);
    int y = x * 2 + 1;
    assert(y == 1 || y == 7);
    thread_join(t);
    return 0;
}
"""
    plain = compile_source(source, "plain")
    module = compile_source(source, "subclassed")
    binops = [instr for instr in module.functions["main"].instructions()
              if type(instr) is ins.BinOp]
    assert binops
    for instr in binops:
        instr.__class__ = _SubBinOp
    for model in ("sc", "wmm"):
        for por in PORS:
            run = assert_same_exploration(module, model=model, por=por,
                                          **BOUNDS)
            assert run == _run(Machine, plain, model=model, por=por,
                               **BOUNDS)
            assert run["outcome"] == "ok"


GUARDED = """
int g = 0;
int main() {
    if (g == 1) {
        g = 2;
    }
    return 0;
}
"""


def test_unsupported_instruction_in_unreached_block_checks_ok():
    module = compile_source(GUARDED, "guarded")
    main = module.functions["main"]
    guarded = main.entry.instructions[-1].true_block
    _insert(guarded, 0, _Mystery(name="unreached"))
    for model in ("sc", "wmm"):
        run = assert_same_exploration(module, model=model, **BOUNDS)
        assert run["outcome"] == "ok"


def test_unsupported_instruction_after_a_failing_assert_never_runs():
    """Decoding a block must not raise for an instruction execution
    never reaches, even when it shares a block with code that runs."""
    module = compile_source("""
int g = 0;
int main() {
    assert(g == 1);
    return 0;
}
""", "assert_first")
    entry = module.functions["main"].entry
    asserts = [index for index, instr in enumerate(entry.instructions)
               if isinstance(instr, ins.AssertInst)]
    _insert(entry, asserts[0] + 1, _Mystery(name="after_assert"))
    for model in ("sc", "wmm"):
        run = assert_same_exploration(module, model=model, **BOUNDS)
        assert run["violation"].startswith("assertion failed in @main")


def test_unsupported_instruction_in_reached_block_is_a_violation():
    module = compile_source(GUARDED, "guarded")
    mystery = _Mystery(name="reached")
    _insert(module.functions["main"].entry, 0, mystery)
    for model in ("sc", "wmm"):
        run = assert_same_exploration(module, model=model, **BOUNDS)
        assert run["violation"] == (
            f"model checker cannot execute {mystery!r}")


def test_unevaluable_operand_is_a_violation():
    module = compile_source(GUARDED, "guarded")
    opaque = Value(INT, "opaque")
    _insert(module.functions["main"].entry, 0, ins.PrintInst(opaque))
    for model in ("sc", "wmm"):
        run = assert_same_exploration(module, model=model, **BOUNDS)
        assert run["violation"] == f"cannot evaluate operand {opaque!r}"


def test_missing_register_is_an_internal_error():
    """A register read before any step bound it is a checker bug: both
    machines raise ``KeyError`` out of ``check_module``."""
    module = compile_source(GUARDED, "guarded")
    never_run = ins.BinOp("+", module.globals["g"], module.globals["g"])
    _insert(module.functions["main"].entry, 0, ins.PrintInst(never_run))
    for machine_cls in (Machine, ReferenceMachine):
        with pytest.raises(KeyError):
            _run(machine_cls, module, model="sc", **BOUNDS)
