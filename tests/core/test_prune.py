"""Tests for lock-protection pruning (``AtoMigConfig.prune_protected``)."""

from repro.api import (
    AtoMigConfig,
    PortingLevel,
    check_module,
    compile_source,
    port_module,
)
from repro.bench.corpus import BENCHMARKS
from repro.bench.programs import ck_spinlock_cas
from repro.core.report import count_barriers
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.ir.module import BasicBlock, Function


def _port(module, prune):
    config = AtoMigConfig(prune_protected=True) if prune else None
    return port_module(module, PortingLevel.ATOMIG, config=config)


def _pruned_instructions(module):
    return [
        instr for instr in module.instructions()
        if "pruned_protected" in instr.marks
    ]


def test_pruning_removes_barriers_on_legacy_tas():
    module = compile_source(ck_spinlock_cas.legacy_mc_source(), "tas_legacy")
    plain, plain_report = _port(module, prune=False)
    pruned, pruned_report = _port(module, prune=True)
    assert pruned_report.pruned_protected > 0
    assert count_barriers(pruned)[1] < count_barriers(plain)[1]
    assert plain_report.pruned_protected == 0


def test_pruned_accesses_are_plain_and_marked():
    module = compile_source(ck_spinlock_cas.legacy_mc_source(), "tas_legacy")
    pruned, report = _port(module, prune=True)
    instructions = _pruned_instructions(pruned)
    assert len(instructions) == report.pruned_protected
    for instr in instructions:
        assert isinstance(instr, (ins.Load, ins.Store))
        assert instr.order is MemoryOrder.NOT_ATOMIC


def test_lock_word_stays_atomic_after_pruning():
    module = compile_source(ck_spinlock_cas.legacy_mc_source(), "tas_legacy")
    pruned, _report = _port(module, prune=True)
    lock_accesses = [
        instr for instr in pruned.instructions()
        if instr.is_memory_access()
        and not isinstance(instr, ins.Alloca)
        and getattr(instr.accessed_pointer(), "name", None) == "lock_word"
    ]
    assert lock_accesses
    for instr in lock_accesses:
        assert isinstance(instr, (ins.Cmpxchg, ins.AtomicRMW)) or (
            instr.order.is_atomic
        )


def test_pruned_module_still_verifies_under_wmm():
    module = compile_source(ck_spinlock_cas.legacy_mc_source(), "tas_legacy")
    pruned, _report = _port(module, prune=True)
    result = check_module(pruned, model="wmm", max_steps=4000)
    assert result.ok, result.violation


def test_no_pruning_without_locks():
    module = compile_source("""
int flag = 0;
int msg = 0;

void sender() {
    msg = 42;
    flag = 1;
}

int main() {
    int t = thread_create(sender);
    while (flag == 0) { cpu_relax(); }
    int m = msg;
    thread_join(t);
    assert(m == 42);
    return m;
}
""", "mp")
    plain, _ = _port(module, prune=False)
    pruned, report = _port(module, prune=True)
    assert report.pruned_protected == 0
    assert count_barriers(pruned) == count_barriers(plain)


def test_source_level_atomics_are_never_pruned():
    module = compile_source("""
int lock_word = 0;
volatile int counter = 0;
int total = 0;

void lock() {
    while (atomic_cmpxchg_explicit(&lock_word, 0, 1, memory_order_relaxed) != 0) {
        cpu_relax();
    }
}

void unlock() { lock_word = 0; }

void worker() {
    lock();
    counter = counter + 1;
    atomic_store(&total, counter);
    unlock();
}

void thread_fn() { worker(); }

int main() {
    int t = thread_create(thread_fn);
    worker();
    thread_join(t);
    return total;
}
""", "atomics_kept")
    pruned, report = _port(module, prune=True)
    # The volatile counter accesses are demoted...
    assert report.pruned_protected > 0
    # ...but the store the source spelled as a C11 atomic stays atomic,
    # even though the lock protects @total as well.
    total_stores = [
        instr for instr in pruned.instructions()
        if isinstance(instr, ins.Store)
        and getattr(instr.pointer, "name", None) == "total"
    ]
    assert total_stores
    for instr in total_stores:
        assert instr.order.is_atomic
        assert "pruned_protected" not in instr.marks


def test_prune_flag_defaults_off():
    assert AtoMigConfig().prune_protected is False
    assert AtoMigConfig.for_level(PortingLevel.ATOMIG).prune_protected is False


def _reachable(root):
    """Every object ``root`` holds, through containers and attributes."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float,
                                               type)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())


def test_forking_a_pruned_port_copies_no_ir():
    """The decision's race report stays out of the port: its findings
    reference instructions, which every fork would deep-copy."""
    module = compile_source(BENCHMARKS["lf_hash"].mc_source(), "lf_hash")
    pruned, _report = _port(module, prune=True)
    assert not any(isinstance(obj, (ins.Instruction, BasicBlock, Function))
                   for obj in _reachable(pruned.metadata))
    fork = pruned.fork()
    for name, function in pruned.functions.items():
        assert fork.functions[name] is function
    for name, gvar in pruned.globals.items():
        assert fork.globals[name] is gvar
    assert not any(isinstance(obj, (ins.Instruction, BasicBlock, Function))
                   for obj in _reachable(fork.metadata))
