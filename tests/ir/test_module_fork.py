"""Tests for copy-on-write module forks (``Module.fork`` / ``Module.own``)."""

import pickle

from repro.api import compile_source
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module

SOURCE = """
int counter = 0;

int leaf(int x) { return x + counter; }
int mid(int x) { return leaf(x) * 2; }
void worker(int arg) { counter = leaf(arg); }
int lonely(int x) { return x - 1; }

int main() {
    int t = thread_create(worker, 1);
    int r = mid(2);
    thread_join(t);
    return r + lonely(0);
}
"""


def _module():
    return compile_source(SOURCE, "fork", cache=False)


def _shape(function):
    return [(block.label, [type(instr).__name__ for instr in
                           block.instructions])
            for block in function.blocks]


def _calls(function):
    return [instr for instr in function.instructions()
            if isinstance(instr, (ins.Call, ins.ThreadCreate))]


def _strengthen(function):
    for instr in function.instructions():
        if isinstance(instr, (ins.Load, ins.Store)):
            instr.order = MemoryOrder.SEQ_CST
            instr.marks.add("written")


def test_fork_shares_functions_and_globals():
    module = _module()
    fork = module.fork()
    assert fork.functions == module.functions
    assert fork.functions is not module.functions
    for name, function in module.functions.items():
        assert fork.functions[name] is function
    for name, gvar in module.globals.items():
        assert fork.globals[name] is gvar
    assert print_module(fork) == print_module(module)


def test_own_copies_shared_callers_and_spawners():
    module = _module()
    fork = module.fork()
    before = dict(fork.functions)
    fork.own({"leaf"})
    # mid and worker call leaf; main calls mid and spawns worker.
    owned = {name for name, function in fork.functions.items()
             if function is not before[name]}
    assert owned == {"leaf", "mid", "worker", "main"}
    assert fork.functions["lonely"] is module.functions["lonely"]
    for function in fork.functions.values():
        for call in _calls(function):
            assert call.callee is fork.functions[call.callee.name]
    for call in _calls(module.functions["main"]):
        assert call.callee is module.functions[call.callee.name]


def test_own_keeps_labels_and_indices():
    module = _module()
    fork = module.fork()
    mapping = fork.own({"leaf"})
    for name in ("leaf", "mid", "worker", "main"):
        old, new = module.functions[name], fork.functions[name]
        assert _shape(new) == _shape(old)
        for old_block, new_block in zip(old.blocks, new.blocks):
            assert mapping[old_block] is new_block
            for old_instr, new_instr in zip(old_block.instructions,
                                            new_block.instructions):
                assert mapping[old_instr] is new_instr
                assert new_instr.block is new_block


def test_own_repoints_calls_of_private_callers():
    module = _module()
    fork = module.fork()
    fork.own({"main"})
    main = fork.functions["main"]
    assert fork.own({"main"}) == {}
    fork.own({"leaf"})
    # main was already private: re-pointed in place, not copied again.
    assert fork.functions["main"] is main
    targets = {call.callee.name: call.callee for call in _calls(main)}
    assert targets["mid"] is fork.functions["mid"]
    assert targets["worker"] is fork.functions["worker"]
    assert targets["mid"] is not module.functions["mid"]
    verify_module(fork)


def test_owned_writes_leave_the_other_side_unchanged():
    module = _module()
    original = print_module(module)
    fork = module.fork()
    forked = print_module(fork)

    fork.own({"leaf"})
    _strengthen(fork.functions["leaf"])
    assert print_module(module) == original
    written = print_module(fork)
    assert written != forked

    # The other direction: the input owns before it writes.
    module.own({"lonely", "worker"})
    _strengthen(module.functions["lonely"])
    _strengthen(module.functions["worker"])
    assert print_module(module) != original
    assert print_module(fork) == written
    assert fork.functions["lonely"] is not module.functions["lonely"]
    verify_module(module)
    verify_module(fork)


def test_own_of_unshared_names_copies_nothing():
    module = _module()
    assert module.own({"leaf", "missing"}) == {}
    fork = module.fork()
    assert fork.own(set()) == {}
    assert fork.own({"missing"}) == {}


RECURSIVE_LEAF = """
int counter = 0;

int leaf(int x) { if (x > 0) { return leaf(x - 1); } return counter; }
int tiny(int x) { return x + 1; }
int mid(int x) { return tiny(leaf(x)); }

int main() {
    return mid(2);
}
"""


def test_inliner_keeps_the_callers_map_current():
    from repro.transform.inline import inline_module

    module = compile_source(RECURSIVE_LEAF, "inl", cache=False)
    original = print_module(module)
    fork = module.fork()
    assert inline_module(fork) == 2
    main = fork.functions["main"]
    # tiny was inlined into mid and mid into main, so main now calls
    # the recursive leaf itself; owning leaf must re-point that call
    # although main no longer calls anything else it owns.
    assert [call.callee.name for call in _calls(main)] == ["leaf"]
    fork.own({"leaf"})
    assert fork.functions["main"] is main
    assert _calls(main)[0].callee is fork.functions["leaf"]
    assert fork.functions["leaf"] is not module.functions["leaf"]
    verify_module(fork)
    assert print_module(module) == original


def test_fork_pickles_without_its_input():
    module = _module()
    fork = module.fork()
    fork.own({"leaf"})
    copy = pickle.loads(pickle.dumps(fork))
    assert print_module(copy) == print_module(fork)
    verify_module(copy)
