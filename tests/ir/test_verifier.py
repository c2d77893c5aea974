"""Tests for the structural IR verifier."""

import pytest

from repro.api import compile_source
from repro.errors import IRError
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Constant, GlobalVar
from repro.ir.verifier import verify_module
from repro.lang.ctypes import INT, VOID, ArrayType


def make_trivial_module():
    module = Module("m")
    fn = Function("f", VOID, [], [])
    module.add_function(fn)
    block = fn.new_block("entry")
    block.append(ins.Ret())
    return module, fn, block


def test_valid_module_passes():
    module, _, _ = make_trivial_module()
    assert verify_module(module)


def test_compiled_modules_pass():
    module = compile_source("""
int g;
int main() { for (int i = 0; i < 3; i++) { g = g + i; } return g; }
""")
    assert verify_module(module)


def test_missing_terminator_rejected():
    module, fn, block = make_trivial_module()
    block.instructions.pop()
    block.append(ins.BinOp("+", Constant(1), Constant(2)))
    with pytest.raises(IRError, match="terminator"):
        verify_module(module)


def test_empty_block_rejected():
    module, fn, _ = make_trivial_module()
    fn.new_block("dangling")
    with pytest.raises(IRError, match="empty block"):
        verify_module(module)


def test_duplicate_block_label_rejected():
    module, fn, block = make_trivial_module()
    twin = BasicBlock(block.label, fn)
    twin.append(ins.Ret())
    fn.blocks.append(twin)
    with pytest.raises(IRError, match="duplicate block label"):
        verify_module(module)


def test_mid_block_terminator_rejected():
    module, fn, block = make_trivial_module()
    block.insert(0, ins.Ret())
    with pytest.raises(IRError, match="middle of a block"):
        verify_module(module)


def test_branch_to_foreign_block_rejected():
    module, fn, block = make_trivial_module()
    foreign = BasicBlock("foreign")
    foreign.append(ins.Ret())
    block.instructions.pop()
    block.append(ins.Br(foreign))
    with pytest.raises(IRError, match="foreign"):
        verify_module(module)


def test_cross_function_operand_rejected():
    module, fn, block = make_trivial_module()
    other = Function("g", INT, [], [])
    module.add_function(other)
    other_block = other.new_block("entry")
    value = other_block.append(ins.BinOp("+", Constant(1), Constant(2)))
    other_block.append(ins.Ret(value))
    block.instructions.pop()
    block.append(ins.Store(value, Constant(0)))  # bogus, cross-function
    block.append(ins.Ret())
    with pytest.raises(IRError, match="another function"):
        verify_module(module)


def test_call_to_out_of_module_function_rejected():
    module, fn, block = make_trivial_module()
    stranger = Function("stranger", VOID, [], [])
    stranger_block = stranger.new_block("entry")
    stranger_block.append(ins.Ret())
    block.insert(0, ins.Call(stranger, []))
    with pytest.raises(IRError, match="out-of-module"):
        verify_module(module)


def test_function_without_blocks_rejected():
    module = Module("m")
    module.add_function(Function("empty", VOID, [], []))
    with pytest.raises(IRError, match="no blocks"):
        verify_module(module)


# ---------------------------------------------------------------------------
# Memory-order well-formedness
# ---------------------------------------------------------------------------


def make_module_with_global(ctype=INT):
    module, fn, block = make_trivial_module()
    var = GlobalVar("g", ctype)
    module.add_global(var)
    return module, block, var


@pytest.mark.parametrize("order", [
    MemoryOrder.NOT_ATOMIC, MemoryOrder.RELAXED, MemoryOrder.CONSUME,
])
def test_fence_with_non_fencing_order_rejected(order):
    module, block, _var = make_module_with_global()
    block.insert(0, ins.Fence(order))
    with pytest.raises(IRError, match="fence with invalid order"):
        verify_module(module)


@pytest.mark.parametrize("order", [
    MemoryOrder.ACQUIRE, MemoryOrder.RELEASE,
    MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST,
])
def test_fence_with_fencing_order_accepted(order):
    module, block, _var = make_module_with_global()
    block.insert(0, ins.Fence(order))
    assert verify_module(module)


@pytest.mark.parametrize("order", [
    MemoryOrder.RELEASE, MemoryOrder.ACQ_REL,
])
def test_load_with_release_semantics_rejected(order):
    module, block, var = make_module_with_global()
    block.insert(0, ins.Load(var, order=order))
    with pytest.raises(IRError, match="load cannot have release"):
        verify_module(module)


@pytest.mark.parametrize("order", [
    MemoryOrder.CONSUME, MemoryOrder.ACQUIRE, MemoryOrder.ACQ_REL,
])
def test_store_with_acquire_semantics_rejected(order):
    module, block, var = make_module_with_global()
    block.insert(0, ins.Store(var, Constant(1), order=order))
    with pytest.raises(IRError, match="store cannot have acquire"):
        verify_module(module)


def test_valid_atomic_orders_accepted():
    module, block, var = make_module_with_global()
    block.insert(0, ins.Load(var, order=MemoryOrder.ACQUIRE))
    block.insert(1, ins.Store(var, Constant(1), order=MemoryOrder.RELEASE))
    block.insert(2, ins.Store(var, Constant(2), order=MemoryOrder.SEQ_CST))
    assert verify_module(module)


def test_atomic_access_to_whole_array_rejected():
    module, block, var = make_module_with_global(ArrayType(INT, 8))
    block.insert(0, ins.Load(var, order=MemoryOrder.SEQ_CST))
    with pytest.raises(IRError, match="multi-slot"):
        verify_module(module)


def test_atomic_rmw_on_whole_array_rejected():
    module, block, var = make_module_with_global(ArrayType(INT, 8))
    block.insert(0, ins.AtomicRMW("add", var, Constant(1)))
    with pytest.raises(IRError, match="multi-slot"):
        verify_module(module)


def test_plain_access_to_array_base_accepted():
    module, block, var = make_module_with_global(ArrayType(INT, 8))
    block.insert(0, ins.Load(var))
    assert verify_module(module)


def test_atomic_access_to_array_element_accepted():
    module, block, var = make_module_with_global(ArrayType(INT, 8))
    gep = ins.Gep(var, [("index", INT, Constant(2))], INT)
    block.insert(0, gep)
    block.insert(1, ins.Store(gep, Constant(1), order=MemoryOrder.SEQ_CST))
    assert verify_module(module)
