"""Unit tests for AST -> IR lowering."""

import pytest

from repro.api import compile_source
from repro.ir import instructions as ins
from repro.ir.instructions import MemoryOrder
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module


def instrs(module, fn="main", kind=None):
    result = list(module.functions[fn].instructions())
    if kind is not None:
        result = [i for i in result if isinstance(i, kind)]
    return result


def test_params_are_spilled_to_allocas():
    module = compile_source("int f(int a, int b) { return a + b; }")
    allocas = instrs(module, "f", ins.Alloca)
    assert len(allocas) == 2
    stores = instrs(module, "f", ins.Store)
    assert len(stores) == 2  # one spill per parameter


def test_global_access_lowered_as_load_store():
    module = compile_source("int g;\nint main() { g = g + 1; return g; }")
    loads = instrs(module, kind=ins.Load)
    stores = instrs(module, kind=ins.Store)
    assert any(load.pointer is module.globals["g"] for load in loads)
    assert any(store.pointer is module.globals["g"] for store in stores)


def test_volatile_flag_propagates():
    module = compile_source("volatile int v;\nint main() { v = v + 1; return 0; }")
    accesses = [
        i for i in instrs(module)
        if isinstance(i, (ins.Load, ins.Store))
        and getattr(i.pointer, "name", "") == "v"
    ]
    assert accesses and all(access.volatile for access in accesses)


def test_atomic_qualified_global_is_seq_cst():
    module = compile_source("_Atomic int a;\nint main() { return a; }")
    load = instrs(module, kind=ins.Load)[0]
    assert load.order is MemoryOrder.SEQ_CST


def test_atomic_qualified_incdec_becomes_rmw():
    module = compile_source("_Atomic int a;\nint main() { a++; return 0; }")
    rmws = instrs(module, kind=ins.AtomicRMW)
    assert len(rmws) == 1
    assert rmws[0].op == "add"


def test_struct_member_becomes_gep_with_field():
    module = compile_source("""
struct s { int a; int b; };
struct s v;
int main() { v.b = 1; return 0; }
""")
    gep = instrs(module, kind=ins.Gep)[0]
    assert gep.path[0][0] == "field"
    assert gep.signature() == (("field", "s", 1),)


def test_arrow_access_same_signature_as_indexed():
    module = compile_source("""
struct s { int a; int b; };
struct s arr[4];
int f(struct s *p) { return p->b; }
int main() { return arr[2].b; }
""")
    from repro.analysis.nonlocal_ import gep_signature

    f_load = instrs(module, "f", ins.Load)[-1]
    main_load = instrs(module, "main", ins.Load)[-1]
    assert gep_signature(f_load.pointer) == gep_signature(main_load.pointer)
    assert gep_signature(f_load.pointer) == ("field", "s", 1)


def test_array_index_becomes_gep():
    module = compile_source("int a[8];\nint main() { return a[3]; }")
    geps = instrs(module, kind=ins.Gep)
    assert geps and geps[0].path[0][0] == "index"


def test_pointer_arithmetic_becomes_gep():
    module = compile_source("""
int buf[8];
int main() { int *p = buf; p = p + 2; return *p; }
""")
    geps = instrs(module, kind=ins.Gep)
    assert len(geps) >= 2


def test_pointer_difference_divides_by_size():
    module = compile_source("""
struct wide { int a; int b; int c; };
struct wide arr[4];
int main() {
    struct wide *p = &arr[3];
    struct wide *q = &arr[0];
    return p - q;
}
""")
    divs = [i for i in instrs(module, kind=ins.BinOp) if i.op == "/"]
    assert divs  # scaled by struct size (3)


def test_short_circuit_and_creates_control_flow():
    module = compile_source("""
int a; int b;
int main() { if (a && b) { return 1; } return 0; }
""")
    blocks = module.functions["main"].blocks
    assert any("land" in block.label for block in blocks)


def test_short_circuit_value_context():
    module = compile_source("int a; int b;\nint main() { int r = a || b; return r; }")
    blocks = module.functions["main"].blocks
    assert any("log" in block.label for block in blocks)


def test_ternary_lowering():
    module = compile_source("int main() { int x = 1 ? 5 : 6; return x; }")
    blocks = module.functions["main"].blocks
    assert any("cond" in block.label for block in blocks)


def test_while_true_has_no_condbr_on_constant():
    module = compile_source("int g;\nint main() { while (1) { if (g) break; } return 0; }")
    for instr in instrs(module):
        if isinstance(instr, ins.CondBr):
            assert not isinstance(instr.cond, type(None))


def test_inline_asm_mfence_becomes_fence():
    module = compile_source('int main() { __asm__("mfence"); return 0; }')
    fences = instrs(module, kind=ins.Fence)
    assert len(fences) == 1
    assert fences[0].order is MemoryOrder.SEQ_CST


def test_inline_asm_pause_is_dropped():
    module = compile_source('int main() { __asm__("pause"); return 0; }')
    assert not instrs(module, kind=ins.Fence)


def test_unknown_asm_gets_conservative_fence_and_warning():
    module = compile_source('int main() { __asm__("vmovdqa %xmm0"); return 0; }')
    assert instrs(module, kind=ins.Fence)
    assert module.metadata.get("lowering_warnings")


def test_atomic_builtins_lower_to_ir_atomics():
    module = compile_source("""
int x;
int main() {
    atomic_store(&x, 1);
    int a = atomic_load(&x);
    int b = atomic_fetch_add(&x, 2);
    int c = atomic_cmpxchg(&x, 3, 4);
    int d = atomic_exchange(&x, 9);
    return a + b + c + d;
}
""")
    assert len(instrs(module, kind=ins.Cmpxchg)) == 1
    rmws = instrs(module, kind=ins.AtomicRMW)
    assert {r.op for r in rmws} == {"add", "xchg"}
    atomic_loads = [
        i for i in instrs(module, kind=ins.Load) if i.order.is_atomic
    ]
    assert atomic_loads


def test_explicit_memory_orders_respected():
    module = compile_source("""
int x;
int main() {
    atomic_store_explicit(&x, 1, memory_order_release);
    return atomic_load_explicit(&x, memory_order_acquire);
}
""")
    store = [s for s in instrs(module, kind=ins.Store) if s.order.is_atomic][0]
    assert store.order is MemoryOrder.RELEASE
    load = [l for l in instrs(module, kind=ins.Load) if l.order.is_atomic][0]
    assert load.order is MemoryOrder.ACQUIRE


def test_thread_builtins():
    module = compile_source("""
void w(int x) { }
int main() { int t = thread_create(w, 5); thread_join(t); return 0; }
""")
    assert len(instrs(module, kind=ins.ThreadCreate)) == 1
    assert len(instrs(module, kind=ins.ThreadJoin)) == 1


def test_malloc_free_lowering():
    module = compile_source("""
struct n { int v; };
int main() {
    struct n *p = (struct n *)malloc(sizeof(struct n));
    p->v = 3;
    free(p);
    return 0;
}
""")
    assert len(instrs(module, kind=ins.Malloc)) == 1
    assert len(instrs(module, kind=ins.Free)) == 1


def test_global_aggregate_initializer_flattened():
    module = compile_source("""
struct p { int x; int y; };
struct p pts[2] = {{1, 2}, {3, 4}};
int main() { return 0; }
""")
    assert module.globals["pts"].initializer == [1, 2, 3, 4]


def test_negative_global_initializer():
    module = compile_source("int x = -5;\nint main() { return 0; }")
    assert module.globals["x"].initializer == [-5]


def test_local_array_initializer():
    module = compile_source("int main() { int a[3] = {7, 8, 9}; return a[1]; }")
    stores = instrs(module, kind=ins.Store)
    stored = {s.value.value for s in stores if hasattr(s.value, "value")}
    assert {7, 8, 9} <= stored


def test_goto_label_lowering():
    module = compile_source("""
int main() {
    int x = 0;
    goto out;
    x = 99;
out:
    return x;
}
""")
    verify_module(module)
    blocks = module.functions["main"].blocks
    assert any("label.out" in block.label for block in blocks)


def test_unreachable_code_removed():
    module = compile_source("int main() { return 1; int x = 2; return x; }")
    verify_module(module)
    # All remaining blocks are reachable and terminated.
    for block in module.functions["main"].blocks:
        assert block.terminator is not None


def test_break_continue_lowering():
    module = compile_source("""
int main() {
    int sum = 0;
    for (int i = 0; i < 10; i++) {
        if (i == 2) { continue; }
        if (i == 5) { break; }
        sum = sum + i;
    }
    return sum;
}
""")
    verify_module(module)


def test_every_compiled_module_verifies():
    module = compile_source("""
struct node { int key; struct node *next; };
struct node pool[4];
int head;
int f(struct node *n) { return n->key; }
int main() {
    for (int i = 0; i < 4; i++) { pool[i].key = i; }
    return f(&pool[2]);
}
""")
    assert verify_module(module)


def _two_switches():
    cases = " ".join(f"case {value}: y = {value}; break;" for value in range(13))
    padding = "if (x) {} " * 84 + "if (x) {} else {} "
    return (
        f"int main() {{ int x = 0; int y = 0; switch (x) {{ {cases} }} "
        f"{padding}switch (y) {{ case 0: y = 1; break; "
        f"case 1: y = 2; break; }} return y; }}"
    )


# Hints ending in a digit.  Glued to its block counter, goto label "a1"
# (counter 1) and label "a" (counter 11) would both spell "label.a11";
# case 12 of the first switch (counter 14) and case 1 of the second
# (counter 214) would both spell "switch.case1214".
@pytest.mark.parametrize("source", [
    "int main() { int x = 0; goto a1; a1: "
    "if (x) {} if (x) {} if (x) {} if (x) {} a: return 0; }",
    _two_switches(),
], ids=["goto_labels", "two_switches"])
def test_block_labels_unique_when_hints_end_in_digits(source):
    module = compile_source(source)
    labels = [block.label for block in module.functions["main"].blocks]
    assert len(set(labels)) == len(labels)
    printed = print_module(module)
    assert print_module(parse_module(printed)) == printed
