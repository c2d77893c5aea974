"""Edge-case tests for the inliner: the constructs that break naive
splice-based inlining implementations."""

from repro.api import compile_source
from repro.ir import instructions as ins
from repro.ir.parser import parse_module
from repro.ir.verifier import verify_module
from repro.transform.inline import inline_module
from repro.vm.interp import run_module


def run_after_inline(source, **kwargs):
    module = compile_source(source)
    inline_module(module, **kwargs)
    verify_module(module)
    return run_module(module)


def test_callee_with_multiple_returns():
    result = run_after_inline("""
int pick(int x) {
    if (x > 10) { return 100; }
    if (x > 5) { return 50; }
    return x;
}
int main() { return pick(20) + pick(7) + pick(2); }
""")
    assert result.exit_value == 152


def test_callee_with_loop():
    result = run_after_inline("""
int sum_to(int n) {
    int s = 0;
    for (int i = 1; i <= n; i++) { s = s + i; }
    return s;
}
int main() { return sum_to(4) + sum_to(3); }
""")
    assert result.exit_value == 16


def test_call_inside_loop_body():
    result = run_after_inline("""
int inc(int x) { return x + 1; }
int main() {
    int acc = 0;
    for (int i = 0; i < 5; i++) { acc = inc(acc); }
    return acc;
}
""")
    assert result.exit_value == 5


def test_call_result_feeding_branch_condition():
    result = run_after_inline("""
int is_even(int x) { return x % 2 == 0; }
int main() {
    int hits = 0;
    for (int i = 0; i < 6; i++) {
        if (is_even(i)) { hits = hits + 1; }
    }
    return hits;
}
""")
    assert result.exit_value == 3


def test_two_calls_same_callee_same_block():
    result = run_after_inline("""
int sq(int x) { return x * x; }
int main() { return sq(3) + sq(4); }
""")
    assert result.exit_value == 25


def test_nested_call_chain_arguments():
    result = run_after_inline("""
int add1(int x) { return x + 1; }
int add2(int x) { return add1(add1(x)); }
int main() { return add2(add2(0)); }
""")
    assert result.exit_value == 4


def test_callee_allocates_locals():
    """Inlined allocas must not corrupt caller stack reuse in loops."""
    result = run_after_inline("""
int work(int seed) {
    int tmp[4];
    for (int i = 0; i < 4; i++) { tmp[i] = seed + i; }
    return tmp[0] + tmp[3];
}
int main() {
    int acc = 0;
    for (int r = 0; r < 3; r++) { acc = acc + work(r); }
    return acc;
}
""")
    # work(r) = r + (r + 3) = 2r + 3; sum over r in 0..2 is 3 + 5 + 7.
    assert result.exit_value == 15


def test_inline_marks_are_preserved():
    module = compile_source("""
int x;
int get() { return atomic_load(&x); }
int main() { return get(); }
""")
    inline_module(module)
    atomic_loads = [
        i for i in module.functions["main"].instructions()
        if isinstance(i, ins.Load) and i.order.is_atomic
    ]
    assert atomic_loads
    assert "annotation" in atomic_loads[0].marks


def test_size_one_helper_chain_fully_flattened():
    module = compile_source("""
int a() { return 1; }
int b() { return a(); }
int c() { return b(); }
int main() { return c(); }
""")
    count = inline_module(module)
    assert count >= 3
    assert not [
        i for i in module.functions["main"].instructions()
        if isinstance(i, ins.Call)
    ]


def test_continuation_label_taken_in_parsed_caller():
    # A parsed function restarts its block counter, so the first
    # continuation label, "inl.cont.f0", is already one of main's.
    module = parse_module("""
func @f(%a: int) -> int {
entry0:
  %1 = %a + 1
  ret %1
}

func @main() -> int {
entry0:
  br inl.cont.f0
inl.cont.f0:
  %1 = call @f(41)
  ret %1
}
""")
    assert inline_module(module) == 1
    verify_module(module)
    labels = [block.label for block in module.functions["main"].blocks]
    assert len(set(labels)) == len(labels)
    assert run_module(module).exit_value == 42
