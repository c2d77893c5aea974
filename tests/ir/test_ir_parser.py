"""Round-trip tests for the textual IR parser."""

import pytest

from repro.api import compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.core.config import PortingLevel
from repro.errors import IRError
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.vm.interp import run_module

SOURCES = {
    "arith": """
int main() {
    int x = 3;
    int y = x * 7 % 5;
    return x + y;
}
""",
    "structs": """
struct node { int key; struct node *next; };
struct node pool[3];
int main() {
    pool[0].key = 5;
    pool[0].next = &pool[1];
    struct node *p = pool[0].next;
    p->key = 9;
    return pool[0].key + pool[1].key;
}
""",
    "atomics": """
volatile int v;
_Atomic int a;
int main() {
    atomic_store_explicit(&a, 2, memory_order_release);
    int old = atomic_fetch_add(&a, 3);
    int c = atomic_cmpxchg(&a, 5, 7);
    atomic_thread_fence(memory_order_seq_cst);
    v = old + c;
    return v;
}
""",
    "threads": """
int flag = 0;
void writer(int x) { flag = x; }
int helper() { return flag; }
int main() {
    int t = thread_create(writer, 4);
    thread_join(t);
    print(helper());
    assert(flag == 4);
    return helper();
}
""",
    "heap": """
int main() {
    int *p = (int *)malloc(3);
    p[1] = 8;
    int v = p[1];
    free(p);
    usleep(1);
    __asm__("" ::: "memory");
    return v;
}
""",
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_print_parse_roundtrip_is_stable(name):
    module = compile_source(SOURCES[name], name)
    text = print_module(module)
    reparsed = parse_module(text)
    assert print_module(reparsed) == text


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_reparsed_module_runs_identically(name):
    module = compile_source(SOURCES[name], name)
    expected = run_module(module)
    reparsed = parse_module(print_module(module))
    actual = run_module(reparsed)
    assert actual.exit_value == expected.exit_value
    assert actual.output == expected.output


def test_ported_module_roundtrips_with_marks():
    module = compile_source(BENCHMARKS["ck_sequence"].mc_source(), "seq")
    ported, _ = port_module(module, PortingLevel.ATOMIG)
    text = print_module(ported)
    reparsed = parse_module(text)
    assert print_module(reparsed) == text
    # Marks survive, so the diff/report machinery keeps working.
    marked = [
        i for i in reparsed.instructions() if "optimistic_control" in i.marks
    ]
    assert marked


def test_reparsed_port_still_verifies_under_wmm():
    from repro.api import check_module

    module = compile_source(BENCHMARKS["message_passing"].mc_source(), "mp")
    ported, _ = port_module(module, PortingLevel.ATOMIG)
    reparsed = parse_module(print_module(ported))
    assert check_module(reparsed, model="wmm", max_steps=400).ok


def test_unknown_global_rejected():
    with pytest.raises(IRError, match="unknown global"):
        parse_module("""
func @main() -> int {
entry0:
  %1 = load @nothing
  ret %1
}
""")


def test_undefined_value_rejected():
    with pytest.raises(IRError, match="undefined value"):
        parse_module("""
func @main() -> int {
entry0:
  ret %ghost
}
""")


def test_duplicate_block_label_rejected_at_second_occurrence():
    with pytest.raises(IRError, match=r"@main/loop1: duplicate block label"):
        parse_module("""
func @main() -> void {
entry0:
  br loop1
loop1:
  br loop1
loop1:
  ret void
}
""")


def test_garbage_instruction_rejected():
    with pytest.raises(IRError):
        parse_module("""
func @main() -> void {
entry0:
  frobnicate %1
  ret void
}
""")


def test_handwritten_ir_is_accepted():
    module = parse_module("""
; module hand
global @g: int = 5

func @main() -> int {
entry0:
  %1 = load @g
  %2 = %1 * 2
  ret %2
}
""")
    assert run_module(module).exit_value == 10
