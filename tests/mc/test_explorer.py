"""Tests for the exploration driver and its bounding behaviour."""

import pytest

from repro.api import compile_source
from repro.mc.explorer import check_module, compare_models
from repro.mc.machine import Machine


def test_single_threaded_program_single_pass():
    module = compile_source("""
int main() {
    int sum = 0;
    for (int i = 0; i < 5; i++) { sum = sum + i; }
    assert(sum == 10);
    return sum;
}
""")
    result = check_module(module, model="wmm")
    assert result.ok
    assert not result.truncated


def test_assert_failure_reported_with_location():
    module = compile_source("""
int main() { assert(0); return 0; }
""")
    result = check_module(module, model="sc")
    assert not result.ok
    assert "main" in result.violation


def test_all_interleavings_of_racy_counter_found():
    """Plain increments can lose updates even under SC (read-modify-
    write splitting), so the strict assertion must fail."""
    module = compile_source("""
int c = 0;
void bump() { int t = c; c = t + 1; }
int main() {
    int t = thread_create(bump);
    bump();
    thread_join(t);
    assert(c == 2);
    return 0;
}
""")
    result = check_module(module, model="sc")
    assert not result.ok  # the lost-update interleaving exists


def test_atomic_counter_is_safe_under_all_models():
    module = compile_source("""
int c = 0;
void bump() { atomic_fetch_add(&c, 1); }
int main() {
    int t = thread_create(bump);
    bump();
    thread_join(t);
    assert(c == 2);
    return 0;
}
""")
    results = compare_models(module, max_steps=400)
    assert all(result.ok for result in results.values())


def test_stable_spin_converges_by_state_dedup():
    """A spinloop over unchanging memory revisits the same canonical
    state, so exploration converges without hitting the step bound."""
    module = compile_source("""
int never = 0;
int main() {
    while (never == 0) { }
    return 0;
}
""")
    result = check_module(module, model="wmm", max_steps=500)
    assert result.ok
    assert not result.truncated
    assert result.states_explored < 10


def test_step_bound_truncates_diverging_loops():
    """A loop whose state keeps changing is cut by the step bound and
    reported as truncated rather than looping forever."""
    module = compile_source("""
int main() {
    int n = 0;
    while (1) { n = n + 1; }
    return n;
}
""")
    result = check_module(module, model="wmm", max_steps=60)
    assert result.ok
    assert result.truncated


def test_state_budget_truncates():
    module = compile_source("""
int a; int b; int c;
void t1() { a = 1; b = 1; c = 1; }
int main() {
    int t = thread_create(t1);
    a = 2; b = 2; c = 2;
    thread_join(t);
    return 0;
}
""")
    result = check_module(module, model="wmm", max_states=5)
    assert result.truncated
    assert "state budget" in " ".join(result.notes)


def test_division_by_zero_is_a_violation():
    module = compile_source("""
int z = 0;
int main() { return 5 / z; }
""")
    result = check_module(module, model="sc")
    assert not result.ok
    assert "division" in result.violation


def test_three_threads_explored():
    module = compile_source("""
int x = 0;
void t1() { atomic_fetch_add(&x, 1); }
void t2() { atomic_fetch_add(&x, 10); }
int main() {
    int a = thread_create(t1);
    int b = thread_create(t2);
    thread_join(a);
    thread_join(b);
    assert(x == 11);
    return 0;
}
""")
    result = check_module(module, model="wmm", max_steps=400)
    assert result.ok


def test_counterexample_is_depth_first_deterministic():
    module = compile_source("""
int flag = 0;
int msg = 0;
void w() { msg = 1; flag = 1; }
int main() {
    int t = thread_create(w);
    while (flag == 0) { }
    assert(msg == 1);
    thread_join(t);
    return 0;
}
""")
    first = check_module(module, model="wmm", max_steps=300)
    second = check_module(module, model="wmm", max_steps=300)
    assert not first.ok and not second.ok
    assert first.trace == second.trace


def test_missing_entry_function_is_reported():
    module = compile_source("int helper() { return 1; }")
    result = check_module(module, model="sc")
    assert not result.ok
    assert "initialization failed" in result.violation


@pytest.mark.parametrize("por", ["none", "sleep", "dpor"])
def test_internal_error_during_initialization_propagates(monkeypatch, por):
    """A kernel or liveness bug while the root state quiesces is not a
    program bug: it must not come back as an "initialization failed"
    violation."""
    module = compile_source("int main() { return 0; }")

    def broken_quiescence(self, state):
        raise KeyError("register lost by the env GC")

    monkeypatch.setattr(Machine, "run_quiescence", broken_quiescence)
    with pytest.raises(KeyError):
        check_module(module, model="sc", por=por)
