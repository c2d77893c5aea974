"""Deeper tests of machine internals: reservations, drains, finishing."""

from repro.api import check_module, compile_source
from repro.mc.machine import Context, FINISHED, FINISHING, Machine
from repro.mc.models import get_model


def machine_for(source, model="wmm", max_steps=800):
    module = compile_source(source)
    return Machine(Context(module, get_model(model)), max_steps=max_steps)


def drive_to_end(machine, state):
    """Apply arbitrary enabled actions until quiescent-terminal."""
    guard = 0
    while state.violation is None:
        actions = machine.enabled_actions(state)
        if not actions:
            break
        machine.apply_action(state, actions[0][0])
        guard += 1
        assert guard < 10_000
    return state


class TestReservations:
    SOURCE = """
int x = 0;
void other() { atomic_fetch_add_explicit(&x, 5, memory_order_relaxed); }
int main() {
    int t = thread_create(other);
    atomic_fetch_add_explicit(&x, 1, memory_order_relaxed);
    thread_join(t);
    assert(x == 6);
    return 0;
}
"""

    def test_concurrent_rmws_never_lose_updates(self):
        result = check_module(
            compile_source(self.SOURCE), model="wmm", max_steps=800
        )
        assert result.ok

    def test_reservation_blocks_competing_writer(self):
        machine = machine_for(self.SOURCE)
        state = machine.initial_state()
        # Find and execute one thread's rmw (the exec action).
        actions = machine.enabled_actions(state)
        rmw_actions = [a for a, _key in actions if a[0] == "commit"]
        assert rmw_actions
        machine.apply_action(state, rmw_actions[0])
        reserved = dict(state.reservations)
        if reserved:
            addr = next(iter(reserved))
            holder = reserved[addr]
            # No other thread may now commit a write to that address.
            for action, _key in machine.enabled_actions(state):
                if action[0] != "commit":
                    continue
                tid = action[1]
                entry = state.threads[tid].window[action[2]]
                if entry.addr == addr and entry.kind in (
                    "store", "rmw", "rmw_store"
                ):
                    assert tid == holder


class TestFinishing:
    def test_thread_drains_window_after_return(self):
        source = """
int out = 0;
void fire_and_forget() {
    out = 9;   // still buffered when the function returns
}
int main() {
    int t = thread_create(fire_and_forget);
    thread_join(t);
    assert(out == 9);
    return 0;
}
"""
        machine = machine_for(source)
        state = machine.initial_state()
        # Run until the worker is past its code; its store may linger.
        saw_finishing = False
        guard = 0
        while state.violation is None:
            for thread in state.threads.values():
                if thread.status == FINISHING:
                    saw_finishing = True
                    assert thread.window  # that's why it's finishing
            actions = machine.enabled_actions(state)
            if not actions:
                break
            machine.apply_action(state, actions[0][0])
            guard += 1
            assert guard < 2000
        assert state.violation is None
        assert all(
            t.status == FINISHED for t in state.threads.values()
        )
        assert saw_finishing  # the drain phase was actually exercised

    def test_join_waits_for_the_drain(self):
        """join must not complete while the target's stores are pending
        — otherwise the asserting reader could miss them."""
        result = check_module(compile_source("""
int out = 0;
void w() { out = 1; }
int main() {
    int t = thread_create(w);
    thread_join(t);
    assert(out == 1);
    return 0;
}
"""), model="wmm", max_steps=400)
        assert result.ok


class TestFences:
    def test_fence_blocks_until_window_empty(self):
        source = """
int a = 0;
int b = 0;
int main() {
    a = 1;
    atomic_thread_fence(memory_order_seq_cst);
    b = 1;
    return 0;
}
"""
        machine = machine_for(source)
        state = machine.initial_state()
        # At quiescence the thread is blocked at the fence with the
        # store to a pending.
        thread = state.threads[0]
        assert thread.status in ("blocked", "finished")
        if thread.status == "blocked":
            assert len(thread.window) == 1
            assert thread.window[0].addr == machine.ctx.global_addr["a"]
        drive_to_end(machine, state)
        assert state.violation is None


def test_output_collected_deterministically_single_thread():
    machine = machine_for("""
int main() {
    print(1);
    print(2);
    return 0;
}
""", model="sc")
    state = machine.initial_state()
    drive_to_end(machine, state)
    assert state.output == [1, 2]
