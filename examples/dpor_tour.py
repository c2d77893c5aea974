"""A tour of the source-DPOR exploration backend (``por="dpor"``).

The sleep-set backend (PR 2) prunes *locally*: after exploring thread
``t`` from a state, siblings that commute with ``t`` go to sleep.  The
source-DPOR backend explores the other way around: it runs ONE
interleaving to completion, watches the happens-before order the run
actually produced (tracked with vector clocks over per-address
processes), and only when two steps *raced* — ran unordered on the same
address with at least one write — does it schedule the reversal at the
exact point the race began.  The result is at most one interleaving
per happens-before equivalence class.

Where that wins and where it loses is the point of this tour:

- Conflict-light programs (locks, mostly-disjoint addresses) have few
  reversible races, so DPOR visits a fraction of what sleep sets do.
- Convergent spin loops are the structural counterexample: thousands
  of distinct interleavings collapse into a handful of *unique states*,
  which the stateful sleep+dedup engine collapses and stateless DPOR,
  by construction, cannot.

Both backends always return the same verdict — that identity is pinned
by tests/mc/test_dpor.py and the hypothesis suite in
tests/property/test_dpor_identity.py, and re-checked per PR by the
perf-smoke CI gate.

Run:  python examples/dpor_tour.py
"""

from repro import PortingLevel, check_module, compile_source, port_module
from repro.bench.corpus import get_benchmark
from repro.core.report import format_exploration_stats
from repro.mc.litmus import LITMUS_TESTS


def run_backends(module, model, **bounds):
    """Check ``module`` under every backend, returning {por: result}."""
    return {
        por: check_module(module, model=model, por=por, **bounds)
        for por in ("none", "sleep", "dpor")
    }


def show(results):
    for por, result in results.items():
        stats = result.stats
        extra = ""
        if por == "dpor":
            extra = (f", {stats.races_detected} races, "
                     f"{stats.backtrack_points} backtracks, "
                     f"{stats.equivalence_classes} classes")
        print(f"   por={por:5}  verdict={result.outcome:9} "
              f"visited={stats.states_visited:6}{extra}")


def main():
    bounds = dict(max_steps=3000, max_states=1_500_000)

    # --- 1. A litmus test: same verdict, different cost. -------------
    source, expected = LITMUS_TESTS["SB"]
    module = compile_source(source, "litmus_SB")
    print("== store buffering (SB) under WMM ==")
    print(f"expected: {'ok' if expected['wmm'] else 'violation'}")
    results = run_backends(module, "wmm", **bounds)
    show(results)
    print()

    print("== what --stats prints for the DPOR run ==")
    print(format_exploration_stats(results["dpor"].stats))
    print()

    # --- 2. The headline win: an MCS queue lock. ---------------------
    # Each contender spins on its OWN queue node, so almost nothing
    # races: DPOR finds a handful of reversible races where sleep sets
    # still enumerate scheduling noise.
    bench = get_benchmark("ck_spinlock_mcs")
    builder = bench.gate_source or bench.mc_source
    ported, _ = port_module(
        compile_source(builder(), "ck_spinlock_mcs"), PortingLevel.ATOMIG
    )
    print("== ck_spinlock_mcs (disjoint-address gate client, WMM) ==")
    results = run_backends(ported, "wmm", **bounds)
    show(results)
    sleep_v = results["sleep"].stats.states_visited
    dpor_v = results["dpor"].stats.states_visited
    print(f"   -> DPOR visits {sleep_v / max(dpor_v, 1):.1f}x fewer "
          f"states than sleep sets")
    print()

    # --- 3. The honest loss: a convergent spin loop. -----------------
    # ck_sequence readers spin until the sequence number is stable;
    # every retry re-converges to the same state.  Sleep+dedup collapses
    # the re-visits; stateless DPOR re-executes one run per equivalence
    # class, and here classes outnumber unique states.
    bench = get_benchmark("ck_sequence")
    builder = bench.gate_source or bench.mc_source
    ported, _ = port_module(
        compile_source(builder(), "ck_sequence"), PortingLevel.ATOMIG
    )
    print("== ck_sequence (convergent spin loop, WMM) ==")
    results = run_backends(ported, "wmm", **bounds)
    show(results)
    print("   -> the structural limit of stateless DPOR: equivalence")
    print("      classes outnumber unique states, so the stateful")
    print("      sleep+dedup engine wins here.  Same verdict either way;")
    print("      pick the backend per workload with --por.")


if __name__ == "__main__":
    main()
