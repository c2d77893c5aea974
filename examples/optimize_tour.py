"""A tour of oracle-guided barrier weakening (Table 9).

AtoMig's answer to "which accesses need ordering?" is *all of them*:
every marked access becomes an SC atomic.  That blanket is what keeps
the migration safe at millions-of-lines scale — and what makes the
ported code trail hand-tuned baselines on hot paths (Table 5).

``repro.opt`` closes that gap after the fact.  Starting from the
blanket-SC port it walks each barrier down a weakening ladder
(seq_cst -> release/acquire -> relaxed; porter fences -> deleted),
re-running the WMM model checker as an oracle after each batch of
steps, and reverting anything that changes the verdict.  The result is
certified: same checker verdict as the blanket port, strictly cheaper
barriers.

This tour runs the spinlock benchmark (ck_spinlock_cas) through the
ladder one certified batch at a time, printing the oracle's verdict on
every probe so the greedy/bisect loop is visible, then shows the final
Table 9 style summary.

Run:  python examples/optimize_tour.py
"""

from repro import PortingLevel, check_module, compile_source, port_module
from repro.bench.corpus import get_benchmark
from repro.ir.printer import print_function
from repro.opt import Oracle, enumerate_candidates, optimize_module
from repro.vm.costs import CostModel, estimate_cost


def walk_one_site(candidate, oracle):
    """Weaken one site rung by rung, reporting each oracle verdict."""
    while True:
        proposal = candidate.proposal()
        if proposal is None:
            break
        label = "delete" if proposal == "delete" else proposal.name.lower()
        undo = oracle.apply(candidate)
        if oracle.matches():
            candidate.accept()
            print(f"      try {label:18} -> verdict unchanged, commit")
        else:
            undo()
            candidate.reject()
            print(f"      try {label:18} -> verdict CHANGED, revert")
    if candidate.frozen:
        kept = candidate.committed or candidate.original_order
        print(f"      frozen at {kept.name.lower()}")


def main():
    benchmark = get_benchmark("ck_spinlock_cas")
    module = compile_source(benchmark.mc_source(), name="spinlock")
    ported, _ = port_module(module, PortingLevel.ATOMIG)
    costs = CostModel()

    print("== the blanket-SC port (every marked access is seq_cst) ==")
    print(print_function(ported.functions["lock"]))
    sc_cost = estimate_cost(ported, costs)
    print(f"estimated barrier cost: {sc_cost.barriers} cycles "
          f"over {sc_cost.barrier_sites} sites")
    print()

    # --- Step by step: one site at a time, one oracle check per rung.
    # This is the naive O(sites * rungs) loop; the real optimizer
    # batches and bisects, but the per-rung verdicts are easier to see
    # this way.
    work = ported.clone()
    oracle = Oracle(work)
    baseline = oracle.establish()
    print(f"== baseline verdict: {baseline.outcome} "
          f"({baseline.states_explored} states) ==")
    candidates = enumerate_candidates(work, costs)
    oracle.track(candidates)
    print(f"{len(candidates)} candidate sites, "
          f"most expensive first:")
    for candidate in candidates:
        function, block, index = candidate.position
        print(f"   {function}.{block}[{index}] "
              f"({candidate.kind}, saves up to "
              f"{candidate.savings(costs)} cycles):")
        walk_one_site(candidate, oracle)
    naive_checks = oracle.checks_run
    print(f"naive ladder walk: {naive_checks} oracle checks")
    print()

    # --- The real thing: batched + bisected, same certificate.
    optimized, report = optimize_module(ported)
    print("== atomig optimize (batched bisection) ==")
    print(report.render())
    print()
    print(f"batched bisection used {report.checks_run} checks where the "
          f"one-site-at-a-time walk above used {naive_checks}.")
    print()

    print("== the lock function after weakening ==")
    print(print_function(optimized.functions["lock"]))

    # The oracle's word, independently re-checked.
    result = check_module(optimized, model="wmm", max_steps=2500)
    print(f"independent re-check under WMM: "
          f"{'correct' if result.ok else 'BUG'}")


if __name__ == "__main__":
    main()
