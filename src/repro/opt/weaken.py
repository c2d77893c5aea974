"""Oracle-guided barrier weakening (the ``repro.opt`` entry point).

AtoMig deliberately over-synchronizes: every marked access becomes an
SC atomic.  That is what makes it *safe* on millions of lines, and what
makes it trail hand-ported baselines on hot paths.  This module closes
the gap the VSync way — checker-certified relaxation — without giving
up the blanket guarantee: the optimized module provably returns the
same model-checker verdict as the blanket-SC port.

The algorithm is greedy, round-based and batched:

1. Enumerate candidates (SC accesses with porter provenance, and
   porter-inserted fences), ordered by estimated cycle savings from
   :mod:`repro.vm.costs` — the most expensive barriers weaken first.
2. Each round applies one ladder rung per active candidate *in batch*
   and asks the oracle once.  Verdict unchanged: the whole batch
   commits with a single check.  Verdict changed: the batch is
   *bisected* — apply half, check, recurse — isolating the offending
   sites in O(k log n) checks for k rejections instead of O(n).
3. A rejected rung advances to its next alternative (an RMW may keep
   just its acquire or just its release half) or freezes the site;
   every weaker rung would fail too, so freezing is sound.
4. Rounds repeat until no candidate can move, then the result is
   re-verified (IR well-formedness) and the final verdict re-read from
   the oracle's cache.

Reverts are pure undo: a rejected batch restores the exact previous
module state, so the optimizer can never leave a bug behind — the
worst case is the unchanged blanket-SC module.
"""

import time

from repro.ir.verifier import verify_module
from repro.opt.candidates import DELETE, enumerate_candidates
from repro.opt.oracle import Oracle
from repro.opt.report import OptimizationReport
from repro.vm.costs import CostModel, estimate_cost


def optimize_module(module, model="wmm", max_steps=2500,
                    max_states=400_000, cost_model=None, counts=None,
                    require_marks=True, clone=True, robustness=True,
                    repair_seed=False):
    """Weaken ``module``'s barriers as far as the oracle certifies.

    Returns ``(optimized_module, OptimizationReport)``.  The input
    module is forked (unless ``clone=False``), so ported and optimized
    variants can be compared side by side; the weakener owns
    (:meth:`Module.own`) the functions that hold candidates before it
    writes them.

    ``counts`` is an optional ``(function, block, index) -> executed``
    mapping (see ``run_module(record_counts=True)``) that weights the
    candidate order by dynamic execution frequency; without it the
    static cost model decides.  ``require_marks=False`` also considers
    SC accesses without porter provenance marks (for hand-written
    modules).  ``robustness=False`` disables the oracle's static fast
    path (every query explores).

    ``repair_seed=True`` first runs the static fence-repair pass
    (:func:`repro.analysis.repair.repair_module`) on the working module
    so the weakener starts from a *robust* minimal-fence seed instead
    of whatever (possibly non-robust) state it was handed: the oracle's
    baseline then classifies robust, its static fast path answers
    candidate queries without exploration, and the shared analyzer
    graph is reused by both passes.  The repair evidence lands in
    ``report.repair``.
    """
    started = time.perf_counter()
    work = module.fork() if clone else module
    costs = cost_model or CostModel()
    report = OptimizationReport(
        module_name=module.name, model=model,
        dynamic_counts=counts is not None,
    )

    if "main" not in work.functions:
        report.notes.append(
            "no entry function @main; module left unoptimized"
        )
        report.wall_seconds = time.perf_counter() - started
        return work, report

    analyzer = None
    if repair_seed and model != "sc":
        from repro.analysis.repair import repair_module
        from repro.analysis.robustness import RobustnessAnalyzer

        analyzer = RobustnessAnalyzer(work, model=model)
        _, repair_report = repair_module(
            work, model=model, cost_model=costs, clone=False,
            analyzer=analyzer,
        )
        report.repair = repair_report.to_dict()
        if repair_report.rounds:
            report.notes.append(repair_report.summary())

    candidates = None
    if clone:
        # The fork shares every function with ``module``: own the
        # candidates' functions before the oracle builds its context,
        # or its first candidate check would build a second one.
        candidates = _own_candidates(work, costs, counts, require_marks)
    oracle = Oracle(
        work, model=model, max_steps=max_steps, max_states=max_states,
        robustness=robustness, analyzer=analyzer,
    )
    baseline = oracle.establish()
    report.baseline_outcome = baseline.outcome
    report.cost_before = estimate_cost(work, costs, counts).to_dict()

    if baseline.outcome == "truncated":
        report.final_outcome = baseline.outcome
        report.cost_after = dict(report.cost_before)
        report.notes.append(
            "baseline exploration truncated: the oracle cannot certify "
            "any weakening; module left unoptimized"
        )
        report.wall_seconds = time.perf_counter() - started
        _fill_counters(report, oracle)
        return work, report

    if candidates is None:
        candidates = _own_candidates(work, costs, counts, require_marks)
    report.candidates = len(candidates)
    oracle.track(candidates)

    while True:
        active = [
            candidate for candidate in candidates
            if candidate.proposal() is not None
        ]
        if not active:
            break
        # Most expensive rungs first, stable on position: the batched
        # check certifies them together, but bisection halves follow
        # this order, so the big wins settle in the fewest checks.
        active.sort(key=lambda c: (-c.savings(costs), c.position))
        report.rounds += 1
        _settle(oracle, active)

    _finalize(report, work, candidates, costs, counts, oracle)
    report.wall_seconds = time.perf_counter() - started
    work.metadata["optimization_report"] = report.to_dict()
    return work, report


def _own_candidates(work, costs, counts, require_marks):
    """``work``'s candidates, their functions owned and re-pointed."""
    candidates = enumerate_candidates(
        work, costs, counts=counts, require_marks=require_marks
    )
    mapping = work.own_holders(candidate.instr for candidate in candidates)
    for candidate in candidates:
        candidate.instr = mapping.get(candidate.instr, candidate.instr)
    return candidates


def _settle(oracle, candidates):
    """Certify as many of ``candidates``' proposals as possible.

    Batched bisection over the oracle's one working module.  Returns
    the number of accepted proposals.  Applies are undone LIFO on
    rejection, so the module always ends in a state whose verdict the
    oracle has confirmed (or the untouched base).  Every proposal is a
    rung below its candidate's committed order and every other
    candidate stays committed, so each query is pointwise no stronger
    than the last accepted state.
    """
    if not candidates:
        return 0
    undos = [oracle.apply(c) for c in candidates]
    if oracle.matches():
        for candidate in candidates:
            candidate.accept()
        return len(candidates)
    for undo in reversed(undos):
        undo()
    if len(candidates) == 1:
        candidates[0].reject()
        return 0
    middle = len(candidates) // 2
    return (_settle(oracle, candidates[:middle])
            + _settle(oracle, candidates[middle:]))


def _finalize(report, work, candidates, costs, counts, oracle):
    """Fill per-site entries, re-verify, and close out the report."""
    touched = set()
    for candidate in candidates:
        function, block, index = candidate.position
        if candidate.history:
            touched.add(function)
            after = ("deleted" if candidate.committed is DELETE
                     else candidate.committed.name.lower())
            saved = costs.access_cost(
                candidate.instr, candidate.original_order
            )
            if candidate.committed is not DELETE:
                saved -= costs.access_cost(
                    candidate.instr, candidate.committed
                )
            report.weakened.append({
                "function": function,
                "block": block,
                "index": index,
                "kind": candidate.kind,
                "instr": repr(candidate.instr),
                "before": candidate.original_order.name.lower(),
                "after": after,
                "saved_cycles": saved * candidate.weight,
            })
            if candidate.committed is DELETE:
                report.fences_deleted += 1
            else:
                report.accesses_weakened += 1
        elif candidate.frozen:
            rejected = candidate.last_rejected
            report.frozen.append({
                "function": function,
                "block": block,
                "index": index,
                "kind": candidate.kind,
                "instr": repr(candidate.instr),
                "kept": candidate.original_order.name.lower(),
                "rejected": ("deletion" if rejected is DELETE
                             else rejected.name.lower() if rejected
                             else "?"),
            })
    if touched:
        verify_module(work, functions=touched)
    report.cost_after = estimate_cost(work, costs, counts).to_dict()
    # The final state's verdict is always already cached: every commit
    # was preceded by a check of exactly that state.
    report.final_outcome = oracle.verdict()
    _fill_counters(report, oracle)


def _fill_counters(report, oracle):
    counters = oracle.counters()
    report.checks_run = counters["checks_run"]
    report.cache_hits = counters["cache_hits"]
    report.oracle_states = counters["states_total"]
    report.robustness_checks = counters["robustness_checks"]
    report.robustness_hits = counters["robustness_hits"]
    report.robustness_states_saved = counters["robustness_states_saved"]
    report.baseline_robust = counters["baseline_robust"]
