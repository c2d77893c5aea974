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
from repro.opt.candidates import (
    DELETE,
    apply_proposal,
    enumerate_candidates,
)
from repro.opt.oracle import Oracle
from repro.opt.report import OptimizationReport
from repro.vm.costs import CostModel, estimate_cost


def optimize_module(module, model="wmm", entry="main", max_steps=2500,
                    max_states=400_000, jobs=1, cost_model=None,
                    counts=None, require_marks=True, clone=True,
                    robustness=True, repair_seed=False, por="sleep",
                    macro="on"):
    """Weaken ``module``'s barriers as far as the oracle certifies.

    Returns ``(optimized_module, OptimizationReport)``.  The input
    module is cloned (unless ``clone=False``), so ported and optimized
    variants can be compared side by side.

    ``counts`` is an optional ``(function, block, index) -> executed``
    mapping (see ``run_module(record_counts=True)``) that weights the
    candidate order by dynamic execution frequency; without it the
    static cost model decides.  ``jobs > 1`` fans bisection probes
    across the :func:`repro.core.workers.run_batch` pool.
    ``require_marks=False`` also considers SC accesses without porter
    provenance marks (for hand-written modules).  ``robustness=False``
    disables the oracle's static fast path (every query explores).

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
    work = module.clone() if clone else module
    costs = cost_model or CostModel()
    report = OptimizationReport(
        module_name=module.name, model=model,
        dynamic_counts=counts is not None,
    )

    if entry not in work.functions:
        report.notes.append(
            f"no entry function @{entry}; module left unoptimized"
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

    oracle = Oracle(
        model=model, entry=entry, max_steps=max_steps,
        max_states=max_states, jobs=jobs, robustness=robustness,
        analyzer=analyzer, por=por, macro=macro,
    )
    baseline = oracle.establish(work)
    report.baseline_outcome = baseline.outcome
    report.cost_before = estimate_cost(work, costs, counts).to_dict()

    if baseline.outcome == "truncated":
        report.final_outcome = baseline.outcome
        report.notes.append(
            "baseline exploration truncated: the oracle cannot certify "
            "any weakening; module left unoptimized"
        )
        report.wall_seconds = time.perf_counter() - started
        _fill_counters(report, oracle)
        return work, report

    candidates = enumerate_candidates(
        work, costs, counts=counts, require_marks=require_marks
    )
    report.candidates = len(candidates)

    optimizer = _GreedyWeakener(work, oracle, jobs=jobs)
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
        optimizer.settle(active)

    _finalize(report, work, candidates, costs, counts, oracle)
    report.wall_seconds = time.perf_counter() - started
    work.metadata["optimization_report"] = report.to_dict()
    return work, report


class _GreedyWeakener:
    """Batched-bisection settlement over one working module."""

    def __init__(self, module, oracle, jobs=1):
        self.module = module
        self.oracle = oracle
        self.jobs = jobs or 1

    def settle(self, candidates):
        """Certify as many of ``candidates``' proposals as possible.

        Returns the number of accepted proposals.  Applies are undone
        LIFO on rejection, so the module always ends in a state whose
        verdict the oracle has confirmed (or the untouched base).
        """
        if not candidates:
            return 0
        undos = [apply_proposal(c) for c in candidates]
        if self.oracle.matches(self.module):
            for candidate in candidates:
                candidate.accept()
            return len(candidates)
        for undo in reversed(undos):
            undo()
        if len(candidates) == 1:
            candidates[0].reject()
            return 0
        middle = len(candidates) // 2
        left, right = candidates[:middle], candidates[middle:]
        if self.jobs > 1:
            return self._settle_parallel(left, right)
        return self.settle(left) + self.settle(right)

    def _settle_parallel(self, left, right):
        """Probe both bisection halves concurrently against this base."""
        from repro.ir.printer import print_module

        texts = []
        for half in (left, right):
            undos = [apply_proposal(c) for c in half]
            texts.append(print_module(self.module))
            for undo in reversed(undos):
                undo()
        verdicts = self.oracle.probe(texts)
        baseline = self.oracle.baseline_outcome

        if verdicts[0] == baseline:
            # Left is certified against the *current* base: commit it
            # without a re-check.
            for candidate in left:
                apply_proposal(candidate)
                candidate.accept()
            accepted = len(left)
        else:
            accepted = self.settle(left)

        if verdicts[1] == baseline and accepted == 0:
            # The base did not change, so right's probe verdict still
            # holds — commit it check-free as well.
            for candidate in right:
                apply_proposal(candidate)
                candidate.accept()
            return len(right)
        # Base changed (or right failed outright): settle right on top
        # of whatever left committed.
        return accepted + self.settle(right)


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
    report.final_outcome = oracle.verdict(work)
    _fill_counters(report, oracle)


def _fill_counters(report, oracle):
    counters = oracle.counters()
    report.checks_run = counters["checks_run"]
    report.cache_hits = counters["cache_hits"]
    report.oracle_states = counters["states_total"]
    report.parallel_probes = counters["parallel_probes"]
    report.robustness_checks = counters["robustness_checks"]
    report.robustness_hits = counters["robustness_hits"]
    report.robustness_states_saved = counters["robustness_states_saved"]
    report.baseline_robust = counters["baseline_robust"]
