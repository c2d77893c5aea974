"""The correctness oracle: model-checker calls the optimizer trusts.

Every weakening is certified by re-running the WMM model checker and
comparing the *outcome class* (ok / violation / deadlock / truncated)
against the baseline verdict of the unoptimized module — Manerkar et
al.'s trailing-sync counterexamples are the cautionary tale for why a
mapping table is not enough; each relaxation is re-verified.

Four mechanisms keep the oracle cheap enough to sit in a greedy loop:

- **Verdict caching**: module states are keyed by a BLAKE2 digest of
  their printed IR prefixed with the oracle's configuration (model,
  entry, bounds), so verdicts can never alias across configurations;
  bisection frequently revisits a configuration (a batch minus its
  rejected half), and a cache hit costs one print instead of one
  exploration.
- **Robustness fast path**: when the baseline module is statically
  robust (no critical cycle with an unenforced delay — see
  :mod:`repro.analysis.robustness`), any candidate that is *still*
  robust provably has the baseline's verdict: both equal their SC
  verdict, and memory orders are inert under SC, so the two SC
  verdicts coincide.  Such queries are answered without exploring a
  single state; non-robust candidates fall back to exploration.
- **Adaptive state budgets**: candidate checks run under a budget
  derived from the baseline exploration size (``baseline_states x
  margin``) instead of the caller's full ``max_states`` — a weakening
  that blows up the state space reads as *truncated*, mismatches the
  baseline outcome, and is reverted without exploring millions of
  states.  The PR-2 reduction machinery (sleep sets, macro-stepping)
  stays on, so each check only pays for the delta the new orders open.
- **Parallel probes**: bisection halves are independent variants of
  the same base module; with ``jobs > 1`` they are printed to IR text
  and fanned across the :func:`repro.core.workers.run_batch` pool as
  ``is_ir`` check tasks.
"""

import hashlib

from repro.core.workers import run_batch
from repro.ir.printer import print_module
from repro.mc.explorer import check_module
from repro.mc.parallel import CheckTask


class Oracle:
    """Verdict service for one optimization run."""

    #: Candidate checks may explore this many times the baseline's
    #: scheduling decisions before counting as truncated.
    STATE_MARGIN = 64
    #: ... but never less than this floor (tiny baselines would
    #: otherwise starve legitimate weakenings of budget).
    STATE_FLOOR = 20_000

    def __init__(self, model="wmm", entry="main", max_steps=2500,
                 max_states=400_000, jobs=1, robustness=True, analyzer=None,
                 por="sleep", macro="on"):
        self.model = model
        self.entry = entry
        self.max_steps = max_steps
        self.max_states = max_states
        #: POR backend / macro-stepping for every probe.  Deliberately
        #: *not* part of the verdict cache key: all reduction backends
        #: are verdict-identical by construction (the DPOR-vs-sleep
        #: identity property suite and the corpus CI gate check it), so
        #: keying on them would only split the cache.
        self.por = por
        self.macro = macro
        self.jobs = jobs or 1
        self.robustness = robustness
        self.baseline_outcome = None
        self.baseline_states = 0
        self.baseline_robust = False
        self.budget = max_states
        self.checks_run = 0
        self.cache_hits = 0
        self.states_total = 0
        self.parallel_probes = 0
        self.robustness_checks = 0
        self.robustness_hits = 0
        self._verdicts = {}
        #: An already-built :class:`RobustnessAnalyzer` bound to the
        #: module this oracle will serve (the repair pass hands its
        #: graph over so seeding the weakener costs no rebuild); lazily
        #: built otherwise.
        self._analyzer = analyzer

    # -- baseline ----------------------------------------------------------

    def establish(self, module):
        """Check the unoptimized module; fix the verdict to preserve."""
        result = self._check(module, self.max_states)
        self.baseline_outcome = result.outcome
        self.baseline_states = result.states_explored
        self.budget = min(
            self.max_states,
            max(self.baseline_states * self.STATE_MARGIN,
                self.STATE_FLOOR),
        )
        self._remember(self._digest(print_module(module)),
                       result.outcome)
        if self.robustness and result.outcome != "truncated":
            self.baseline_robust = self._is_robust(module)
        return result

    # -- candidate checks --------------------------------------------------

    def matches(self, module):
        """True when ``module``'s outcome equals the baseline's."""
        return self.verdict(module) == self.baseline_outcome

    def verdict(self, module):
        """Outcome class for ``module``, via the cache when possible."""
        text = print_module(module)
        key = self._digest(text)
        if key in self._verdicts:
            self.cache_hits += 1
            return self._verdicts[key]
        if self._fastpath_ready() and self._is_robust(module):
            # Robust candidate + robust baseline: both verdicts equal
            # their SC verdict, and orders are inert under SC, so the
            # candidate's outcome *is* the baseline outcome.
            self.robustness_hits += 1
            self._remember(key, self.baseline_outcome)
            return self.baseline_outcome
        result = self._check(module, self.budget)
        self._remember(key, result.outcome)
        return result.outcome

    def probe(self, texts):
        """Outcomes for printed-IR variants, fanned across the pool.

        Used by parallel bisection: the variants are independent, so
        with ``jobs > 1`` they check concurrently.  Results come from
        the cache (or the robustness fast path) where possible and are
        cached afterwards.
        """
        keys = [self._digest(text) for text in texts]
        pending = []
        for key, text in zip(keys, texts):
            if key in self._verdicts:
                self.cache_hits += 1
            elif self._fastpath_ready() and self._is_robust_text(text):
                self.robustness_hits += 1
                self._remember(key, self.baseline_outcome)
            else:
                pending.append((key, text))
        if pending:
            tasks = [
                CheckTask(
                    name="opt-probe", source=text, model=self.model,
                    level=None, entry=self.entry,
                    max_steps=self.max_steps, max_states=self.budget,
                    por=self.por, macro=self.macro, is_ir=True,
                )
                for _key, text in pending
            ]
            self.parallel_probes += len(tasks)
            # jobs, not min(jobs, len(tasks)): the pool registry is
            # keyed by worker count, so a constant count means every
            # bisection round — whatever its batch size — reuses the
            # same persistent workers (and their module caches).
            results = run_batch(tasks, jobs=self.jobs)
            for (key, _text), result in zip(pending, results):
                self.checks_run += 1
                self.states_total += result.states_explored
                self._remember(key, result.outcome)
        return [self._verdicts[key] for key in keys]

    # -- robustness fast path ----------------------------------------------

    def _fastpath_ready(self):
        """Fast-path soundness needs a robust, explored baseline."""
        return (self.robustness and self.baseline_robust
                and self.baseline_outcome is not None)

    def _is_robust(self, module):
        """Static robustness of ``module``, reusing the conflict graph.

        The optimizer mutates one module in place (orders change,
        fences are deleted, but no access appears or disappears), so
        the analyzer's order-independent conflict graph stays valid
        across queries; only the cheap program-order dataflow reruns.
        """
        from repro.analysis.robustness import RobustnessAnalyzer

        self.robustness_checks += 1
        if self.model == "sc":
            return True
        if self._analyzer is None or self._analyzer.module is not module:
            self._analyzer = RobustnessAnalyzer(module, model=self.model)
        return self._analyzer.analyze(max_witnesses=1).robust

    def _is_robust_text(self, text):
        from repro.analysis.robustness import analyze_robustness
        from repro.ir.parser import parse_module

        self.robustness_checks += 1
        if self.model == "sc":
            return True
        return analyze_robustness(
            parse_module(text), model=self.model, max_witnesses=1
        ).robust

    # -- plumbing ----------------------------------------------------------

    def _check(self, module, max_states):
        self.checks_run += 1
        result = check_module(
            module, model=self.model, entry=self.entry,
            max_steps=self.max_steps, max_states=max_states,
            por=self.por, macro=self.macro,
        )
        self.states_total += result.states_explored
        return result

    def _remember(self, key, outcome):
        self._verdicts[key] = outcome

    def _digest(self, text):
        """Cache key: configuration prefix + printed IR.

        The prefix keys the verdict on everything that can change it —
        model, entry point, and exploration bounds — so a shared or
        on-disk cache can never alias verdicts across configurations.
        The budget component is the *configured* ``max_states`` ceiling,
        not the per-call adaptive budget: the adaptive budget is itself
        a function of (module, config), so including it would only
        split the cache without adding discrimination.  The reduction
        knobs (``por``/``macro``) are excluded for the same reason:
        every backend returns the same verdict by construction, so a
        verdict probed under sleep sets is equally valid for a DPOR
        run.
        """
        prefix = (
            f"{self.model}|{self.entry}|{self.max_steps}|"
            f"{self.max_states}|"
        )
        return hashlib.blake2b(
            prefix.encode() + text.encode(), digest_size=16
        ).digest()

    def counters(self):
        return {
            "checks_run": self.checks_run,
            "cache_hits": self.cache_hits,
            "states_total": self.states_total,
            "parallel_probes": self.parallel_probes,
            "budget": self.budget,
            "robustness_checks": self.robustness_checks,
            "robustness_hits": self.robustness_hits,
            "robustness_states_saved":
                self.robustness_hits * self.baseline_states,
            "baseline_robust": self.baseline_robust,
        }
