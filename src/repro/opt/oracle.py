"""The correctness oracle: one model-checking session per weakened module.

Every weakening is certified by re-running the WMM model checker and
comparing the *outcome class* (ok / violation / deadlock / truncated)
against the baseline verdict of the unoptimized module — Manerkar et
al.'s trailing-sync counterexamples are the cautionary tale for why a
mapping table is not enough; each relaxation is re-verified.

An :class:`Oracle` is a session over the one module the weakener
rewrites in place, and every write between two checks goes through it
(:meth:`Oracle.apply` and the undo it returns).  Four mechanisms keep
it cheap enough to sit in a greedy loop (DESIGN.md §6d item 3):

- **One checker context**: every check runs on one
  :class:`repro.mc.machine.Context` (liveness, private accesses,
  access sets, the decode table).  Order rewrites and fence deletions
  leave all of it valid except the decoded code of the written block,
  which the write drops; the context is rebuilt only when
  :meth:`Oracle.track` finds a function of ``main``'s closure owned
  (:meth:`Module.own`) since :meth:`Oracle.establish`, and then on the
  established state.
- **Verdict caching**: verdicts are keyed on the *assignment*, each
  tracked candidate's current rung (its order, or ``"delete"``).  On
  one module an assignment names exactly one module state; bisection
  frequently revisits a state (a batch minus its rejected half), and a
  cache hit costs one tuple instead of one exploration.
- **Robustness fast path**: when the baseline module is statically
  robust (no critical cycle with an unenforced delay — see
  :mod:`repro.analysis.robustness`), any candidate that is *still*
  robust provably has the baseline's verdict: both equal their SC
  verdict, and memory orders are inert under SC, so the two SC
  verdicts coincide.  Such queries are answered without exploring a
  single state; non-robust candidates fall back to exploration.  Once
  the weakener has kept a non-robust state, the session stops asking:
  every later query is pointwise no stronger than that state, and
  non-robustness only grows as orders weaken.
- **Adaptive state budgets**: candidate checks run under a budget
  derived from the baseline exploration size (``baseline_states x
  margin``) instead of the caller's full ``max_states`` — a weakening
  that blows up the state space reads as *truncated*, mismatches the
  baseline outcome, and is reverted without exploring millions of
  states.  The checker's default reduction (sleep sets,
  macro-stepping) stays on, so each check only pays for the delta the
  new orders open.
"""

from repro.mc.explorer import check_module
from repro.mc.machine import Context
from repro.mc.models import get_model
from repro.opt.candidates import apply_proposal


class Oracle:
    """Verdict session over the one module a weakening run rewrites.

    :meth:`establish` checks the unoptimized module and fixes the
    verdict to preserve; :meth:`track` names the candidates whose rungs
    key the verdicts; from then on every proposal goes in through
    :meth:`apply` (undos in reverse order), and :meth:`matches`
    certifies the current state.  The weakener keeps every state
    :meth:`matches` certifies and only proposes rungs below it, which
    is what lets the session skip the robustness analysis below a
    non-robust kept state.
    """

    #: Candidate checks may explore this many times the baseline's
    #: scheduling decisions before counting as truncated.
    STATE_MARGIN = 64
    #: ... but never less than this floor (tiny baselines would
    #: otherwise starve legitimate weakenings of budget).
    STATE_FLOOR = 20_000

    def __init__(self, module, model="wmm", max_steps=2500,
                 max_states=400_000, robustness=True, analyzer=None):
        self.module = module
        self.model = model
        self.max_steps = max_steps
        self.max_states = max_states
        self.robustness = robustness
        self.baseline_outcome = None
        self.baseline_states = 0
        self.baseline_robust = False
        self.budget = max_states
        self.checks_run = 0
        self.cache_hits = 0
        self.states_total = 0
        self.robustness_checks = 0
        self.robustness_hits = 0
        #: Tracked candidate position -> its current rung.
        self._rungs = {}
        #: Assignment -> (outcome, robust); ``robust`` is read only
        #: while the fast path is ready (:meth:`_fastpath_ready`).
        self._verdicts = {}
        #: Set once :meth:`matches` certified a non-robust state.
        self._below_nonrobust = False
        self._context = None
        #: An already-built :class:`RobustnessAnalyzer` bound to the
        #: module (the repair pass hands its graph over so seeding the
        #: weakener costs no rebuild); lazily built otherwise.
        self._analyzer = analyzer

    # -- baseline ----------------------------------------------------------

    def establish(self):
        """Check the unoptimized module; fix the verdict to preserve.

        A truncated baseline certifies no weakening, so the optimizer
        stops there: its verdict is neither cached nor tested for
        robustness.
        """
        result = self._check(self.max_states)
        self.baseline_outcome = result.outcome
        self.baseline_states = result.states_explored
        self.budget = min(
            self.max_states,
            max(self.baseline_states * self.STATE_MARGIN,
                self.STATE_FLOOR),
        )
        if result.outcome == "truncated":
            return result
        if self.robustness:
            self.baseline_robust = self._is_robust()
        self._verdicts[self._assignment()] = (result.outcome,
                                              self.baseline_robust)
        return result

    def track(self, candidates):
        """Key verdicts on ``candidates``' rungs from here on.

        The module must still be in its established state, whose
        verdict moves to the all-original assignment.  If a function of
        ``main``'s closure was owned since :meth:`establish` (the
        weakener owns the candidates' holders), the context is rebuilt
        here, on that state: a context built on a candidate's state
        would miss the fences the candidate deleted (their entries in
        the ``unused`` table), and split states once they are back.
        """
        if (self._context is not None
                and not self._context.bound_to(self.module)):
            self._context = self._new_context()
        current = self._verdicts.get(self._assignment())
        self._rungs = {
            candidate.position: candidate.committed
            for candidate in candidates
        }
        self._verdicts = {}
        if current is not None:
            self._verdicts[self._assignment()] = current

    # -- writes ------------------------------------------------------------

    def apply(self, candidate):
        """Apply ``candidate``'s proposal to the module; return the undo.

        The write and its undo each move the candidate's rung in the
        assignment and drop the decoded code of the candidate's block:
        an order rewrite changes what its step captured, a fence
        deletion shifts the block's indices.  Undos run in reverse
        application order (:func:`apply_proposal`).
        """
        position = candidate.position
        before = self._rungs[position]
        block = candidate.instr.block
        undo = apply_proposal(candidate)
        self._rungs[position] = candidate.proposal()
        self._invalidate(block)

        def revert():
            undo()
            self._rungs[position] = before
            self._invalidate(block)
        return revert

    def _invalidate(self, block):
        if self._context is not None:
            self._context.invalidate(block)

    # -- candidate checks --------------------------------------------------

    def matches(self):
        """True when the current state's outcome equals the baseline's."""
        if self.verdict() != self.baseline_outcome:
            return False
        if self._verdicts[self._assignment()][1] is False:
            # The weakener keeps this state, and proposes only below it.
            self._below_nonrobust = True
        return True

    def verdict(self):
        """Outcome class of the current state, via the cache if possible."""
        key = self._assignment()
        cached = self._verdicts.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached[0]
        robust = None
        if self._fastpath_ready():
            # Below a kept non-robust state every state is non-robust:
            # weaker orders and fewer fences only add delays.
            robust = not self._below_nonrobust and self._is_robust()
        if robust:
            # Robust candidate + robust baseline: both verdicts equal
            # their SC verdict, and orders are inert under SC, so the
            # candidate's outcome *is* the baseline outcome.
            self.robustness_hits += 1
            outcome = self.baseline_outcome
        else:
            outcome = self._check(self.budget).outcome
        self._verdicts[key] = (outcome, robust)
        return outcome

    # -- robustness fast path ----------------------------------------------

    def _fastpath_ready(self):
        """Fast-path soundness needs a robust, explored baseline."""
        return (self.robustness and self.baseline_robust
                and self.baseline_outcome is not None)

    def _is_robust(self):
        """Static robustness of the current state, reusing the graph.

        No access appears or disappears between queries, so the
        analyzer's order-independent conflict graph stays valid; only
        the cheap program-order dataflow reruns.  Owning a live
        function (:meth:`Module.own`) replaces its objects, so the
        graph is rebuilt then.
        """
        from repro.analysis.robustness import RobustnessAnalyzer

        self.robustness_checks += 1
        if self.model == "sc":
            return True
        if (self._analyzer is None
                or not self._analyzer.bound_to(self.module)):
            self._analyzer = RobustnessAnalyzer(self.module,
                                                model=self.model)
        return self._analyzer.analyze(max_witnesses=1).robust

    # -- plumbing ----------------------------------------------------------

    def _assignment(self):
        return tuple(self._rungs.values())

    def _new_context(self):
        return Context(self.module, get_model(self.model))

    def _check(self, max_states):
        self.checks_run += 1
        if self._context is None:
            self._context = self._new_context()
        elif not self._context.bound_to(self.module):
            raise RuntimeError(
                "main's closure was owned since the checker context was "
                "built; own the candidates' holders before track()"
            )
        result = check_module(
            self.module, model=self.model, max_steps=self.max_steps,
            max_states=max_states, context=self._context,
        )
        self.states_total += result.states_explored
        return result

    def counters(self):
        return {
            "checks_run": self.checks_run,
            "cache_hits": self.cache_hits,
            "states_total": self.states_total,
            "budget": self.budget,
            "robustness_checks": self.robustness_checks,
            "robustness_hits": self.robustness_hits,
            "robustness_states_saved":
                self.robustness_hits * self.baseline_states,
            "baseline_robust": self.baseline_robust,
        }
