"""Optimization report: what the barrier optimizer weakened, and proof.

The report is the auditable trail of an ``atomig optimize`` run: the
baseline verdict it preserved, every accepted weakening with its
before/after order, the sites that had to stay strong, how many oracle
checks certified the result, and the estimated cycle savings through
the shared :func:`repro.vm.costs.estimate_cost` path (Table 9's
columns).
"""

from dataclasses import dataclass, field


@dataclass
class OptimizationReport:
    """Statistics collected while optimizing one module."""

    module_name: str = ""
    model: str = "wmm"
    #: Outcome class of the unoptimized module (the verdict preserved).
    baseline_outcome: str = ""
    #: Outcome class after optimization (always == baseline on exit).
    final_outcome: str = ""
    #: Accepted weakenings: one dict per changed site with position,
    #: kind, before/after orders and estimated cycles saved.
    weakened: list = field(default_factory=list)
    #: Sites that could not weaken at all (kept their original order),
    #: with the rung the oracle rejected.
    frozen: list = field(default_factory=list)
    #: Porter-inserted fences deleted.
    fences_deleted: int = 0
    #: Accesses whose order was relaxed (excludes deleted fences).
    accesses_weakened: int = 0
    #: Candidate sites enumerated in total.
    candidates: int = 0
    #: Optimizer rounds (one ladder rung per candidate per round).
    rounds: int = 0
    #: Oracle counters.
    checks_run: int = 0
    cache_hits: int = 0
    oracle_states: int = 0
    #: Robustness fast path: queries answered statically vs. attempted,
    #: exploration states those hits avoided, and whether the baseline
    #: itself was provably robust (the fast path's precondition).
    robustness_checks: int = 0
    robustness_hits: int = 0
    robustness_states_saved: int = 0
    baseline_robust: bool = False
    #: Static fence-repair evidence when the run seeded from the repair
    #: pass (``repair_seed=True``): a
    #: :class:`repro.analysis.repair.RepairReport` dict, else {}.
    repair: dict = field(default_factory=dict)
    #: Module-level cost estimates (repro.vm.costs.CostEstimate dicts).
    cost_before: dict = field(default_factory=dict)
    cost_after: dict = field(default_factory=dict)
    #: True when dynamic execution counts weighted the candidate order.
    dynamic_counts: bool = False
    wall_seconds: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def barrier_cost_before(self):
        return self.cost_before.get("barriers", 0)

    @property
    def barrier_cost_after(self):
        return self.cost_after.get("barriers", 0)

    @property
    def cycles_saved(self):
        return self.barrier_cost_before - self.barrier_cost_after

    @property
    def verdict_preserved(self):
        return (self.baseline_outcome == self.final_outcome
                and bool(self.baseline_outcome))

    def to_dict(self):
        """JSON-ready structure (``atomig optimize --json`` payload)."""
        return {
            "module": self.module_name,
            "model": self.model,
            "baseline_outcome": self.baseline_outcome,
            "final_outcome": self.final_outcome,
            "verdict_preserved": self.verdict_preserved,
            "weakened": list(self.weakened),
            "frozen": list(self.frozen),
            "fences_deleted": self.fences_deleted,
            "accesses_weakened": self.accesses_weakened,
            "candidates": self.candidates,
            "rounds": self.rounds,
            "checks_run": self.checks_run,
            "cache_hits": self.cache_hits,
            "oracle_states": self.oracle_states,
            "robustness_checks": self.robustness_checks,
            "robustness_hits": self.robustness_hits,
            "robustness_states_saved": self.robustness_states_saved,
            "baseline_robust": self.baseline_robust,
            "repair": dict(self.repair),
            "cost_before": dict(self.cost_before),
            "cost_after": dict(self.cost_after),
            "barrier_cost_before": self.barrier_cost_before,
            "barrier_cost_after": self.barrier_cost_after,
            "cycles_saved": self.cycles_saved,
            "dynamic_counts": self.dynamic_counts,
            "wall_seconds": self.wall_seconds,
            "notes": list(self.notes),
        }

    def summary(self):
        """Human-readable one-paragraph summary."""
        saved_pct = 0.0
        if self.barrier_cost_before:
            saved_pct = 100.0 * self.cycles_saved / self.barrier_cost_before
        return (
            f"optimize {self.module_name} [{self.model}]: "
            f"{self.accesses_weakened}/{self.candidates} accesses "
            f"weakened, {self.fences_deleted} fences deleted, "
            f"barrier cost {self.barrier_cost_before} -> "
            f"{self.barrier_cost_after} (-{saved_pct:.0f}%), "
            f"{self.checks_run} oracle checks "
            f"({self.cache_hits} cached, {self.robustness_hits} "
            f"robust fast path), verdict "
            f"{self.baseline_outcome}"
            + ("" if self.verdict_preserved else
               f" -> {self.final_outcome} [NOT PRESERVED]")
        )

    def render(self):
        """Multi-line per-site report (what ``atomig optimize`` prints)."""
        lines = [self.summary()]
        for entry in self.weakened:
            lines.append(
                f"  [{entry['kind']:5s}] {entry['function']}:"
                f"{entry['block']}[{entry['index']}] "
                f"{entry['before']} -> {entry['after']}"
                f"  (saves ~{entry['saved_cycles']} cycles)"
            )
        for entry in self.frozen:
            lines.append(
                f"  [{entry['kind']:5s}] {entry['function']}:"
                f"{entry['block']}[{entry['index']}] "
                f"kept {entry['kept']} (oracle rejected "
                f"{entry['rejected']})"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
