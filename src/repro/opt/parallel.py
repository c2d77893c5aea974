"""Optimize and repair task specs (Tables 9 and 10, serve jobs).

Mirrors :mod:`repro.mc.parallel`: an :class:`OptimizeTask` is a
picklable description of one port-then-optimize job and a
:class:`RepairTask` one port-then-repair job; both run themselves and
fan out through :func:`repro.core.workers.run_batch`.  Each optimize
task runs its own greedy loop sequentially — the parallelism that
matters for Table 9 is across corpus rows, not within one module's
bisection.

Results are plain dicts (``OptimizationReport.to_dict()`` /
``RepairReport.to_dict()``) so they pickle under every
multiprocessing start method.
"""

from dataclasses import dataclass, replace

from repro.core.parallel import ModuleTask


@dataclass(frozen=True)
class OptimizeTask(ModuleTask):
    """One optimize job, self-contained and picklable."""

    #: Consider unmarked SC accesses too (hand-written modules).
    require_marks: bool = True
    #: Enable the oracle's static robustness fast path.
    robustness: bool = True
    #: Seed the weakener from the static fence-repair pass (the
    #: repaired minimal-fence module) instead of the raw port.
    repair_seed: bool = False
    #: Architecture cost-model name ("armv8" / "power"); None keeps the
    #: default model.  Affects cost *reporting* and candidate ranking,
    #: never the oracle's verdicts.
    arch: str = None

    def run(self):
        """Load and optimize; returns the report dict."""
        from repro.opt.weaken import optimize_module
        from repro.vm.costs import cost_model_for

        _optimized, report = optimize_module(
            self.load(), model=self.model,
            max_steps=self.max_steps, max_states=self.max_states,
            cost_model=cost_model_for(self.arch) if self.arch else None,
            require_marks=self.require_marks, clone=False,
            robustness=self.robustness, repair_seed=self.repair_seed,
        )
        return report.to_dict()


@dataclass(frozen=True)
class RepairTask(ModuleTask):
    """One static fence-repair job, self-contained and picklable."""

    #: Architecture cost-model name ("armv8" / "power"); None is armv8.
    arch: str = None
    #: Model-check the repaired module and record the evidence.
    verify: bool = False

    def load(self):
        """The module to repair, loaded without the pipeline's repair
        stage: that stage would repair it first, under the config's
        ``repair_model`` and ``repair_arch``, and leave this job's own
        ``model`` and ``arch`` nothing to repair."""
        if self.config is not None and self.config.repair_mode:
            config = replace(self.config, repair_mode=False)
            return replace(self, config=config).load()
        return super().load()

    def run(self):
        """Load and repair; returns the report dict."""
        from repro.api import repair_module

        _repaired, report = repair_module(
            self.load(), model=self.model, arch=self.arch,
            verify=self.verify, max_steps=self.max_steps,
            max_states=self.max_states, clone=False,
        )
        return report.to_dict()
