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

from dataclasses import dataclass


@dataclass(frozen=True)
class OptimizeTask:
    """One optimize job, self-contained and picklable."""

    #: Module name (carried into the report).
    name: str
    #: Mini-C source text (or IR text when ``is_ir``).
    source: str
    model: str = "wmm"
    #: PortingLevel value to port to before optimizing, or None to
    #: optimize the compiled module as-is.
    level: str = "atomig"
    max_steps: int = 2500
    max_states: int = 400_000
    #: Optional AtoMigConfig for the porting pipeline.
    config: object = None
    is_ir: bool = False
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
        """Compile, port and optimize; returns the report dict."""
        from repro.api import compile_source, port_module
        from repro.core.config import PortingLevel
        from repro.ir.parser import parse_module
        from repro.opt.weaken import optimize_module
        from repro.vm.costs import cost_model_for

        if self.is_ir:
            module = parse_module(self.source)
        else:
            module = compile_source(self.source, self.name)
        if self.level is not None:
            module, _report = port_module(
                module, PortingLevel(self.level), config=self.config
            )
        cost_model = cost_model_for(self.arch) if self.arch else None
        _optimized, report = optimize_module(
            module, model=self.model,
            max_steps=self.max_steps, max_states=self.max_states,
            cost_model=cost_model,
            require_marks=self.require_marks, clone=False,
            robustness=self.robustness, repair_seed=self.repair_seed,
        )
        return report.to_dict()


@dataclass(frozen=True)
class RepairTask:
    """One static fence-repair job, self-contained and picklable."""

    #: Module name (carried into the report).
    name: str
    #: Mini-C source text (or IR text when ``is_ir``).
    source: str
    model: str = "wmm"
    #: PortingLevel value to port to before repairing, or None to
    #: repair the compiled module as-is.
    level: str = "atomig"
    #: Optional AtoMigConfig for the porting pipeline.
    config: object = None
    is_ir: bool = False
    #: Architecture cost-model name ("armv8" / "power"); None is armv8.
    arch: str = None
    #: Model-check the repaired module and record the evidence.
    verify: bool = False
    max_steps: int = 2500
    max_states: int = 400_000

    def run(self):
        """Compile, port and repair; returns the report dict."""
        from repro.api import compile_source, port_module, repair_module
        from repro.core.config import PortingLevel
        from repro.ir.parser import parse_module

        if self.is_ir:
            module = parse_module(self.source)
        else:
            module = compile_source(self.source, self.name)
        if self.level is not None:
            module, _report = port_module(
                module, PortingLevel(self.level), config=self.config
            )
        _repaired, report = repair_module(
            module, model=self.model, arch=self.arch, verify=self.verify,
            max_steps=self.max_steps, max_states=self.max_states,
            clone=False,
        )
        return report.to_dict()
