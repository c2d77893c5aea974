"""Batch harness: optimize many modules across cores (Table 9).

Mirrors :mod:`repro.mc.parallel`: an :class:`OptimizeTask` is a
picklable description of one port-then-optimize job, and
:func:`run_optimize_tasks` fans a batch over the same pool plumbing via
``run_tasks(..., worker=run_optimize_task)``.  Each worker runs its own
greedy loop sequentially — the parallelism that matters for Table 9 is
across corpus rows, not within one module's bisection.

Results are plain dicts (``OptimizationReport.to_dict()``) so they
pickle under every multiprocessing start method.
"""

from dataclasses import dataclass

from repro.mc.parallel import run_tasks


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
    entry: str = "main"
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


def run_optimize_task(task):
    """Compile, port and optimize one task; returns a report dict.

    Top-level (not a closure) so it pickles under every multiprocessing
    start method.
    """
    from repro.api import port_module
    from repro.core.config import PortingLevel
    from repro.core.workers import cached_module
    from repro.opt.weaken import optimize_module
    from repro.vm.costs import cost_model_for

    module = cached_module(task.source, task.name, is_ir=task.is_ir)
    if task.level is not None:
        module, _report = port_module(
            module, PortingLevel(task.level), config=task.config
        )
    cost_model = cost_model_for(task.arch) if task.arch else None
    _optimized, report = optimize_module(
        module, model=task.model, entry=task.entry,
        max_steps=task.max_steps, max_states=task.max_states,
        cost_model=cost_model,
        require_marks=task.require_marks, clone=False,
        robustness=task.robustness, repair_seed=task.repair_seed,
    )
    return report.to_dict()


def run_optimize_tasks(tasks, jobs=None):
    """Run a batch of optimize tasks; results align with input order."""
    return run_tasks(tasks, jobs=jobs, worker=run_optimize_task)
