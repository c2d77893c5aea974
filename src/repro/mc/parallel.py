"""Model-checking task spec: one picklable ``check_module`` job.

Every headline artefact (Table 2, Table 7, extended verification, the
litmus calibration matrix) is a batch of *independent* ``check_module``
calls, so they parallelize embarrassingly.  A :class:`CheckTask` is a
picklable description of one job — source text plus porting level and
exploration bounds — that runs itself; :func:`repro.core.workers.run_batch`
executes a list of them either sequentially (``jobs`` unset or 1, the
deterministic default) or on a persistent ``multiprocessing`` pool
(``atomig check --jobs N`` / ``atomig tables --jobs N``).
"""

from dataclasses import dataclass

from repro.core.parallel import ModuleTask


@dataclass(frozen=True)
class CheckTask(ModuleTask):
    """One model-checking job, self-contained and picklable."""

    #: Checks default to the compiled module as-is and to the
    #: explorer's own state budget.
    level: str = None
    max_states: int = 2_000_000
    #: Partial-order-reduction backend ("none"/"sleep"/"dpor").
    por: str = "sleep"
    #: Run the static robustness pre-pass before exploring.
    robustness: bool = False

    def run(self):
        """Load and check; returns the ``CheckResult``."""
        from repro.mc.explorer import check_module

        return check_module(
            self.load(), model=self.model,
            max_steps=self.max_steps, max_states=self.max_states,
            por=self.por, robustness=self.robustness,
        )
