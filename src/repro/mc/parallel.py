"""Model-checking task spec: one picklable ``check_module`` job.

Every headline artefact (Table 2, Table 7, extended verification, the
litmus calibration matrix) is a batch of *independent* ``check_module``
calls, so they parallelize embarrassingly.  A :class:`CheckTask` is a
picklable description of one job — source text plus porting level and
exploration bounds — that runs itself; :func:`repro.core.workers.run_batch`
executes a list of them either sequentially (``jobs`` unset or 1, the
deterministic default) or on a persistent ``multiprocessing`` pool
(``atomig check --jobs N`` / ``atomig tables --jobs N``).

Tasks carry source text rather than IR modules: compiling is cheap and
text pickles everywhere, so the same task list works under both the
``fork`` and ``spawn`` start methods.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckTask:
    """One model-checking job, self-contained and picklable."""

    #: Module name (diagnostics only).
    name: str
    #: Mini-C source text (or IR text when ``is_ir``).
    source: str
    model: str = "wmm"
    #: PortingLevel value ("original", "expl", ..., or None to check the
    #: compiled module as-is, without running the porting pipeline).
    level: str = None
    entry: str = "main"
    max_steps: int = 2500
    max_states: int = 2_000_000
    #: Partial-order-reduction backend ("none"/"sleep"/"dpor").
    por: str = "sleep"
    #: Macro-stepping ("on"/"off").
    macro: str = "on"
    #: Optional AtoMigConfig for the porting pipeline.
    config: object = None
    #: Parse ``source`` as IR text instead of Mini-C.
    is_ir: bool = False
    #: Run the static robustness pre-pass before exploring.
    robustness: bool = False

    def run(self):
        """Compile, port and check; returns the ``CheckResult``.

        Modules come from the per-worker cache
        (:func:`repro.core.workers.cached_module`): a source checked
        under several models or re-probed across bisection rounds
        compiles once per worker.
        """
        from repro.api import port_module
        from repro.core.config import PortingLevel
        from repro.core.workers import cached_module
        from repro.mc.explorer import check_module

        module = cached_module(self.source, self.name, is_ir=self.is_ir)
        if self.level is not None:
            module, _report = port_module(
                module, PortingLevel(self.level), config=self.config
            )
        return check_module(
            module, model=self.model, entry=self.entry,
            max_steps=self.max_steps, max_states=self.max_states,
            por=self.por, macro=self.macro, robustness=self.robustness,
        )
