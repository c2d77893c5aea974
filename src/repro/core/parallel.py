"""Task specs: picklable jobs that run themselves.

The Table 3/5/6 harnesses and ``atomig tables --jobs`` are batches of
*independent* (module, level) ports — different applications, different
porting levels, disjoint cloned modules — so they parallelize
embarrassingly, exactly like the model-checking batches of
:mod:`repro.mc.parallel`.  A :class:`PortTask` is a picklable
description of one job that runs itself;
:func:`repro.core.workers.run_batch` executes a list of them either
sequentially (``jobs`` unset or 1, the deterministic default) or on a
persistent ``multiprocessing`` pool.

Tasks carry source text (or a synthetic-codebase spec) rather than IR
modules, so the same task list works under both the ``fork`` and
``spawn`` start methods; each task compiles — or pulls from the
frontend cache (:mod:`repro.modcache`) — inside its own process and
times its own build and port, keeping per-row build/port ratios honest
under parallelism.  Outcomes return :class:`PortingReport` objects
(picklable, including their per-stage profile) instead of live IR;
callers that need the ported IR itself request ``emit_ir`` and get the
printed text, which doubles as the bit-identity witness in the
serial-vs-parallel CI check.

:class:`ModuleTask` is the base of the check, optimize and repair
specs (:mod:`repro.mc.parallel`, :mod:`repro.opt.parallel`).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PortTask:
    """One porting job, self-contained and picklable."""

    #: Module name (also the compile name; diagnostics).
    name: str
    #: Mini-C source text; ``None`` when ``synth`` supplies it.
    source: str = None
    #: (app_name, scale, seed) generating the source via
    #: :func:`repro.bench.synth.generate_codebase` — cheaper to pickle
    #: than a multi-megabyte synthetic source text.
    synth: tuple = None
    #: PortingLevel value ("original", ..., "atomig"), or ``None`` to
    #: just compile and count barriers.
    level: str = None
    #: Optional AtoMigConfig for the porting pipeline.
    config: object = None
    #: Return the printed IR of the ported module.
    emit_ir: bool = False
    #: VM schedule seeds to execute the ported module under
    #: (Tables 5/6); one cycle count per seed in the outcome.
    run_seeds: tuple = ()
    #: Frontend-cache override (None = honor ATOMIG_FRONTEND_CACHE).
    frontend_cache: bool = None

    def run(self):
        """Compile, port and optionally run; returns a :class:`PortOutcome`."""
        import time

        from repro.api import compile_source, port_module, run_module
        from repro.core.config import PortingLevel
        from repro.core.report import count_barriers

        source = self.source
        if source is None:
            from repro.bench.synth import generate_codebase

            app_name, scale, seed = self.synth
            source = generate_codebase(app_name, scale=scale, seed=seed)

        started = time.perf_counter()
        module = compile_source(source, self.name, cache=self.frontend_cache)
        build_seconds = time.perf_counter() - started

        ported = module
        report = None
        port_seconds = 0.0
        if self.level is not None:
            started = time.perf_counter()
            ported, report = port_module(
                module, PortingLevel(self.level), config=self.config
            )
            port_seconds = time.perf_counter() - started
            # The port counted its result (it never optimizes here).
            barriers = (report.ported_explicit_barriers,
                        report.ported_implicit_barriers)
        else:
            barriers = count_barriers(module)

        outcome = PortOutcome(
            name=self.name, level=self.level, report=report,
            barriers=barriers,
            build_seconds=build_seconds, port_seconds=port_seconds,
        )
        if self.run_seeds:
            outcome.cycles = tuple(
                run_module(ported, schedule_seed=seed).cycles
                for seed in self.run_seeds
            )
        if self.emit_ir:
            from repro.ir.printer import print_module

            outcome.ir_text = print_module(ported)
        return outcome


@dataclass
class PortOutcome:
    """What one :class:`PortTask` produced (picklable)."""

    name: str
    level: str = None
    #: The :class:`repro.core.report.PortingReport` (None when the task
    #: only compiled).
    report: object = None
    #: (explicit, implicit) barriers of the final module.
    barriers: tuple = (0, 0)
    #: Wall-clock of the in-worker compile (or cache load).
    build_seconds: float = 0.0
    #: Wall-clock of the in-worker ``port_module`` call.
    port_seconds: float = 0.0
    #: Modeled cycle count per requested schedule seed.
    cycles: tuple = ()
    #: Printed IR of the final module (``emit_ir`` tasks only).
    ir_text: str = None


@dataclass(frozen=True)
class ModuleTask:
    """What a check, optimize or repair job shares: one module to load.

    Each subclass adds its own fields and a ``run()`` that makes one
    call on :meth:`load`'s module.
    """

    #: Module name (the compile name; carried into reports).
    name: str
    #: Mini-C source text (or IR text when ``is_ir``).
    source: str
    model: str = "wmm"
    #: PortingLevel value to port to first; ``None`` or ``"original"``
    #: works on the compiled module as-is (unless ``config`` asks for
    #: the repair stage).
    level: str = "atomig"
    #: Optional AtoMigConfig for the porting pipeline.
    config: object = None
    #: Parse ``source`` as IR text instead of Mini-C.
    is_ir: bool = False
    max_steps: int = 2500
    max_states: int = 400_000

    def load(self):
        """The module to work on (:func:`repro.api.load_module`)."""
        from repro.api import load_module

        return load_module(self.source, self.name, is_ir=self.is_ir,
                           level=self.level, config=self.config)
