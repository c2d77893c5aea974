"""Top-level convenience API.

These four functions cover the whole workflow of Figure 2 in the paper:
compile an application to IR, port it (AtoMig or a baseline), model-check
the result, and run it under the performance VM.
"""

from repro.core.config import AtoMigConfig, PortingLevel


def compile_source(source, name="module", cache=None):
    """Compile Mini-C ``source`` text into an IR :class:`Module`.

    Runs the lexer, parser, semantic analysis and the ``-O0``-style
    lowering, then verifies the produced IR.

    ``cache`` controls the frontend module cache
    (:mod:`repro.modcache`): ``True``/``False`` force it on/off, the
    default ``None`` defers to the ``ATOMIG_FRONTEND_CACHE``
    environment variable.  A hit returns a fresh unpickled module —
    never a shared instance — so callers may mutate the result freely.
    """
    from repro import modcache
    from repro.ir.verifier import verify_module
    from repro.lang.parser import parse
    from repro.lang.sema import analyze
    from repro.lower.lowering import lower_program

    if cache is None:
        cache = modcache.cache_enabled()
    digest = None
    if cache:
        digest = modcache.source_digest(source, name)
        module = modcache.load(digest)
        if module is not None:
            return module

    program = analyze(parse(source))
    module = lower_program(program, module_name=name)
    verify_module(module)
    if cache:
        modcache.store(digest, module)
    return module


def port_module(module, level=PortingLevel.ATOMIG, config=None,
                optimize=False):
    """Port ``module`` for a weak memory model.

    Returns ``(ported_module, report)``.  The input module is never
    mutated, so original/ported variants can be compared.  The result
    is a copy-on-write fork of the input (:meth:`Module.fork`): it
    shares every function the port did not write with the input.  To
    write the result, or the input, go through :meth:`Module.own` or
    take a :meth:`Module.clone`.

    ``level`` selects the strategy (AtoMig, its Expl/Spin ablations, the
    Naive porter, or the Lasagne-like baseline); ``config`` overrides
    individual AtoMig knobs, and the level's ablations apply on top of
    it (:meth:`AtoMigConfig.for_level`).  ``optimize=True`` runs the
    oracle-guided barrier weakener on the ported result (see
    :func:`optimize_module`); the weakening report lands in
    ``report.optimization``.
    """
    from repro.core.pipeline import run_porting

    return run_porting(module, level=level, config=config,
                       optimize=optimize)


def load_module(source, name="module", is_ir=False, level=None,
                config=None):
    """The module a job on ``source`` runs on, at ``level``.

    Parses IR text (``is_ir``) or compiles Mini-C through
    :func:`compile_source`.  At level ``None`` or ``"original"`` the
    compiled module is returned unchanged unless ``config`` asks for
    the repair stage (``repair_mode``), which lives in the porting
    pipeline; any other level goes through :func:`port_module`.  Every
    job preamble — the task specs, the CLI and serve — comes through
    here, so they agree on what a (level, config) pair means.
    """
    if is_ir:
        from repro.ir.parser import parse_module

        module = parse_module(source)
    else:
        module = compile_source(source, name)
    level = PortingLevel(level or PortingLevel.ORIGINAL)
    if level is PortingLevel.ORIGINAL and not (config and config.repair_mode):
        return module
    ported, _report = port_module(module, level, config=config)
    return ported


def check_module(module, model="wmm", max_steps=2500, max_states=2_000_000,
                 robustness=False, por="sleep"):
    """Exhaustively model-check ``module`` starting from ``main``.

    ``model`` is ``"sc"``, ``"tso"`` or ``"wmm"``.  Returns a
    :class:`repro.mc.explorer.CheckResult` whose ``violation`` field
    holds a counterexample trace when an assertion can fail.
    Reduction is controlled by ``por`` (``"none"``/``"sleep"``/
    ``"dpor"``); ``por="none"`` is the slow unreduced oracle.  All
    backends return identical verdicts by construction.
    ``robustness=True`` tries the static critical-cycle pre-pass first
    and skips exploration for provably robust modules.
    """
    from repro.mc.explorer import check_module as _check

    return _check(module, model=model, max_steps=max_steps,
                  max_states=max_states, por=por, robustness=robustness)


def lint_module(module, name_heuristic=True):
    """Run the static race & portability linter on ``module``.

    Classifies every non-local memory access as lock / protected /
    unshared / read-only / racy / unknown using the interprocedural
    lockset analysis, and flags dead fences (not adjacent to any shared
    access on any path).  Returns a :class:`repro.core.report.LintReport`.
    """
    from repro.analysis.races import classify_module
    from repro.analysis.robustness import find_dead_fences
    from repro.core.report import LintReport

    return LintReport(
        races=classify_module(module, name_heuristic=name_heuristic),
        dead_fences=find_dead_fences(module, name_heuristic=name_heuristic),
    )


def run_module(module, schedule_seed=0, cost_model=None,
               record_counts=False):
    """Execute ``module`` on the performance VM, starting from ``main``.

    Returns a :class:`repro.vm.interp.RunResult` with the program exit
    value, per-class dynamic operation counts (the paper's Table 4) and
    modeled cycle cost (Tables 5-6).  ``record_counts=True`` also
    records per-instruction execution counts into
    ``result.stats.instr_counts`` — the dynamic weighting input of
    :func:`repro.vm.costs.estimate_cost` and :func:`optimize_module`.
    """
    from repro.vm.interp import run_module as _run

    return _run(
        module, schedule_seed=schedule_seed, cost_model=cost_model,
        record_counts=record_counts,
    )


def repair_module(module, **kwargs):
    """Statically repair ``module`` to robustness (min-cost fences).

    Enumerates every critical cycle the robustness analyzer can reach,
    casts "break them all" as a min-cost cover over the delayable
    program-order pairs that close them, and applies the solved set of
    fence insertions / memory-order strengthenings.  Returns
    ``(repaired_module, RepairReport)``; the repaired module
    re-classifies robust, so its weak-model verdict provably equals its
    (unchanged) SC verdict.  See
    :func:`repro.analysis.repair.repair_module` for the knobs
    (``model``, ``arch``, ``verify``...).
    """
    from repro.analysis.repair import repair_module as _repair

    return _repair(module, **kwargs)


def start_service(host="127.0.0.1", port=0, job_dir=None, workers=None,
                  fanout=1):
    """Start the porting-as-a-service daemon in this process.

    Everything the one-shot functions above produce —
    :class:`PortingReport`, ``CheckResult``, ``OptimizationReport``,
    ``RepairReport`` — becomes submittable as a persistent job: a
    durable on-disk store (``ATOMIG_JOB_DIR``) that resumes across
    restarts, content-addressed dedup on source+config (an unchanged
    re-submission is an instant cache hit, never a re-port), and a
    stdlib HTTP API with streaming per-stage progress.  Non-blocking;
    returns a :class:`repro.serve.ServiceHandle` whose ``url`` is the
    bound address and whose ``stop()`` drains gracefully.  ``atomig
    serve`` is the CLI face of this function.
    """
    from repro.serve import start_service as _start

    return _start(host=host, port=port, job_dir=job_dir, workers=workers,
                  fanout=fanout)


def optimize_module(module, **kwargs):
    """Weaken ``module``'s barriers under a model-checking oracle.

    Greedily steps memory orders down per-access ladders (SEQ_CST ->
    ACQ_REL/ACQUIRE/RELEASE -> RELAXED) and deletes porter-inserted
    fences, re-checking after each batch that the module's verdict is
    unchanged; rejected weakenings are reverted.  Returns
    ``(optimized_module, OptimizationReport)``.  See
    :func:`repro.opt.optimize_module` for the knobs.
    """
    from repro.opt import optimize_module as _optimize

    return _optimize(module, **kwargs)


__all__ = [
    "AtoMigConfig",
    "PortingLevel",
    "check_module",
    "compile_source",
    "lint_module",
    "load_module",
    "optimize_module",
    "port_module",
    "repair_module",
    "run_module",
    "start_service",
]
