"""Parallel check harness: fan model-checking jobs across cores.

Every headline artefact (Table 2, Table 7, extended verification, the
litmus calibration matrix) is a batch of *independent* ``check_module``
calls, so they parallelize embarrassingly.  A :class:`CheckTask` is a
picklable description of one job — source text plus porting level and
exploration bounds — and :func:`run_tasks` executes a batch either
sequentially (``jobs`` unset or 1, the deterministic default) or on a
``multiprocessing`` pool (``atomig check --jobs N`` / ``atomig tables
--jobs N``).

Tasks carry source text rather than IR modules: compiling is cheap and
text pickles everywhere, so the same task list works under both the
``fork`` and ``spawn`` start methods.

Pools are *persistent* (:mod:`repro.core.workers`): the first parallel
batch forks the workers, later batches reuse them, and each worker
memoizes compiled modules by source digest — so the Oracle's bisection
probes, which re-check the same programs dozens of times, stop paying
pool setup and recompilation per round.
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


def run_task(task):
    """Compile, port and check one task; returns its ``CheckResult``.

    Top-level (not a closure) so it pickles under every multiprocessing
    start method.  Modules come from the per-worker cache
    (:func:`repro.core.workers.cached_module`): a source checked under
    several models or re-probed across bisection rounds compiles once
    per worker.
    """
    from repro.api import port_module
    from repro.core.config import PortingLevel
    from repro.core.workers import cached_module
    from repro.mc.explorer import check_module

    module = cached_module(task.source, task.name, is_ir=task.is_ir)
    if task.level is not None:
        module, _report = port_module(
            module, PortingLevel(task.level), config=task.config
        )
    return check_module(
        module, model=task.model, entry=task.entry,
        max_steps=task.max_steps, max_states=task.max_states,
        por=task.por, macro=task.macro, robustness=task.robustness,
    )


def run_tasks(tasks, jobs=None, worker=run_task, seeds=(), chunksize=1):
    """Run a batch of tasks; results align with the input order.

    ``jobs=None`` or ``jobs<=1`` runs sequentially in-process.  Larger
    values use the persistent pool for that worker count
    (:func:`repro.core.workers.get_pool`): forked once per process
    lifetime, optionally seeded with pre-compiled sources, with
    per-worker busy-time accounting.

    ``worker`` is the per-task function (default :func:`run_task`); it
    must be a picklable top-level callable.  Other batch harnesses
    (e.g. the barrier optimizer's per-benchmark jobs) reuse this pool
    plumbing with their own task/worker pair.

    ``chunksize=1`` by default: check batches are few and lumpy (one
    slow corpus row must not strand a prefetched batch behind it).
    Callers with many uniform tasks can raise it, or pass ``None`` to
    let the pool shard the batch evenly.
    """
    tasks = list(tasks)
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]

    from repro.core.workers import get_pool

    pool = get_pool(jobs, seeds=seeds)
    return pool.map(worker, tasks, chunksize=chunksize)


def compare_models_parallel(source, name="module", models=("sc", "tso", "wmm"),
                            jobs=None, **task_fields):
    """Parallel analogue of :func:`repro.mc.explorer.compare_models`.

    Takes source text (tasks must pickle); extra keyword arguments are
    forwarded into each :class:`CheckTask` (``max_steps``, ``level``...).
    Returns ``{model: CheckResult}``.
    """
    tasks = [
        CheckTask(name=name, source=source, model=model, **task_fields)
        for model in models
    ]
    # Seed the pool with the shared source: each worker compiles it
    # once, then serves every model's task from its cache.
    is_ir = bool(task_fields.get("is_ir"))
    results = run_tasks(tasks, jobs=jobs, seeds=((name, source, is_ir),))
    return dict(zip(models, results))
