"""The one batch runner and its persistent worker pools (DESIGN.md §6f).

Every batch in the repo — the table harnesses, ``atomig check
--jobs`` and multi-module serve jobs — is a list of task specs
(:class:`repro.mc.parallel.CheckTask`,
:class:`repro.core.parallel.PortTask`,
:class:`repro.opt.parallel.OptimizeTask`,
:class:`repro.opt.parallel.RepairTask`).  Each spec is picklable and
carries its own ``run()``; :func:`run_batch` runs a list of them
in-process or on a pool.  Three mechanisms keep the pools cheap:

- **Persistent pools.**  :func:`get_pool` keeps one pool per worker
  count alive for the whole process (closed via ``atexit``), so a
  daemon or table run that submits many batches forks exactly once.
- **Per-worker timing.**  Every task runs through a timing wrapper;
  :attr:`WorkerPool.worker_stats` maps worker pid to cumulative busy
  seconds and task count, making pool skew visible to the perf
  harnesses (``BENCH_port.json``).
- **A paused collector per task.**  Each worker freezes the heap it
  inherited at fork (``gc.freeze()`` in the pool initializer), so no
  collection in a worker walks it.  :func:`run_task` collects what the
  previous task left, runs the task with the cyclic collector
  disabled, and re-enables it on the way out: a compile or port no
  longer pays for repeated full sweeps over the module it is still
  building, and a worker carries at most one task's cyclic garbage.
  Only pool workers do this.  In-process batches, serve's job threads
  (one collector shared by every thread) and the one-shot
  :mod:`repro.api` calls (no task boundary to collect at) keep the
  interpreter's collector as it is (DESIGN.md §6f item 3).

Specs compile their own modules: Mini-C through
:func:`repro.api.compile_source`, whose frontend cache
(:mod:`repro.modcache`, on with ``ATOMIG_FRONTEND_CACHE=1``) is the
one module cache; IR text through :func:`repro.ir.parser.parse_module`.
The check, optimize and repair specs share the base
:class:`repro.core.parallel.ModuleTask`, whose ``load()`` is
:func:`repro.api.load_module` — the one preamble turning a job's
(source, level, config) into its module.
"""

import atexit
import gc
import os
import time
from functools import partial


def timed_call(worker, task):
    """Run one task, tagging the result with (pid, busy seconds)."""
    started = time.perf_counter()
    result = worker(task)
    return (os.getpid(), time.perf_counter() - started, result)


# -- the pool ---------------------------------------------------------------


class WorkerPool:
    """A persistent process pool with per-worker accounting."""

    def __init__(self, jobs):
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork (e.g. Windows)
            context = multiprocessing.get_context("spawn")
        self.jobs = jobs
        self._pool = context.Pool(processes=jobs, initializer=gc.freeze)
        #: pid -> {"tasks": int, "busy_seconds": float}
        self.worker_stats = {}
        self.batches = 0

    def map(self, worker, tasks, chunksize=1):
        """Run ``tasks`` through ``worker``; results keep input order.

        ``chunksize=1``: batches are few and lumpy (a mariadb-sized
        port or a slow corpus check must not strand a prefetched batch
        of small tasks behind it).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        rows = self._pool.map(
            partial(timed_call, worker), tasks, chunksize=chunksize
        )
        self.batches += 1
        results = []
        for pid, busy, result in rows:
            stats = self.worker_stats.setdefault(
                pid, {"tasks": 0, "busy_seconds": 0.0}
            )
            stats["tasks"] += 1
            stats["busy_seconds"] += busy
            results.append(result)
        return results

    def close(self, terminate=False):
        """Shut the pool down; ``terminate=True`` skips draining."""
        if terminate:
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()


# -- persistent registry ----------------------------------------------------

_POOLS = {}


def get_pool(jobs):
    """The process-wide pool for ``jobs`` workers, created on first use."""
    pool = _POOLS.get(jobs)
    if pool is None:
        pool = _POOLS[jobs] = WorkerPool(jobs)
    return pool


# -- the batch runner -------------------------------------------------------


def run_task(task):
    """Run one task spec (the picklable top-level pool worker).

    The previous task's cyclic garbage is collected first and the task
    runs with the collector off, so a worker carries at most one task's
    leftovers and a task never pays for a sweep of its own half-built
    module.  Everything the task allocated is young when the collector
    comes back on, so in practice the first allocation after the task
    frees its garbage in one young-generation pass, and the next task's
    collection finds next to nothing.
    """
    gc.collect()
    gc.disable()
    try:
        return task.run()
    finally:
        gc.enable()


def run_batch(tasks, jobs=None):
    """Run a list of task specs; results align with the input order.

    ``jobs=None`` or ``jobs<=1`` (or a single task) runs them
    in-process, the deterministic default.  Larger values use the
    persistent pool for that worker count; callers keep ``jobs``
    constant so every batch reuses the same workers.
    """
    tasks = list(tasks)
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        return [task.run() for task in tasks]
    return get_pool(jobs).map(run_task, tasks, chunksize=1)


def pool_stats():
    """{jobs: {"batches": n, "workers": worker_stats}} for live pools."""
    return {
        jobs: {"batches": pool.batches, "workers": pool.worker_stats}
        for jobs, pool in _POOLS.items()
    }


def shutdown_pools(terminate=False):
    """Close every persistent pool.

    Registered with ``atexit`` for normal interpreter exit, but
    ``atexit`` does not fire on signal death — long-lived daemons
    (:mod:`repro.serve`) call this explicitly from their SIGTERM path.
    ``terminate=True`` kills workers without draining in-flight tasks
    (the non-graceful shutdown).  Idempotent.
    """
    for pool in _POOLS.values():
        try:
            pool.close(terminate=terminate)
        except Exception:  # pragma: no cover - teardown best-effort
            pass
    _POOLS.clear()


atexit.register(shutdown_pools)
