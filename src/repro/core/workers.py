"""The one batch runner and its persistent worker pools (DESIGN.md §6f).

Every batch in the repo — the table harnesses, ``atomig check
--jobs``, the optimizer's bisection probes and multi-module serve
jobs — is a list of task specs (:class:`repro.mc.parallel.CheckTask`,
:class:`repro.core.parallel.PortTask`,
:class:`repro.opt.parallel.OptimizeTask`,
:class:`repro.opt.parallel.RepairTask`).  Each spec is picklable and
carries its own ``run()``; :func:`run_batch` runs a list of them
in-process or on a pool.  Three mechanisms keep the pools cheap:

- **Persistent pools.**  :func:`get_pool` keeps one pool per worker
  count alive for the whole process (closed via ``atexit``), so a
  bisection loop that probes dozens of batches forks exactly once.
- **Worker-side module caches.**  :func:`cached_module` memoizes
  compiled/parsed modules by source digest inside each worker (and in
  the in-process path), so a sweep that checks the same program under
  ``sc``/``tso``/``wmm`` compiles it once per worker.  Cache hits hand
  out ``Module.clone()`` copies — the porting pipeline may mutate its
  input, so the cached master is never exposed.
- **Interned location keys + per-worker timing.**  Caching interns the
  module's global/function name strings (the location keys every
  report row repeats), and every task runs through a timing wrapper;
  :attr:`WorkerPool.worker_stats` maps worker pid to cumulative busy
  seconds and task count, making pool skew visible to the perf
  harnesses (``BENCH_port.json``).
"""

import atexit
import hashlib
import os
import sys
import time
from functools import partial

# -- worker-side state (one copy per worker process) ------------------------

#: Compiled modules by source digest.  Bounded: a long bisection
#: streams thousands of one-shot variants through a worker, and caching
#: them all would only grow memory.
_MEMO = {}
_MEMO_LIMIT = 128


def _source_key(source, is_ir):
    tag = b"ir|" if is_ir else b"c|"
    return hashlib.blake2b(tag + source.encode(), digest_size=16).digest()


def _compile(source, name, is_ir):
    if is_ir:
        from repro.ir.parser import parse_module

        return parse_module(source)
    from repro.api import compile_source

    return compile_source(source, name)


def _intern_location_keys(module):
    """Intern the name strings repeated in every result row.

    Global and function names are the "location keys" that reports,
    access sets and barrier tables key on; interning them once per
    worker makes every later comparison a pointer check and dedups the
    copies a pickled result would otherwise carry.
    """
    for name in list(module.globals):
        sys.intern(name)
    for name in list(module.functions):
        sys.intern(name)


def cached_module(source, name, is_ir=False):
    """A private module for ``source``: cloned from this worker's cache.

    Misses compile (or parse) and memoize; hits return
    ``Module.clone()`` so callers may mutate freely.
    """
    key = _source_key(source, is_ir)
    master = _MEMO.get(key)
    if master is None:
        master = _compile(source, name, is_ir)
        _intern_location_keys(master)
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[key] = master
    return master.clone()


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
        self._pool = context.Pool(processes=jobs)
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
    """Run one task spec (the picklable top-level pool worker)."""
    return task.run()


def run_batch(tasks, jobs=None):
    """Run a list of task specs; results align with the input order.

    ``jobs=None`` or ``jobs<=1`` (or a single task) runs them
    in-process, the deterministic default.  Larger values use the
    persistent pool for that worker count; callers keep ``jobs``
    constant so every batch reuses the same workers and their module
    caches.
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
