"""The batch runner and its worker pools: caching, dispatch, accounting."""

import os
from dataclasses import dataclass

from repro.core import workers
from repro.core.workers import (
    WorkerPool,
    cached_module,
    get_pool,
    pool_stats,
    run_batch,
    shutdown_pools,
    timed_call,
)

SOURCE = """
int x = 0;
int main() { x = 1; return x; }
"""
OTHER = """
int y = 7;
int main() { return y; }
"""


class TestModuleCache:
    def test_cached_module_compiles_and_memoizes(self):
        workers._MEMO.clear()
        first = cached_module(SOURCE, "m")
        assert len(workers._MEMO) == 1
        second = cached_module(SOURCE, "m")
        assert len(workers._MEMO) == 1  # hit, not a recompile
        # Distinct clones: mutating one must not leak into the next.
        assert first is not second
        del first.functions["main"]
        assert "main" in cached_module(SOURCE, "m").functions

    def test_ir_and_c_sources_never_alias(self):
        workers._MEMO.clear()
        cached_module(SOURCE, "m", is_ir=False)
        keys = set(workers._MEMO)
        # Same text tagged as IR must get its own cache slot (it would
        # not even parse, so reaching the compiler proves the miss).
        try:
            cached_module(SOURCE, "m", is_ir=True)
        except Exception:
            pass
        assert workers._source_key(SOURCE, True) not in keys

    def test_memo_is_bounded(self):
        workers._MEMO.clear()
        for index in range(workers._MEMO_LIMIT + 5):
            cached_module(
                f"int g{index} = {index}; int main() {{ return g{index}; }}",
                f"m{index}",
            )
        assert len(workers._MEMO) <= workers._MEMO_LIMIT
        workers._MEMO.clear()


def _double(value):
    return value * 2


class TestTimedCall:
    def test_tags_pid_and_wall(self):
        pid, wall, result = timed_call(_double, 21)
        assert pid == os.getpid()
        assert wall >= 0.0
        assert result == 42


class TestPool:
    def test_map_preserves_order_and_accounts_per_worker(self):
        pool = WorkerPool(2)
        try:
            values = list(range(20))
            assert pool.map(_double, values) == [v * 2 for v in values]
            assert pool.batches == 1
            assert sum(s["tasks"] for s in pool.worker_stats.values()) == 20
            assert all(
                s["busy_seconds"] >= 0.0
                for s in pool.worker_stats.values()
            )
        finally:
            pool.close()

    def test_empty_batch_short_circuits(self):
        pool = WorkerPool(2)
        try:
            assert pool.map(_double, []) == []
            assert pool.batches == 0
        finally:
            pool.close()

    def test_get_pool_is_persistent_per_jobs_count(self):
        shutdown_pools()
        try:
            first = get_pool(2)
            assert get_pool(2) is first  # reused, not re-forked
            assert get_pool(3) is not first  # keyed by worker count
            first.map(_double, [1, 2, 3])
            stats = pool_stats()
            assert stats[2]["batches"] == 1
            assert stats[3]["batches"] == 0
        finally:
            shutdown_pools()
        assert pool_stats() == {}


@dataclass(frozen=True)
class PidTask:
    """A minimal task spec: reports which process ran it."""

    value: int

    def run(self):
        return (os.getpid(), self.value * 2)


class TestRunBatch:
    def test_serial_batches_run_in_process(self):
        shutdown_pools()
        tasks = [PidTask(value) for value in range(3)]
        for jobs in (None, 1):
            assert run_batch(tasks, jobs=jobs) == [
                (os.getpid(), value * 2) for value in range(3)
            ]
        # A single task never pays for a pool either.
        assert run_batch(tasks[:1], jobs=2) == [(os.getpid(), 0)]
        assert pool_stats() == {}

    def test_parallel_batches_keep_order_on_the_shared_pool(self):
        shutdown_pools()
        try:
            tasks = [PidTask(value) for value in range(6)]
            results = run_batch(tasks, jobs=2)
            assert [doubled for _pid, doubled in results] == [
                value * 2 for value in range(6)
            ]
            assert os.getpid() not in {pid for pid, _doubled in results}
            run_batch(tasks, jobs=2)
            assert pool_stats()[2]["batches"] == 2  # one pool, reused
        finally:
            shutdown_pools()
