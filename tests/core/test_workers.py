"""The batch runner and its worker pools: caching, dispatch, accounting,
and the collector discipline of pool workers."""

import gc
import os
from dataclasses import dataclass

import pytest

from repro import modcache
from repro.core.parallel import PortTask
from repro.core.workers import (
    WorkerPool,
    get_pool,
    pool_stats,
    run_batch,
    run_task,
    shutdown_pools,
    timed_call,
)
from repro.errors import IRError
from repro.mc.parallel import CheckTask
from repro.opt.parallel import OptimizeTask

SOURCE = """
int x = 0;
int main() { x = 1; return x; }
"""


class TestModuleCache:
    """Task specs compile through the one frontend cache (modcache)."""

    @pytest.fixture(autouse=True)
    def frontend_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ATOMIG_FRONTEND_CACHE", "1")
        monkeypatch.setenv("ATOMIG_CACHE_DIR", str(tmp_path))
        modcache.clear_memory_cache()
        yield
        modcache.clear_memory_cache()

    def test_repeated_task_is_a_modcache_hit_with_a_fresh_module(
        self, monkeypatch
    ):
        loaded = []
        original = modcache.load

        def recording_load(digest):
            module = original(digest)
            loaded.append(module)
            return module

        monkeypatch.setattr(modcache, "load", recording_load)
        task = CheckTask(name="m", source=SOURCE, model="sc")
        first = run_batch([task])[0]
        second = run_batch([task])[0]
        assert loaded[0] is None  # the first task compiled
        assert loaded[1] is not None  # the second one hit the cache
        assert second.outcome == first.outcome == "ok"
        # Every hit unpickles its own module: mutating one must not
        # leak into the next.
        del loaded[1].functions["main"]
        assert "main" in modcache.load(
            modcache.source_digest(SOURCE, "m")
        ).functions

    def test_ir_and_c_sources_never_alias(self):
        run_batch([CheckTask(name="m", source=SOURCE, model="sc")])
        # The same text tagged as IR must not be served the compiled C
        # module: it does not parse as IR, so reaching the parser
        # proves the miss.
        with pytest.raises(IRError):
            run_batch([CheckTask(name="m", source=SOURCE, model="sc",
                                 is_ir=True)])

    def test_one_source_under_two_names_keeps_both_names(self):
        tasks = [OptimizeTask(name=name, source=SOURCE)
                 for name in ("left", "right")]
        reports = run_batch(tasks)
        assert [report["module"] for report in reports] == [
            "left.atomig", "right.atomig"
        ]


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


# -- the collector discipline of pool workers -------------------------------


@dataclass(frozen=True)
class CollectorProbe:
    """A task spec that reports the collector it runs under."""

    def run(self):
        return (gc.isenabled(), gc.get_freeze_count())


@dataclass(frozen=True)
class FailingTask:
    def run(self):
        raise ValueError("the task failed")


def _collector_enabled(_value):
    return gc.isenabled()


def _tracked_objects(_value):
    """Objects the collector would walk: the frozen heap is not one."""
    return len(gc.get_objects())


#: A Table 3 app small enough for a unit test (1/400 of leveldb).
SYNTH = ("leveldb", 400, 5)


def _untimed(value):
    """A result structure without its wall-clock fields."""
    if isinstance(value, dict):
        return {key: _untimed(item) for key, item in value.items()
                if "seconds" not in key and key != "states_per_second"}
    if isinstance(value, (list, tuple)):
        return [_untimed(item) for item in value]
    return value


class TestPausedCollector:
    def test_pooled_tasks_run_paused_over_a_frozen_heap(self):
        shutdown_pools()
        try:
            probes = run_batch([CollectorProbe(), CollectorProbe()], jobs=2)
        finally:
            shutdown_pools()
        for enabled, frozen in probes:
            assert enabled is False
            assert frozen > 0
        # In-process batches keep the interpreter's collector.
        assert run_batch([CollectorProbe()])[0] == (True, 0)
        assert gc.isenabled()

    def test_other_worker_functions_see_the_collector_enabled(self):
        pool = WorkerPool(1)
        try:
            assert pool.map(_collector_enabled, [0]) == [True]
            with pytest.raises(ValueError, match="the task failed"):
                pool.map(run_task, [FailingTask()])
            # The same worker, after a task that raised.
            assert pool.map(_collector_enabled, [0, 1]) == [True, True]
            assert len(pool.worker_stats) == 1
        finally:
            pool.close()

    def test_a_worker_carries_at_most_one_tasks_objects(self):
        """Tasks run paused, but each starts by collecting what the
        previous one left: the objects a worker's collector walks do
        not grow with the number of tasks it ran."""
        task = PortTask(name="leveldb", synth=SYNTH, level="atomig",
                        frontend_cache=False)
        # One task's worth: every object a task leaves tracked when
        # nothing is collected, garbage included.
        gc.disable()
        try:
            before = len(gc.get_objects())
            outcome = task.run()
            worth = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert outcome.report is not None and worth > 1_000
        pool = WorkerPool(1)
        try:
            base = pool.map(_tracked_objects, [0])[0]
            carried = []
            for _ in range(4):
                pool.map(run_task, [task])
                carried.append(pool.map(_tracked_objects, [0])[0] - base)
        finally:
            pool.close()
        assert max(carried) <= worth, (carried, worth)

    def test_pooled_results_equal_in_process_ones(self):
        tasks = [
            PortTask(name="leveldb", synth=SYNTH, level="atomig",
                     emit_ir=True, frontend_cache=False),
            PortTask(name="memcached", synth=("memcached", 400, 5),
                     level="naive", emit_ir=True, frontend_cache=False),
            CheckTask(name="m", source=SOURCE, model="wmm"),
            OptimizeTask(name="m", source=SOURCE),
        ]
        shutdown_pools()
        try:
            pooled = run_batch(tasks, jobs=2)
        finally:
            shutdown_pools()
        serial = run_batch(tasks)
        for left, right in zip(pooled[:2], serial[:2]):
            assert left.ir_text == right.ir_text
            assert left.barriers == right.barriers
            assert (_untimed(left.report.to_dict())
                    == _untimed(right.report.to_dict()))
        assert (_untimed(pooled[2].to_dict())
                == _untimed(serial[2].to_dict()))
        assert _untimed(pooled[3]) == _untimed(serial[3])
