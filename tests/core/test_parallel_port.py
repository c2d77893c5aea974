"""PortTask through run_batch: the parallel porting harness.

Determinism contract: the pool path must return outcomes that are
indistinguishable from the serial path — same reports, same barrier
counts, same printed IR, same modeled cycles — because the tables built
on top of it assert value equality against their serial variants.
"""

import pytest

from repro.api import compile_source, port_module, run_module
from repro.bench.corpus import BENCHMARKS
from repro.core.config import PortingLevel
from repro.core.parallel import PortOutcome, PortTask
from repro.core.report import count_barriers
from repro.core.workers import run_batch
from repro.ir.printer import print_module

PROGRAMS = ("ck_ring", "ck_spinlock_cas")


def _tasks(emit_ir=False, run_seeds=()):
    return [
        PortTask(
            name=name, source=BENCHMARKS[name].mc_source(), level=level,
            emit_ir=emit_ir, run_seeds=run_seeds,
        )
        for name in PROGRAMS
        for level in ("atomig", "naive")
    ]


def _timeless(report):
    """Report dict minus wall-clock noise (everything value-like)."""
    payload = report.to_dict()
    payload.pop("porting_seconds", None)
    payload.pop("stats", None)
    return payload


def test_serial_and_pool_outcomes_match():
    tasks = _tasks(emit_ir=True)
    serial = run_batch(tasks, jobs=None)
    pooled = run_batch(tasks, jobs=2)
    assert len(serial) == len(pooled) == len(tasks)
    for task, left, right in zip(tasks, serial, pooled):
        assert isinstance(left, PortOutcome)
        assert left.name == right.name == task.name
        assert left.level == right.level == task.level
        assert left.barriers == right.barriers
        assert left.ir_text == right.ir_text
        assert _timeless(left.report) == _timeless(right.report)


def test_pool_ports_equal_inline_ports():
    tasks = _tasks(emit_ir=True)
    pooled = run_batch(tasks, jobs=2)
    for task, outcome in zip(tasks, pooled):
        module = compile_source(task.source, task.name)
        ported, report = port_module(module, PortingLevel(task.level))
        assert outcome.ir_text == print_module(ported)
        assert outcome.barriers == count_barriers(ported)
        assert outcome.report.num_spinloops == report.num_spinloops
        assert _timeless(outcome.report) == _timeless(report)


def test_run_seeds_produce_cycles():
    seeds = (0, 1)
    task = _tasks(run_seeds=seeds)[0]
    outcome = run_batch([task], jobs=None)[0]
    assert len(outcome.cycles) == len(seeds)
    module = compile_source(task.source, task.name)
    ported, _report = port_module(module, PortingLevel(task.level))
    expected = tuple(
        run_module(ported, schedule_seed=seed).cycles for seed in seeds
    )
    assert outcome.cycles == expected


def test_compile_only_task():
    source = BENCHMARKS["ck_ring"].mc_source()
    outcome = run_batch(
        [PortTask(name="ck_ring", source=source)], jobs=None
    )[0]
    assert outcome.level is None
    assert outcome.report is None
    assert outcome.port_seconds == 0.0
    assert outcome.build_seconds > 0.0
    assert outcome.barriers == count_barriers(compile_source(source))


def test_synth_spec_task():
    task = PortTask(
        name="memcached", synth=("memcached", 400, 0), level="atomig",
    )
    outcome = run_batch([task], jobs=None)[0]
    assert outcome.report is not None
    assert outcome.report.num_spinloops >= 1
    assert outcome.report.stats.total_seconds > 0


def test_outcomes_carry_profiles():
    for outcome in run_batch(_tasks(), jobs=2):
        stats = outcome.report.stats
        assert stats.total_seconds > 0
        assert "clone" in stats.stage_seconds


def test_missing_cycles_without_seeds():
    outcome = run_batch(_tasks(), jobs=None)[0]
    assert outcome.cycles == ()
    assert outcome.ir_text is None


def test_tasks_are_frozen():
    task = _tasks()[0]
    with pytest.raises(Exception):
        task.level = "naive"
