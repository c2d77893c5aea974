"""Check task specs must agree with in-process checking."""

from repro.api import compile_source
from repro.bench.corpus import BENCHMARKS
from repro.core.workers import run_batch
from repro.mc.explorer import compare_models
from repro.mc.parallel import CheckTask

BOUNDS = dict(max_steps=600, max_states=400_000)


def _tasks():
    return [
        CheckTask(name=name, source=BENCHMARKS[name].mc_source(),
                  model="wmm", level="atomig", **BOUNDS)
        for name in ("message_passing", "ck_ring", "ck_spinlock_cas",
                     "lf_hash")
    ]


def test_run_tasks_parallel_matches_sequential():
    tasks = _tasks()
    sequential = run_batch(tasks, jobs=None)
    parallel = run_batch(tasks, jobs=2)
    assert len(parallel) == len(tasks)
    for seq, par in zip(sequential, parallel):
        assert par.ok == seq.ok
        assert par.outcome == seq.outcome
        assert par.states_explored == seq.states_explored
        # Results cross the process boundary with their stats intact.
        assert par.stats is not None
        assert par.stats.states_visited == seq.stats.states_visited


def test_run_task_original_level_skips_porting():
    source = BENCHMARKS["message_passing"].mc_source()
    unported = CheckTask(name="mp", source=source, model="wmm",
                         level=None, **BOUNDS).run()
    # The unported TSO client hits the WMM reordering.
    assert not unported.ok


def test_model_tasks_on_a_pool_match_compare_models():
    source = BENCHMARKS["message_passing"].mc_source()
    models = ("sc", "tso", "wmm")
    tasks = [CheckTask(name="mp", source=source, model=model, **BOUNDS)
             for model in models]
    parallel = dict(zip(models, run_batch(tasks, jobs=3)))
    inprocess = compare_models(compile_source(source, "mp"), **BOUNDS)
    assert set(inprocess) == set(models)
    for model, result in inprocess.items():
        assert parallel[model].ok == result.ok
        assert parallel[model].outcome == result.outcome
        assert parallel[model].states_explored == result.states_explored


def test_jobs_one_runs_in_process():
    """jobs<=1 must not spawn a pool (deterministic default path)."""
    tasks = _tasks()[:1]
    assert run_batch(tasks, jobs=1)[0].ok == tasks[0].run().ok
