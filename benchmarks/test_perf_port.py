"""Porting-throughput gate: the parallel + cached Table 3 harness must
beat the serial cold path, serial and parallel ports must be
bit-identical, and the run must leave a ``BENCH_port.json`` trail
(wall times, speedup, per-stage profile) so the porting-throughput
trajectory is tracked from PR 4 onward (EXPERIMENTS.md).

Two regimes:

- **serial/cold** — ``table3`` exactly as the pre-PR pipeline ran it:
  one process, no frontend cache.  This is the honest baseline.
- **parallel/warm** — ``table3(jobs=4)`` with the on-disk parsed-module
  cache warmed, i.e. the steady state of a CI run that executes the
  harness repeatedly over an unchanged corpus.

The wall-clock gate is asserted on any multi-core machine
(``os.cpu_count() >= 2``): the persistent pool + caches must deliver
>1.5x at ``jobs=4`` with even two cores, and ≥3x on a ≥4-core box
(GitHub's ubuntu-latest runners have 4).  Single-core boxes cannot beat
the serial loop with a process pool, so they record the measured
numbers in BENCH_port.json with ``gate_enforced: false`` and skip the
assertion — the JSON field always tells the truth about whether the
floor was applied, and which floor.

Bit-identity is checked on the Table 2 + alias corpus: the printed IR
of every port produced through the process pool must equal the printed
IR of the same port done in-process, byte for byte.
"""

import json
import os
import time

import pytest

from repro.api import compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.bench.synth import PAPER_TABLE3, generate_codebase
from repro.bench.tables import ALIAS_BENCHMARKS, TABLE2_BENCHMARKS, table3
from repro.core.config import PortingLevel
from repro.core.parallel import PortTask
from repro.core.profile import STAGE_ORDER
from repro.core.workers import run_batch
from repro.ir.printer import print_module

SCALE = 100
JOBS = 4
#: Gate applies on any multi-core machine ...
MIN_CPUS = 2
#: ... at this floor; a full ``JOBS``-core machine must clear the
#: stretch floor instead.
SPEEDUP_FLOOR = 1.5
SPEEDUP_STRETCH = 3.0
IDENTITY_CORPUS = TABLE2_BENCHMARKS + ALIAS_BENCHMARKS


def _active_floor():
    """(floor, enforced) for this machine — recorded verbatim in JSON."""
    cpus = os.cpu_count() or 1
    if cpus >= JOBS:
        return SPEEDUP_STRETCH, True
    if cpus >= MIN_CPUS:
        return SPEEDUP_FLOOR, True
    return SPEEDUP_FLOOR, False


def _speedup(serial_seconds, parallel_seconds):
    """Wall-clock ratio with a near-zero guard (timer-resolution runs)."""
    if parallel_seconds < 1e-6:
        return 0.0
    return serial_seconds / parallel_seconds

#: Columns that must be identical between the serial and parallel
#: harness paths (everything except wall-clock noise).
STATIC_COLUMNS = (
    "application", "sloc", "spinloops", "optiloops",
    "orig_explicit", "orig_implicit",
    "atomig_explicit", "atomig_implicit", "naive_implicit",
)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """Route the frontend cache to a throwaway directory."""
    path = tmp_path_factory.mktemp("atomig-cache")
    previous = os.environ.get("ATOMIG_CACHE_DIR")
    os.environ["ATOMIG_CACHE_DIR"] = str(path)
    yield str(path)
    if previous is None:
        os.environ.pop("ATOMIG_CACHE_DIR", None)
    else:
        os.environ["ATOMIG_CACHE_DIR"] = previous


@pytest.fixture(scope="module")
def serial_run():
    """(rows, wall_seconds) of the pre-PR-shaped serial cold run."""
    started = time.perf_counter()
    rows = table3(scale=SCALE, frontend_cache=False, profile=True)
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def parallel_run(cache_dir):
    """(rows, wall_seconds) of the jobs=4 run over a warmed cache."""
    # Warm the on-disk cache the way a CI steady state would be: each
    # app's module is compiled once and pickled; the pool workers then
    # hit the disk entries instead of re-running the frontend.
    for app_name in PAPER_TABLE3:
        source = generate_codebase(app_name, scale=SCALE, seed=0)
        compile_source(source, app_name, cache=True)
    started = time.perf_counter()
    rows = table3(scale=SCALE, jobs=JOBS, frontend_cache=True, profile=True)
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def identity_results():
    """Printed IR per (program, level): in-process vs pool-parallel."""
    levels = ("atomig", "naive")
    tasks = []
    inline = {}
    for name in IDENTITY_CORPUS:
        source = BENCHMARKS[name].mc_source()
        module = compile_source(source, name)
        for level in levels:
            ported, _report = port_module(module, PortingLevel(level))
            inline[(name, level)] = print_module(ported)
            tasks.append(PortTask(
                name=name, source=source, level=level, emit_ir=True,
            ))
    serial_out = run_batch(tasks, jobs=None)
    parallel_out = run_batch(tasks, jobs=JOBS)
    return {
        (task.name, task.level): {
            "inline": inline[(task.name, task.level)],
            "serial": serial.ir_text,
            "parallel": parallel.ir_text,
        }
        for task, serial, parallel in zip(tasks, serial_out, parallel_out)
    }


def test_static_columns_identical(serial_run, parallel_run):
    """Parallelism must not change a single reported statistic."""
    serial_rows, _ = serial_run
    parallel_rows, _ = parallel_run
    for serial, parallel in zip(serial_rows, parallel_rows):
        for column in STATIC_COLUMNS:
            assert serial[column] == parallel[column], (
                serial["application"], column
            )


def test_ports_bit_identical(identity_results):
    """Pool ports == serial-task ports == plain in-process ports."""
    for key, texts in identity_results.items():
        assert texts["serial"] == texts["inline"], key
        assert texts["parallel"] == texts["inline"], key


def test_profile_attached(serial_run):
    rows, _ = serial_run
    for row in rows:
        stats = row["_stats"]
        assert stats["ports"] >= 2  # atomig + naive
        assert stats["total_seconds"] > 0
        recorded = set(stats["stage_seconds"])
        assert recorded <= set(STAGE_ORDER)
        for stage in ("clone", "alias", "atomize", "fences"):
            assert stage in recorded


def test_parallel_speedup(serial_run, parallel_run):
    """The headline gate: >1.5x at jobs=4 on any multi-core machine
    (>=3x on a full 4-core box)."""
    _rows, serial_seconds = serial_run
    _prows, parallel_seconds = parallel_run
    speedup = _speedup(serial_seconds, parallel_seconds)
    floor, enforced = _active_floor()
    if not enforced:
        pytest.skip(
            f"{os.cpu_count()} CPU(s) < {MIN_CPUS}: a process pool "
            f"cannot beat the serial loop here (measured {speedup:.2f}x; "
            "recorded in BENCH_port.json with gate_enforced=false)"
        )
    assert speedup >= floor, (
        f"table3 scale={SCALE} jobs={JOBS}: serial {serial_seconds:.2f}s, "
        f"parallel {parallel_seconds:.2f}s -> {speedup:.2f}x "
        f"< {floor}x on {os.cpu_count()} CPUs"
    )


def test_bench_port_json_regenerated(serial_run, parallel_run,
                                     identity_results, results_dir):
    from repro.core.workers import pool_stats

    serial_rows, serial_seconds = serial_run
    parallel_rows, parallel_seconds = parallel_run
    speedup = _speedup(serial_seconds, parallel_seconds)
    floor, enforced = _active_floor()
    payload = {
        "scale": SCALE,
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "min_cpus": MIN_CPUS,
        "speedup_floor": floor,
        "gate_enforced": enforced,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        # Per-worker busy time from the persistent pools: shows skew
        # (one worker stuck on a lumpy port) that aggregate wall
        # seconds hide.
        "pools": pool_stats(),
        "bit_identical": {
            f"{name}:{level}": (
                texts["serial"] == texts["inline"]
                and texts["parallel"] == texts["inline"]
            )
            for (name, level), texts in identity_results.items()
        },
        "rows": [
            {
                "application": row["application"],
                "sloc": row["sloc"],
                "serial_build_seconds": row["build_seconds"],
                "parallel_build_seconds": prow["build_seconds"],
                "serial_atomig_seconds": row["atomig_seconds"],
                "parallel_atomig_seconds": prow["atomig_seconds"],
                "profile": row["_stats"],
            }
            for row, prow in zip(serial_rows, parallel_rows)
        ],
    }
    path = os.path.join(results_dir, "BENCH_port.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    assert os.path.getsize(path) > 0
