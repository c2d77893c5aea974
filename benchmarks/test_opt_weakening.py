"""Barrier-weakening gate: the optimizer must pay for itself, safely.

Runs the oracle-guided weakener over the Table 2 corpus (the same
modules whose verification the paper reports) and enforces the ISSUE's
acceptance bar:

- every module keeps its model-checker verdict after ``atomig
  optimize`` (the whole point of the oracle);
- estimated barrier cost (via the shared ``vm.costs`` path) drops on at
  least the spinlock and ring benchmarks — the hot-path shapes Table 5
  shows blanket-SC losing on;
- the oracle stays cheap: batched bisection keeps the number of checks
  well below one-per-ladder-rung.

The measured numbers land in ``BENCH_opt.json`` (barriers before/after,
oracle checks, wall-clock) so the weakening trajectory is tracked from
this PR onward, and ``table9.txt`` is regenerated for EXPERIMENTS.md.
Table 9 is regenerated ``REPEATS`` times: the rows must repeat exactly
apart from their timings, and BENCH_opt.json records every
repetition's wall times and reports the median repetition.
"""

import json
import os
import platform
import time

import pytest

from repro.bench import tables as T
from repro.bench.tables import TABLE9_BENCHMARKS, table9

#: Benchmarks whose estimated barrier cost MUST drop (the ISSUE gate).
MUST_IMPROVE = ("ck_spinlock_cas", "ck_ring")

#: Ceiling on oracle checks per module: every candidate walking its
#: whole ladder one check at a time would cost ~3 checks per site;
#: batching + bisection must stay far below that on these modules.
CHECKS_PER_CANDIDATE_CEILING = 2.0
#: Table 9 regenerations; odd, so the reported median is one of them.
REPEATS = 3
#: The gate tests below.  None depends on the CPU count, so each is
#: enforced on every host; BENCH_opt.json records that per gate.
GATES = (
    "test_repetitions_agree_apart_from_timings",
    "test_every_corpus_module_keeps_its_verdict",
    "test_barrier_cost_drops_on_hot_path_benchmarks",
    "test_no_module_gets_more_expensive",
    "test_bisection_keeps_oracle_checks_bounded",
    "test_fast_path_answers_some_queries_statically",
)


@pytest.fixture(scope="module")
def repetitions():
    """``REPEATS`` (rows, wall_seconds) full Table 9 regenerations."""
    runs = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        rows = table9()
        runs.append((rows, time.perf_counter() - started))
    return runs


@pytest.fixture(scope="module")
def table9_run(repetitions):
    """The repetition with the median wall time: the reported one."""
    return sorted(repetitions, key=lambda run: run[1])[REPEATS // 2]


def test_repetitions_agree_apart_from_timings(repetitions, untimed):
    reference = untimed(repetitions[0][0])
    for rows, _seconds in repetitions[1:]:
        assert untimed(rows) == reference


def test_every_corpus_module_keeps_its_verdict(table9_run):
    rows, _seconds = table9_run
    assert [row["benchmark"] for row in rows] == list(TABLE9_BENCHMARKS)
    for row in rows:
        assert row["verdict_kept"], (
            f"{row['benchmark']}: optimize changed the verdict "
            f"({row['_report']['baseline_outcome']} -> "
            f"{row['_report']['final_outcome']})"
        )


def test_barrier_cost_drops_on_hot_path_benchmarks(table9_run):
    rows, _seconds = table9_run
    by_name = {row["benchmark"]: row for row in rows}
    for name in MUST_IMPROVE:
        row = by_name[name]
        assert row["cost_opt"] < row["cost_sc"], (
            f"{name}: no barrier-cost win "
            f"({row['cost_sc']} -> {row['cost_opt']})"
        )


def test_no_module_gets_more_expensive(table9_run):
    rows, _seconds = table9_run
    for row in rows:
        assert row["cost_opt"] <= row["cost_sc"], row["benchmark"]


def test_bisection_keeps_oracle_checks_bounded(table9_run):
    rows, _seconds = table9_run
    for row in rows:
        candidates = row["_report"]["candidates"]
        if candidates == 0:
            continue
        ratio = row["checks"] / candidates
        assert ratio <= CHECKS_PER_CANDIDATE_CEILING, (
            f"{row['benchmark']}: {row['checks']} checks for "
            f"{candidates} candidates ({ratio:.2f}/candidate)"
        )


def test_fast_path_answers_some_queries_statically(table9_run):
    """The robustness fast path must carry real weight on Table 9.

    Several corpus modules are statically robust once ported (their
    oracle can certify weakenings without exploring a single state);
    across the whole corpus the hit count must be nonzero and every
    hit must have saved its baseline's exploration.
    """
    rows, _seconds = table9_run
    hits = sum(row["_report"]["robustness_hits"] for row in rows)
    saved = sum(row["_report"]["robustness_states_saved"] for row in rows)
    assert hits > 0, "no oracle query was answered by the fast path"
    assert saved > 0, "fast-path hits saved no exploration"
    for row in rows:
        report = row["_report"]
        if report["robustness_hits"]:
            assert report["baseline_robust"], row["benchmark"]


def test_table9_recorded(table9_run, record_table):
    rows, _seconds = table9_run
    text = T.format_table(
        rows,
        ["benchmark", "cost_sc", "cost_opt", "saved_pct", "weakened",
         "fences_gone", "frozen", "checks", "verdict_kept"],
        title="Table 9: oracle-guided barrier weakening (SC vs optimized)",
    )
    record_table("table9", text)


def test_bench_opt_json_regenerated(repetitions, table9_run, results_dir):
    rows, seconds = table9_run
    payload = {
        "repeats": REPEATS,
        # The reported repetition: the one with the median wall time.
        "wall_seconds": seconds,
        "repetitions": [
            {
                "wall_seconds": run_seconds,
                "row_wall_seconds": {
                    row["benchmark"]: row["_report"]["wall_seconds"]
                    for row in run_rows
                },
            }
            for run_rows, run_seconds in repetitions
        ],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "gates": {name: {"gate_enforced": True} for name in GATES},
        "must_improve": list(MUST_IMPROVE),
        "checks_per_candidate_ceiling": CHECKS_PER_CANDIDATE_CEILING,
        "rows": [
            {
                "benchmark": row["benchmark"],
                "barrier_cost_sc": row["cost_sc"],
                "barrier_cost_optimized": row["cost_opt"],
                "saved_pct": row["saved_pct"],
                "accesses_weakened": row["weakened"],
                "fences_deleted": row["fences_gone"],
                "frozen_sites": row["frozen"],
                "candidates": row["_report"]["candidates"],
                "oracle_checks": row["checks"],
                "oracle_cache_hits": row["_report"]["cache_hits"],
                "oracle_robustness_checks":
                    row["_report"]["robustness_checks"],
                "oracle_robustness_hits": row["_report"]["robustness_hits"],
                "robustness_states_saved":
                    row["_report"]["robustness_states_saved"],
                "baseline_robust": row["_report"]["baseline_robust"],
                "oracle_states": row["_report"]["oracle_states"],
                "rounds": row["_report"]["rounds"],
                "verdict": row["_report"]["baseline_outcome"],
                "verdict_preserved": row["verdict_kept"],
                "wall_seconds": row["_report"]["wall_seconds"],
            }
            for row in rows
        ],
    }
    path = os.path.join(results_dir, "BENCH_opt.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    assert os.path.getsize(path) > 0
