"""Alias-precision gate: points_to must shrink over-atomization without
ever breaking a WMM verdict.

Three properties are enforced over the Table 8 corpus (Table 2 programs
plus the ``alias``-tagged variants):

- **Reduction**: on at least three programs points_to emits strictly
  fewer implicit barriers than type_based, and every points_to port
  still verifies under WMM — the pruning is provably safe, not lucky.
- **Invariance**: on the Table 2 programs the two modes are barrier-
  identical (pts keys only fill keyless accesses, never split groups).
- **Gap**: on ``message_passing_indirect`` type_based *misses* a
  required barrier (WMM violation) and points_to restores it — the
  pointer-argument detection gap the analysis exists to close.

Results land in ``benchmarks/results/BENCH_alias.json`` for trend
tracking (EXPERIMENTS.md T8).
"""

import json
import os
import platform

import pytest

from repro.bench.tables import (
    ALIAS_BENCHMARKS,
    TABLE2_BENCHMARKS,
    TABLE8_BENCHMARKS,
    table8,
)

BOUNDS = dict(max_steps=2500, max_states=400_000)
#: Acceptance floor: strictly fewer implicit barriers on ≥3 programs.
MIN_PROGRAMS_REDUCED = 3
#: The gap demo: type_based under-atomizes here, so its WMM check fails
#: by design and the mode comparison must exempt it.
GAP_BENCHMARK = "message_passing_indirect"
#: The gate tests below.  None depends on the CPU count (the checks fan
#: out over every CPU, but each verdict is the same on any number), so
#: each is enforced on every host; BENCH_alias.json records that per
#: gate.
GATES = (
    "test_covers_full_table8_corpus",
    "test_points_to_always_verifies_under_wmm",
    "test_points_to_reduces_barriers_on_three_programs",
    "test_points_to_never_exceeds_type_based_except_gap",
    "test_table2_barriers_invariant_across_modes",
    "test_gap_benchmark_fixed_by_points_to",
    "test_alias_variants_prune_thread_local_accesses",
)


@pytest.fixture(scope="module")
def gate_rows():
    return table8(jobs=os.cpu_count(), **BOUNDS)


def by_name(rows):
    return {row["benchmark"]: row for row in rows}


def test_covers_full_table8_corpus(gate_rows):
    assert {r["benchmark"] for r in gate_rows} == set(TABLE8_BENCHMARKS)


def test_points_to_always_verifies_under_wmm(gate_rows):
    for row in gate_rows:
        assert row["pt_wmm_ok"], (
            f"{row['benchmark']}: points_to port fails under WMM"
        )


def test_points_to_reduces_barriers_on_three_programs(gate_rows):
    reduced = [
        row["benchmark"] for row in gate_rows
        if row["benchmark"] != GAP_BENCHMARK
        and row["points_to_impl"] < row["type_based_impl"]
    ]
    assert len(reduced) >= MIN_PROGRAMS_REDUCED, (
        f"only {reduced} show a reduction; deltas: "
        f"{ {r['benchmark']: r['delta'] for r in gate_rows} }"
    )


def test_points_to_never_exceeds_type_based_except_gap(gate_rows):
    # Outside the gap demo, points_to may only remove barriers.  The
    # gap demo adds one, on purpose: the barrier type_based missed.
    for row in gate_rows:
        if row["benchmark"] == GAP_BENCHMARK:
            continue
        assert row["points_to_impl"] <= row["type_based_impl"], (
            f"{row['benchmark']}: points_to grew the barrier count"
        )


def test_table2_barriers_invariant_across_modes(gate_rows):
    rows = by_name(gate_rows)
    for name in TABLE2_BENCHMARKS:
        row = rows[name]
        assert row["delta"] == 0, f"{name}: modes disagree"
        assert row["pruned_local"] == 0, f"{name}: spurious pruning"
        assert row["tb_wmm_ok"] and row["pt_wmm_ok"], name


def test_gap_benchmark_fixed_by_points_to(gate_rows):
    row = by_name(gate_rows)[GAP_BENCHMARK]
    assert not row["tb_wmm_ok"], (
        "type_based unexpectedly verifies the pointer-argument gap demo; "
        "the benchmark no longer demonstrates the gap"
    )
    assert row["pt_wmm_ok"]
    assert row["points_to_impl"] > row["type_based_impl"]
    assert row["pts_keyed"] > 0


def test_alias_variants_prune_thread_local_accesses(gate_rows):
    rows = by_name(gate_rows)
    pruning = [n for n in ALIAS_BENCHMARKS
               if n != GAP_BENCHMARK and rows[n]["pruned_local"] > 0]
    assert len(pruning) >= MIN_PROGRAMS_REDUCED, (
        f"only {pruning} pruned thread-local accesses"
    )


def test_bench_alias_json_regenerated(gate_rows, results_dir):
    payload = {
        "model": "wmm",
        "level": "atomig",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "bounds": BOUNDS,
        "gates": {name: {"gate_enforced": True} for name in GATES},
        "min_programs_reduced": MIN_PROGRAMS_REDUCED,
        "gap_benchmark": GAP_BENCHMARK,
        "rows": gate_rows,
        "summary": {
            "programs_reduced": sorted(
                row["benchmark"] for row in gate_rows
                if row["points_to_impl"] < row["type_based_impl"]
            ),
            "all_points_to_wmm_ok": all(r["pt_wmm_ok"] for r in gate_rows),
            "table2_invariant": all(
                row["delta"] == 0 for row in gate_rows
                if row["benchmark"] in TABLE2_BENCHMARKS
            ),
        },
    }
    path = os.path.join(results_dir, "BENCH_alias.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    assert os.path.getsize(path) > 0
