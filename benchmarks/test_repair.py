"""Static fence-repair gate: synthesized covers must be sound and cheap.

Three jobs, mirroring the robustness and weakening gates:

- **Corpus soundness**: every corpus benchmark (including the perf-only
  phoenix kernels) must re-synthesize to a statically robust module
  whose verification then costs *zero* explored states
  (``verdict_source == "robustness"``), and the synthesized barrier
  cost must never exceed the robust blanket-SC completion — for both
  architecture cost models.
- **A/B verdict preservation**: for the Table 2 corpus, the repaired
  module's full WMM exploration must reach the same verdict as the
  original program under SC — repair may only add order, never change
  what the program computes.
- **Artifacts**: regenerates ``table10.txt`` (repair vs oracle
  weakening per architecture), ``BENCH_repair.json`` and the
  ``repair_corpus.txt`` CI snapshot (same format as ``atomig repair
  --corpus``).  Table 10 is regenerated ``REPEATS`` times: the rows
  must repeat exactly apart from their timings, and BENCH_repair.json
  records every repetition's wall times and reports the median
  repetition.
"""

import json
import os
import platform
import time

import pytest

from repro.analysis.repair import resynthesize_ported
from repro.api import check_module, compile_source, port_module
from repro.bench import tables as T
from repro.bench.corpus import BENCHMARKS
from repro.bench.tables import TABLE2_BENCHMARKS, table10
from repro.core.config import PortingLevel

#: Checker bounds matching the Table 2 harness.
MAX_STEPS = 600

ARCHES = ("armv8", "power")
#: Table 10 regenerations; odd, so the reported median is one of them.
REPEATS = 3
#: The gate tests below.  None depends on the CPU count, so each is
#: enforced on every host; BENCH_repair.json records that per gate.
GATES = (
    "test_table10_repetitions_agree_apart_from_timings",
    "test_every_corpus_module_repairs_to_robust",
    "test_repaired_modules_verify_with_zero_states",
    "test_repair_cost_never_exceeds_blanket_sc",
    "test_ab_verdicts_preserved_on_table2",
    "test_table10_covers_both_arches",
    "test_table10_repair_beats_blanket_sc",
)


def _corpus_sources():
    """name -> source() for every benchmark with any source at all."""
    out = {}
    for name in sorted(BENCHMARKS):
        benchmark = BENCHMARKS[name]
        source = benchmark.mc_source or benchmark.perf_source
        if source is not None:
            out[name] = source
    return out


@pytest.fixture(scope="module")
def resynthesized_corpus():
    """name -> {arch: (repaired_module, RepairReport)} for the corpus."""
    out = {}
    for name, source in _corpus_sources().items():
        module = compile_source(source(), name)
        ported, _report = port_module(module, PortingLevel.ATOMIG)
        out[name] = {
            arch: resynthesize_ported(ported, model="wmm", arch=arch)
            for arch in ARCHES
        }
    return out


@pytest.fixture(scope="module")
def table10_repetitions():
    """``REPEATS`` (rows, wall_seconds) full Table 10 regenerations."""
    runs = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        rows = table10()
        runs.append((rows, time.perf_counter() - started))
    return runs


@pytest.fixture(scope="module")
def table10_run(table10_repetitions):
    """The repetition with the median wall time: the reported one."""
    return sorted(table10_repetitions, key=lambda run: run[1])[REPEATS // 2]


# -- corpus soundness -----------------------------------------------------


def test_every_corpus_module_repairs_to_robust(resynthesized_corpus):
    for name, by_arch in sorted(resynthesized_corpus.items()):
        for arch, (_module, report) in by_arch.items():
            assert report.robust_after, (name, arch)


def test_repaired_modules_verify_with_zero_states(resynthesized_corpus):
    """A successful repair makes verification free: the robustness
    fast path answers the WMM check without exploring a state."""
    for name, by_arch in sorted(resynthesized_corpus.items()):
        module, _report = by_arch["armv8"]
        result = check_module(module, model="wmm", max_steps=MAX_STEPS,
                              robustness=True)
        assert result.ok, name
        assert result.verdict_source == "robustness", name
        assert result.states_explored == 0, name


def test_repair_cost_never_exceeds_blanket_sc(resynthesized_corpus):
    """The incumbent fallback guarantees cost_repair <= cost_sc on
    every module, under both architecture cost models."""
    for name, by_arch in sorted(resynthesized_corpus.items()):
        for arch, (_module, report) in by_arch.items():
            sc_cost = report.incumbent.get("barriers", 0)
            assert report.barrier_cost_after <= sc_cost, (
                f"{name}/{arch}: repair {report.barrier_cost_after} > "
                f"blanket-SC completion {sc_cost}"
            )


def test_ab_verdicts_preserved_on_table2(resynthesized_corpus):
    """Repair adds order, never behavior: the repaired module's full
    WMM exploration agrees with the original program under SC."""
    for name in TABLE2_BENCHMARKS:
        original = compile_source(BENCHMARKS[name].mc_source(), name)
        baseline = check_module(original, model="sc", max_steps=MAX_STEPS,
                                robustness=False)
        repaired, _report = resynthesized_corpus[name]["armv8"]
        after = check_module(repaired, model="wmm", max_steps=MAX_STEPS,
                             robustness=False)
        assert after.outcome == baseline.outcome, (
            f"{name}: sc={baseline.outcome} wmm-repaired={after.outcome}"
        )


# -- Table 10: repair vs oracle weakening ---------------------------------


def test_table10_repetitions_agree_apart_from_timings(table10_repetitions,
                                                      untimed):
    reference = untimed(table10_repetitions[0][0])
    for rows, _seconds in table10_repetitions[1:]:
        assert untimed(rows) == reference


def test_table10_covers_both_arches(table10_run):
    rows, _seconds = table10_run
    assert rows, "table10 produced no rows"
    assert {row["arch"] for row in rows} == set(ARCHES)
    for row in rows:
        assert row["robust_after"], (row["benchmark"], row["arch"])
        assert row["verdict_kept"], (row["benchmark"], row["arch"])


def test_table10_repair_beats_blanket_sc(table10_run):
    rows, _seconds = table10_run
    for row in rows:
        assert row["cost_repair"] <= row["cost_sc"], (
            f"{row['benchmark']}/{row['arch']}: "
            f"repair {row['cost_repair']} > SC {row['cost_sc']}"
        )


def test_table10_recorded(table10_run, record_table):
    rows, _seconds = table10_run
    text = T.format_table(
        rows,
        ["benchmark", "arch", "cost_sc", "cost_repair", "cost_opt",
         "strengthened", "fences", "solver", "robust_after",
         "verdict_kept"],
        title="Table 10: static repair vs oracle weakening, "
              "per architecture",
    )
    record_table("table10", text)


def test_bench_repair_json_regenerated(table10_repetitions, table10_run,
                                      results_dir):
    rows, seconds = table10_run
    payload = {
        "repeats": REPEATS,
        # The reported repetition: the one with the median wall time.
        "wall_seconds": seconds,
        "repetitions": [
            {
                "wall_seconds": run_seconds,
                "repair_wall_seconds": {
                    f"{row['benchmark']}/{row['arch']}":
                        row["_repair"]["wall_seconds"]
                    for row in run_rows
                },
            }
            for run_rows, run_seconds in table10_repetitions
        ],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "gates": {name: {"gate_enforced": True} for name in GATES},
        "arches": list(ARCHES),
        "rows": [
            {
                "benchmark": row["benchmark"],
                "arch": row["arch"],
                "barrier_cost_sc": row["cost_sc"],
                "barrier_cost_repair": row["cost_repair"],
                "barrier_cost_optimized": row["cost_opt"],
                "strengthened": row["strengthened"],
                "fences_added": row["fences"],
                "solver": row["solver"],
                "robust_after": row["robust_after"],
                "verdict_preserved": row["verdict_kept"],
                "verify": row["_repair"]["verify"],
                "repair_rounds": len(row["_repair"]["rounds"]),
                "repair_notes": row["_repair"]["notes"],
                "repair_wall_seconds": row["_repair"]["wall_seconds"],
            }
            for row in rows
        ],
    }
    path = os.path.join(results_dir, "BENCH_repair.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    assert os.path.getsize(path) > 0


# -- CI snapshot ----------------------------------------------------------


def _corpus_snapshot_lines(resynthesized_corpus, model="wmm"):
    """Mirror of ``atomig repair --corpus`` (must match exactly)."""
    lines = []
    for name in sorted(resynthesized_corpus):
        _module, report = resynthesized_corpus[name]["armv8"]
        fallback = any("fell back" in note for note in report.notes)
        lines.append(
            f"{name:28s} [{model}/{report.arch}]"
            f" sc={report.incumbent.get('barriers', 0)}"
            f" repair={report.barrier_cost_after}"
            f" strengthened={report.strengthened}"
            f" fences={report.fences_added}"
            f" solver={report.solver}"
            + (" fallback" if fallback else "")
            + ("" if report.robust_after else " NON-ROBUST")
        )
    return lines


def test_repair_corpus_snapshot_regenerated(resynthesized_corpus,
                                            results_dir):
    lines = _corpus_snapshot_lines(resynthesized_corpus)
    assert lines, "corpus produced no repairs"
    assert not any(line.endswith("NON-ROBUST") for line in lines)
    path = os.path.join(results_dir, "repair_corpus.txt")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert os.path.getsize(path) > 0
