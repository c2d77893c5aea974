"""Smoke test of the end-to-end benchmark at its smallest size.

Run with ``python -m pytest benchmarks/e2e/test_e2e_smoke.py`` from the
repository root (about a minute on two CPUs).  Each workload runs once
traced at a tiny size — one pass, one tree, a 2 s open loop — and must
emit every metric with its unit, deliver every module correctly and
write a trace file that parses.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 11))
    assert metrics.percentile(samples, 0.5) == 5
    assert metrics.percentile(samples, 0.9) == 9
    assert metrics.percentile(samples, 1.0) == 10
    assert metrics.percentile([], 0.5) is None


@pytest.mark.parametrize("count, p90", [(99, None), (100, 89.0)])
def test_p90_suppressed_below_100_samples(count, p90):
    summary = metrics.latency_summary([float(i) for i in range(count)])
    assert summary["samples"] == count
    assert summary["p50"] == float(math.ceil(count / 2) - 1)
    assert summary["p90"] == p90


def _sample(seconds, hit=False):
    return {"seconds": seconds, "hit": hit, "modules": 1, "lines": 10}


#: Probes of a host that runs twice as slow as the reference.
SLOW_PROBES = [2 * metrics.REFERENCE_PROBE_S] * 3


def test_closed_loop_times_are_normalized_by_host_speed():
    samples = [_sample(1.0), _sample(4.0)]
    values, summary = metrics.end_to_end([], samples, 9.0, False,
                                         SLOW_PROBES)
    assert summary["host_slowdown"] == pytest.approx(2.0)
    assert values["modules_per_s"] == pytest.approx(2 / 2.5)
    assert values["lines_per_s"] == pytest.approx(20 / 2.5)
    assert values["latency_geomean_s"] == pytest.approx(1.0)


def test_open_loop_throughput_is_set_by_the_schedule():
    samples = [_sample(0.001, hit=True)] * 3 + [_sample(0.5), _sample(2.0)]
    values, summary = metrics.end_to_end([], samples, 2.0, True,
                                         SLOW_PROBES)
    assert values["modules_per_s"] == pytest.approx(5 / 2.0)
    assert values["lines_per_s"] == pytest.approx(20 / 2.0)
    # Dedup hits are left out of the latency, not the percentiles.
    assert values["latency_geomean_s"] == pytest.approx(0.5)
    assert summary["p50"] == 0.001


def test_synthetic_sources_do_not_depend_on_hash_seed():
    program = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from workloads import digest, synth_source\n"
        "print(digest(synth_source('sqlite', 0, 100)))\n"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        digests.add(subprocess.run(
            [sys.executable, "-c", program, os.path.join(ROOT, "src"), HERE],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("workload, seconds", [
    ("corpus-oneshot", 0.1),
    ("synth-oneshot", 0.1),
    ("serve-mixed", 2),
    ("tree-fanout", 0.1),
])
def test_workload_emits_every_metric(workload, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in SPEC["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]

    with open(os.path.join(HERE, "results", f"{workload}.json")) as handle:
        record = json.load(handle)
    assert record["failed_frac"] == 0
    for metric in SPEC["end_to_end"]:
        cell = record["end_to_end"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert cell["value"] > 0, metric["name"]
    assert record["env"]["cpu_count"] >= 1

    with open(os.path.join(HERE, "results",
                           f"trace-{workload}.json")) as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)
