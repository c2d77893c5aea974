"""Metric arithmetic of the end-to-end benchmark.

A workload run yields *deliveries* (one per module it delivered, or
failed to deliver), latency *samples* (one per module or job, as the
workload defines it), host-speed probes, its measured wall time and, in
the traced run, spans.  This module turns those into the end-to-end
metrics, the per-layer metrics and the list of outputs that differ from
``expected.json``.
"""

import math
import time

#: Samples that must lie beyond a percentile before it is reported:
#: p90 needs 100 samples.
MIN_TAIL = 10
#: Turns of the host-speed probe's loop: about 2.5 ms.
PROBE_LOOPS = 30_000
#: The probe's time on the reference host; measured seconds are
#: reported as seconds on a host that runs the probe this fast.
REFERENCE_PROBE_S = 0.0025


def percentile(samples, q):
    """Nearest-rank ``q``-quantile (``0 < q <= 1``); ``None`` if empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def latency_summary(samples):
    """p50, p90 and the sample count.

    p90 is ``None`` below 100 samples: with fewer than ten samples
    beyond it, one slow outlier moves it.
    """
    count = len(samples)
    tail = count - math.ceil(0.9 * count) if count else 0
    return {
        "samples": count,
        "p50": percentile(samples, 0.5),
        "p90": percentile(samples, 0.9) if tail >= MIN_TAIL else None,
        "p90_tail": tail,
    }


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator, denominator):
    """``numerator / denominator``, 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def geomean(values):
    """Geometric mean of positive ``values``; 0 when there are none."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def probe_seconds():
    """Seconds the host takes for PROBE_LOOPS turns of a fixed loop.

    The loop allocates nothing the garbage collector tracks, so its time
    depends on the host alone, never on the state the program left.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + i * i) % 65521
    return time.perf_counter() - started


def host_slowdown(probes):
    """How much slower than the reference host the run's probes ran."""
    return _mean(probes) / REFERENCE_PROBE_S if probes else 1.0


def end_to_end(deliveries, samples, wall_s, open_loop, probes):
    """The user-visible metrics (``setup_s`` and memory come from run.py).

    ``samples`` holds one latency sample per module or job (see
    ``workloads.sample``); ``probes`` the ``probe_seconds`` taken between
    them.  Every time the porting path spends is divided by the run's
    ``host_slowdown``, which turns it into seconds on the reference
    host: on a shared VM the same module took 25-40% longer for minutes
    at a time, in step with the probe, so that raw times of one commit
    spread past any useful bound.

    A closed-loop run's throughput is its modules and lines over the sum
    of its latencies.  An open-loop run's throughput is set by its
    schedule — modules and ported lines over the measured wall time —
    and is not normalized.  Latency is the geometric mean over executed
    modules or jobs, so that every one weighs the same (open loop: due to
    done, queue wait included).  Dedup hits count as delivered modules
    but carry no lines and no latency: they return a stored result in
    about a millisecond whatever the porting path costs.
    """
    delivered = [d for d in deliveries if "error" not in d]
    lat = latency_summary([sample["seconds"] for sample in samples])
    slowdown = host_slowdown(probes)
    lat["host_slowdown"] = slowdown
    lat["probes"] = len(probes)
    executed = [sample for sample in samples if not sample["hit"]]
    if open_loop:
        busy = wall_s
    else:
        busy = sum(sample["seconds"] for sample in samples) / slowdown
    # Barrier cost per distinct delivered module: a module delivered
    # twice has the same code, and counting it once keeps the value
    # independent of how many passes or repeats fit in the run.
    costs = {
        d["key"]: d["barrier_cost"] for d in delivered
        if d.get("barrier_cost") is not None
    }
    metrics = {
        "modules_per_s": ratio(sum(s["modules"] for s in samples), busy),
        "lines_per_s": ratio(sum(s["lines"] for s in executed), busy),
        "latency_geomean_s":
            geomean(s["seconds"] for s in executed) / slowdown,
        "barrier_cost": _mean(costs.values()),
    }
    return metrics, lat


def check_outputs(deliveries, expected):
    """``{module: [problems]}`` for deliveries that differ from the known
    answers: a wmm verdict other than ``ok``, a repair that left the
    module non-robust, a weakening that changed the verdict, or a barrier
    cost other than the recorded one."""
    problems = {}
    for delivery in deliveries:
        found = []
        if "error" in delivery:
            found.append(delivery["error"])
        else:
            verdict = delivery.get("verdict")
            if verdict is not None and verdict != expected["verdict"]:
                found.append(f"verdict {verdict}, expected "
                             f"{expected['verdict']}")
            if delivery.get("robust_after") is False:
                found.append("repair left the module non-robust")
            if delivery.get("verdict_preserved") is False:
                found.append("weakening changed the verdict")
            cost = delivery.get("barrier_cost")
            if cost is not None:
                want = expected["barrier_cost"][delivery["path"]].get(
                    delivery["key"])
                if cost != want:
                    found.append(f"barrier cost {cost}, expected {want}")
        if found:
            problems.setdefault(delivery["module"], []).extend(found)
    return problems


def per_layer(spans, jobs):
    """Per-layer metrics from the traced run's spans and job records.

    Seconds are means per call of the layer (per compile, per port, per
    final check, per pool batch, per store save); counts are means per
    call as well, so the values do not grow with run length.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def spans_of(name):
        return by_name.get(name, [])

    def mean_dur(name):
        return _mean(s["dur"] for s in spans_of(name))

    metrics = {}

    # Only steps called by compile_source count: the IR text parser and
    # the oracle also call verify_module.
    compiles = {s["id"] for s in spans_of("frontend")}
    steps = {
        step: [s for s in spans_of(f"frontend.{step}")
               if s["parent"] in compiles]
        for step in ("parse", "sema", "lower", "verify")
    }
    for step, calls in steps.items():
        metrics[f"frontend.{step}_s"] = _mean(s["dur"] for s in calls)
    compiled_lines = sum(s["attrs"]["lines"] for s in steps["parse"])
    step_time = sum(s["dur"] for calls in steps.values() for s in calls)
    metrics["frontend.lines_per_s"] = ratio(compiled_lines, step_time)

    loads = spans_of("modcache.load")
    stores = spans_of("modcache.store")
    metrics["modcache.load_s"] = mean_dur("modcache.load")
    metrics["modcache.store_s"] = mean_dur("modcache.store")
    metrics["modcache.hit_rate"] = ratio(
        sum(1 for s in loads if s["attrs"]["hit"]), len(loads))
    metrics["modcache.bytes"] = _mean(s["attrs"]["bytes"] for s in stores)

    ports = spans_of("port")
    for stage in ("clone", "inline", "annotations", "spinloops", "alias",
                  "count_barriers", "verify", "repair", "optimize"):
        metrics[f"pipeline.{stage}_s"] = _mean(
            s["attrs"]["stages"].get(stage, 0.0) for s in ports)
    metrics["pipeline.total_s"] = _mean(s["attrs"]["total_s"] for s in ports)

    repairs = [s["attrs"]["repair"] for s in ports if "repair" in s["attrs"]]
    metrics["repair.cycles_broken"] = _mean(r["cycles_broken"]
                                            for r in repairs)
    metrics["repair.actions"] = _mean(r["actions"] for r in repairs)
    metrics["repair.robust_after_frac"] = ratio(
        sum(1 for r in repairs if r["robust_after"]), len(repairs))

    checks = spans_of("check")
    metrics["check.s"] = mean_dur("check")
    metrics["check.static_frac"] = ratio(
        sum(1 for s in checks if s["attrs"]["verdict_source"] == "robustness"),
        len(checks))
    metrics["explorer.states"] = _mean(s["attrs"]["states"] for s in checks)
    metrics["explorer.transitions"] = _mean(s["attrs"]["transitions"]
                                            for s in checks)
    metrics["explorer.states_per_s"] = ratio(
        sum(s["attrs"]["states"] for s in checks),
        sum(s["attrs"]["explore_s"] for s in checks))
    metrics["explorer.dedup_hits"] = _mean(s["attrs"]["dedup_hits"]
                                           for s in checks)

    opts = [s["attrs"] for s in spans_of("optimize")]
    candidates = sum(o["candidates"] for o in opts)
    metrics["oracle.checks"] = _mean(o["checks"] for o in opts)
    metrics["oracle.cache_hits"] = _mean(o["cache_hits"] for o in opts)
    metrics["oracle.robustness_hits"] = _mean(o["robustness_hits"]
                                              for o in opts)
    metrics["oracle.states"] = _mean(o["states"] for o in opts)
    metrics["oracle.checks_per_candidate"] = ratio(
        sum(o["checks"] for o in opts), candidates)
    metrics["oracle.useful_frac"] = ratio(sum(o["useful"] for o in opts),
                                           candidates)

    batches = spans_of("pool.map")
    pool_wall = sum(b["dur"] for b in batches)
    busy = [sum(b["attrs"]["busy"].values()) for b in batches]
    workers = max((b["attrs"]["workers"] for b in batches), default=0)
    per_worker = {}
    for batch in batches:
        for pid, seconds in batch["attrs"]["busy"].items():
            per_worker[pid] = per_worker.get(pid, 0.0) + seconds
    metrics["pool.wall_s"] = _mean(b["dur"] for b in batches)
    metrics["pool.busy_s"] = _mean(busy)
    metrics["pool.efficiency"] = ratio(sum(busy), workers * pool_wall)
    metrics["pool.skew"] = ratio(max(per_worker.values(), default=0.0),
                                  _mean(per_worker.values()))
    metrics["pool.dispatch_s"] = _mean(
        b["dur"] - max(b["attrs"]["busy"].values(), default=0.0)
        for b in batches)
    for field in ("task_bytes", "result_bytes", "pickle_s"):
        metrics[f"pool.{field}"] = _mean(b["attrs"][field] for b in batches)

    executed = [j for j in jobs if not j["hit"]]
    metrics["serve.queue_wait_p50_s"] = percentile(
        [j["queue_wait"] for j in executed], 0.5) or 0.0
    metrics["serve.queue_wait_p90_s"] = percentile(
        [j["queue_wait"] for j in executed], 0.9) or 0.0
    metrics["serve.run_p50_s"] = percentile(
        [j["run"] for j in executed], 0.5) or 0.0
    metrics["serve.store_save_s"] = mean_dur("store.save")
    metrics["serve.record_bytes"] = _mean(s["attrs"]["bytes"]
                                          for s in spans_of("store.save"))
    metrics["serve.dedup_hit_rate"] = ratio(
        sum(1 for j in jobs if j["hit"]), len(jobs))
    metrics["serve.repeat_rate"] = ratio(
        sum(1 for j in jobs if j["repeat"]), len(jobs))
    metrics["serve.generator_late_p90_s"] = percentile(
        [j["late"] for j in jobs], 0.9) or 0.0
    return metrics
