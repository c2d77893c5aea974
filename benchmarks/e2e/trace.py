"""Benchmark-side tracer: spans around the calls into each layer.

The traced run (``run.py --trace 1``) wraps the public entry points of
every layer the porting path crosses — the ``compile_source`` steps,
``port_module``, ``optimize_module``, ``check_module``,
``modcache.load``/``store``, ``JobStore.save``,
``JobDaemon.submit``/``wait`` and ``WorkerPool.map`` — in spans.  A
span records its name, start, duration, parent span, process, thread
and attributes (module name, counters read off the stats objects the
call returned).  Spans stay in memory; a pool worker forked after
:func:`instrument` appends its spans to a per-process JSON-lines file
in the run's work directory, and :meth:`Tracer.collect` merges them.

Nothing here touches ``src/``: the wrappers are installed at run time
in the benchmark process only, and the untraced run never imports this
module.
"""

import functools
import itertools
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory spans of one benchmark process and its forked workers."""

    def __init__(self, spill_dir):
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name, client=False, **attrs):
        """Time the body as one span; yields its mutable attribute dict.

        ``client=True`` marks spans where the benchmark waits on the
        system (submit/wait); they are excluded from layer coverage.
        """
        stack = self._local.__dict__.setdefault("stack", [])
        span = {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "start": time.perf_counter(),
            "dur": 0.0,
            "client": client,
            "attrs": attrs,
        }
        stack.append(span)
        try:
            yield attrs
        finally:
            span["dur"] = time.perf_counter() - span["start"]
            stack.pop()
            self._keep(span)

    def _keep(self, span):
        if os.getpid() == self.owner:
            self.spans.append(span)
            return
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(span, default=repr) + "\n")

    def wrap(self, owner, attr, name, describe=None, annotate=None,
             client=False):
        """Replace ``owner.attr`` with a version that runs in a span.

        ``describe(*args, **kwargs)`` gives the span's initial
        attributes; ``annotate(attrs, result, *args, **kwargs)`` adds
        what the call returned.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            initial = describe(*args, **kwargs) if describe else {}
            with self.span(name, client=client, **initial) as attrs:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(attrs, result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)

    def collect(self):
        """This process's spans plus every forked worker's spill file."""
        spans = list(self.spans)
        for name in sorted(os.listdir(self.spill_dir)):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                with open(os.path.join(self.spill_dir, name)) as handle:
                    spans.extend(json.loads(line) for line in handle)
        return spans


# -- analysis -------------------------------------------------------------


def _union_length(intervals):
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(spans):
    """{span id: duration minus the part its children cover}."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = {}
    for span in spans:
        start, stop = span["start"], span["start"] + span["dur"]
        covered = _union_length(
            (max(child["start"], start),
             min(child["start"] + child["dur"], stop))
            for child in children[span["id"]]
            if child["start"] < stop and child["start"] + child["dur"] > start
        )
        result[span["id"]] = span["dur"] - covered
    return result


def coverage(spans, start, stop):
    """Share of ``[start, stop]`` covered by non-client spans."""
    if stop <= start:
        return 0.0
    covered = _union_length(
        (max(span["start"], start), min(span["start"] + span["dur"], stop))
        for span in spans
        if not span["client"]
        and span["start"] < stop and span["start"] + span["dur"] > start
    )
    return covered / (stop - start)


def write_chrome(path, spans, origin):
    """Chrome trace-event JSON (opens offline in Perfetto)."""
    selfs = self_times(spans)
    events = []
    for span in spans:
        args = dict(span["attrs"])
        args["self_ms"] = round(selfs[span["id"]] * 1e3, 3)
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "ts": round((span["start"] - origin) * 1e6, 1),
            "dur": round(span["dur"] * 1e6, 1),
            "pid": span["pid"],
            "tid": span["tid"],
            "args": args,
        })
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle,
                  default=repr)


# -- instrumentation --------------------------------------------------------


def instrument(tracer):
    """Wrap each layer's entry point; call after imports, before forking.

    Modules that bind a wrapped function at import time (the optimizer's
    oracle binds ``check_module``) keep the original, so ``check`` spans
    are the final verdicts only; oracle probes show up as the counters
    of the ``optimize`` span instead.  ``compile_source`` imports its
    four frontend steps on every call, so wrapping them where they are
    defined splits each compile into ``frontend.*`` child spans.
    """
    from repro import api, modcache, opt
    from repro.core import workers
    from repro.ir import verifier
    from repro.lang import parser, sema
    from repro.lower import lowering
    from repro.mc import explorer
    from repro.opt import weaken
    from repro.serve import queue, store

    tracer.wrap(modcache, "load", "modcache.load",
                annotate=lambda attrs, module, digest: attrs.update(
                    hit=module is not None))
    tracer.wrap(modcache, "store", "modcache.store",
                annotate=lambda attrs, stored, digest, module: attrs.update(
                    bytes=len(modcache._memory.get(digest, b""))))
    tracer.wrap(api, "compile_source", "frontend",
                describe=lambda source, name="module", *a, **k: {
                    "module": name})
    tracer.wrap(parser, "parse", "frontend.parse",
                describe=lambda source, *a, **k: {
                    "lines": source.count("\n")})
    tracer.wrap(sema, "analyze", "frontend.sema")
    tracer.wrap(lowering, "lower_program", "frontend.lower")
    tracer.wrap(verifier, "verify_module", "frontend.verify")
    tracer.wrap(api, "port_module", "port",
                describe=lambda module, *a, **k: {"module": module.name},
                annotate=_port_attrs)
    # The pipeline's optimize stage calls ``repro.opt.optimize_module``;
    # serve optimize jobs import it from ``repro.opt.weaken``.
    for owner in (opt, weaken):
        tracer.wrap(owner, "optimize_module", "optimize",
                    describe=lambda module, *a, **k: {"module": module.name},
                    annotate=_optimize_attrs)
    tracer.wrap(explorer, "check_module", "check",
                describe=lambda module, *a, **k: {"module": module.name},
                annotate=_check_attrs)
    tracer.wrap(store.JobStore, "save", "store.save",
                annotate=lambda attrs, _none, self, record: attrs.update(
                    job=record["id"],
                    bytes=os.path.getsize(self._path(record["id"]))))
    tracer.wrap(queue.JobDaemon, "submit", "serve.submit", client=True)
    tracer.wrap(queue.JobDaemon, "wait", "serve.wait", client=True)
    _wrap_pool_map(tracer, workers.WorkerPool)


def _port_attrs(attrs, result, *args, **kwargs):
    _ported, report = result
    attrs["stages"] = dict(report.stats.stage_seconds)
    attrs["total_s"] = report.stats.total_seconds
    if report.repair:
        attrs["repair"] = {
            "cycles_broken": report.repair["cycles_broken"],
            "actions": sum(len(r["actions"]) for r in report.repair["rounds"]),
            "robust_after": report.repair["robust_after"],
        }


def _optimize_attrs(attrs, result, *args, **kwargs):
    _optimized, report = result
    attrs.update(
        checks=report.checks_run,
        cache_hits=report.cache_hits,
        robustness_hits=report.robustness_hits,
        states=report.oracle_states,
        candidates=report.candidates,
        useful=report.accesses_weakened + report.fences_deleted,
    )


def _check_attrs(attrs, result, *args, **kwargs):
    stats = result.stats
    attrs.update(
        outcome=result.outcome,
        verdict_source=result.verdict_source,
        states=stats.states_visited if stats else 0,
        transitions=stats.transitions if stats else 0,
        dedup_hits=stats.dedup_hits if stats else 0,
        explore_s=stats.wall_seconds if stats else 0.0,
    )


def _wrap_pool_map(tracer, pool_class):
    """Span each pool batch; time pickling its tasks and outcomes.

    Per-worker busy seconds come from ``WorkerPool.worker_stats``
    deltas.  The pickle probe runs after the span closes, so it adds to
    the traced run's wall but not to the batch's span.
    """
    original = pool_class.map

    @functools.wraps(original)
    def traced_map(self, worker, tasks, chunksize=None):
        tasks = list(tasks)
        before = {pid: dict(stats) for pid, stats in self.worker_stats.items()}
        with tracer.span("pool.map", tasks=len(tasks),
                         workers=self.jobs) as attrs:
            results = original(self, worker, tasks, chunksize)
        attrs["busy"] = {
            str(pid): stats["busy_seconds"]
            - before.get(pid, {}).get("busy_seconds", 0.0)
            for pid, stats in self.worker_stats.items()
        }
        started = time.perf_counter()
        task_blob = pickle.dumps(tasks)
        result_blob = pickle.dumps(results)
        pickle.loads(task_blob)
        pickle.loads(result_blob)
        attrs.update(task_bytes=len(task_blob), result_bytes=len(result_blob),
                     pickle_s=time.perf_counter() - started)
        return results

    pool_class.map = traced_map
