"""Priority job queue + daemon: execute stored jobs on worker threads.

A job is a ``(kind, payload)`` pair persisted by
:class:`repro.serve.store.JobStore`.  :func:`job_tasks` maps each kind
onto the task specs the batch harnesses use — ``port`` onto
:class:`repro.core.parallel.PortTask`, ``check`` onto
:class:`repro.mc.parallel.CheckTask`, ``optimize`` and ``repair`` onto
:mod:`repro.opt.parallel`'s ``OptimizeTask`` / ``RepairTask`` — so one
daemon process serves every report type the one-shot CLI can produce.
Multi-task ("tree") jobs of every kind fan out through
:func:`repro.core.workers.run_batch` when the daemon is configured
with ``fanout > 1``.

Dedup is content-addressed: :func:`job_dedup_key` hashes the blake2b
modcache digest of every module's source together with a canonical
JSON fingerprint of everything else in the payload (kind, level,
model, options, config).  Re-submitting an unchanged source+config is
answered instantly from the stored result of the earlier job — zero
porting seconds, ``cache_hit: true`` — never a re-port.

Progress streams off the pipeline's stage boundaries: specs that run
in the worker thread run under
:func:`repro.core.profile.stage_observer`, so every
``stage_start``/``stage_end`` of :func:`repro.core.pipeline.run_porting`
becomes an NDJSON event on ``GET /jobs/<id>/events``.
"""

import hashlib
import heapq
import itertools
import json
import threading
import time
import traceback

from repro.serve.store import TERMINAL_STATES, JobStore, _jsonable

#: Supported job kinds (HTTP 400 for anything else).
JOB_KINDS = ("port", "check", "optimize", "repair")

#: Events kept per job before truncation (streaming clients see all of
#: them live; the record keeps a bounded replay buffer).
MAX_EVENTS = 512


# -- dedup -------------------------------------------------------------------


def job_dedup_key(kind, payload):
    """Content-addressed key for one job: sources + config fingerprint.

    Module sources enter through :func:`repro.modcache.source_digest`
    (which already covers the cache format version and the running
    Python), everything else through canonical JSON, so two submissions
    collide exactly when the service would do identical work.
    """
    from repro import modcache

    fingerprint = {
        key: payload[key]
        for key in sorted(payload)
        if key != "modules"
    }
    hasher = hashlib.blake2b(digest_size=20)
    hasher.update(f"serve1|{kind}|".encode())
    hasher.update(
        json.dumps(fingerprint, sort_keys=True, default=str).encode()
    )
    for module in payload.get("modules", ()):
        digest = modcache.source_digest(
            module.get("source", ""), module.get("name", "module")
        )
        tag = "ir" if module.get("is_ir") else "c"
        hasher.update(f"|{tag}:{digest}".encode())
    return hasher.hexdigest()


# -- payload execution -------------------------------------------------------


def _build_config(payload):
    """AtoMigConfig from the payload's ``config`` dict (None if empty)."""
    from dataclasses import fields

    from repro.core.config import AtoMigConfig

    knobs = _object("config", payload.get("config") or {})
    if not knobs:
        return None
    legal = {field.name for field in fields(AtoMigConfig)}
    unknown = sorted(set(knobs) - legal)
    if unknown:
        raise ValueError(f"unknown config knobs: {', '.join(unknown)}")
    config = AtoMigConfig(**knobs)
    # JSON turns the tuple default into a list; normalize back.
    config.volatile_blacklist = tuple(config.volatile_blacklist or ())
    return config


def _modules(payload):
    modules = payload.get("modules") or ()
    if not modules:
        raise ValueError("payload has no modules")
    if not isinstance(modules, list):
        raise ValueError("modules must be a list of objects")
    for module in modules:
        if not _object("modules entry", module).get("source"):
            raise ValueError("module without source text")
    return [
        (module.get("name") or f"module{i}", module["source"],
         bool(module.get("is_ir")))
        for i, module in enumerate(modules)
    ]


def _object(field, value):
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, not {value!r}")
    return value


def _known(field, value, legal):
    if not isinstance(value, str) or value not in legal:
        raise ValueError(
            f"unknown {field} {value!r} (expected one of "
            f"{', '.join(legal)})"
        )
    return value


def _models(payload, kind):
    """A check job's ``models`` list, else the one ``model`` (wmm)."""
    from repro.mc.models import MEMORY_MODELS

    if kind == "check" and payload.get("models"):
        if not isinstance(payload["models"], list):
            raise ValueError("models must be a list of model names")
        return [_known("models entry", model, MEMORY_MODELS)
                for model in payload["models"]]
    return [_known("model", payload.get("model", "wmm"), MEMORY_MODELS)]


def _positive_int(field, value):
    if type(value) is not int or value <= 0:  # a bool is not a bound
        raise ValueError(
            f"{field} must be a positive integer, not {value!r}")


def _boolean(field, value):
    if type(value) is not bool:
        raise ValueError(f"{field} must be true or false, not {value!r}")


def _arch(field, value):
    from repro.vm.costs import COST_MODELS

    _known(field, value, sorted(COST_MODELS))


def _por(field, value):
    from repro.mc.explorer import PORS

    _known(field, value, PORS)


#: Option name -> the check of its value (``ValueError`` naming it).
_OPTION_CHECKS = {
    "max_steps": _positive_int,
    "max_states": _positive_int,
    "robustness": _boolean,
    "require_marks": _boolean,
    "repair_seed": _boolean,
    "verify": _boolean,
    "emit_ir": _boolean,
    "arch": _arch,
    "por": _por,
}


def _pick(options, allowed):
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        raise ValueError(f"unknown options: {', '.join(unknown)}")
    for field, value in options.items():
        _OPTION_CHECKS[field](field, value)
    return dict(options)


def job_tasks(kind, payload):
    """The task specs one job runs; ``ValueError`` on a bad payload.

    Each kind maps onto one spec class: ``port`` onto ``PortTask``,
    ``check`` onto ``CheckTask`` (one per module and model),
    ``optimize`` and ``repair`` onto ``OptimizeTask`` / ``RepairTask``.
    Level and config reach the specs as given: their ``load()``
    (:func:`repro.api.load_module`) decides what the pair means, as it
    does for the CLI.  The daemon calls this at submit, so a malformed
    payload, including a bad option value (``_OPTION_CHECKS``), is an
    HTTP 400, never a ``failed`` job.
    """
    from repro.core.config import PortingLevel

    _known("job kind", kind, JOB_KINDS)
    modules = _modules(payload)
    config = _build_config(payload)
    level = _known("level", payload.get("level") or "atomig",
                   [member.value for member in PortingLevel])
    options = _object("options", payload.get("options") or {})
    if kind == "port":
        from repro.core.parallel import PortTask

        options = _pick(options, ("emit_ir",))
        if any(is_ir for _name, _source, is_ir in modules):
            raise ValueError("port jobs take Mini-C sources, not IR text")
        return [
            PortTask(name=name, source=source, level=level, config=config,
                     emit_ir=options.get("emit_ir", False))
            for name, source, _is_ir in modules
        ]
    models = _models(payload, kind)
    if kind == "check":
        from repro.mc.parallel import CheckTask

        options = _pick(options, ("max_steps", "max_states", "por",
                                  "robustness"))
        options.setdefault("robustness", True)
        return [
            CheckTask(name=name, source=source, model=model, level=level,
                      config=config, is_ir=is_ir, **options)
            for name, source, is_ir in modules
            for model in models
        ]
    from repro.opt.parallel import OptimizeTask, RepairTask

    if kind == "optimize":
        spec = OptimizeTask
        options = _pick(options, ("max_steps", "max_states", "require_marks",
                                  "robustness", "repair_seed", "arch"))
    else:
        spec = RepairTask
        options = _pick(options, ("arch", "verify", "max_steps",
                                  "max_states"))
    return [
        spec(name=name, source=source, model=models[0], level=level,
             config=config, is_ir=is_ir, **options)
        for name, source, is_ir in modules
    ]


def _row(kind, task, result):
    """``(result row, module_done event fields)`` for one finished task."""
    if kind == "port":
        return {
            "name": result.name,
            "level": result.level,
            "report": result.report.to_dict() if result.report else None,
            "barriers": list(result.barriers),
            "build_seconds": result.build_seconds,
            "port_seconds": result.port_seconds,
            "ir": result.ir_text,
        }, {"port_seconds": result.port_seconds}
    if kind == "check":
        return {"name": task.name, **result.to_dict()}, {
            "model": task.model, "outcome": result.outcome,
        }
    done_field = ("verdict_preserved" if kind == "optimize"
                  else "robust_after")
    return {"name": task.name, "report": result}, {
        done_field: result.get(done_field),
    }


def execute_payload(kind, payload, fanout=1, emit=None):
    """Run one job's work; returns the JSON-ready result dict.

    Raises on malformed payloads or pipeline errors — the daemon turns
    exceptions into ``failed`` records.  ``emit(type, **fields)``
    receives progress events; specs run in this thread stream the
    porting pipeline's per-stage boundaries through it.  ``fanout > 1``
    runs multi-task jobs through :func:`repro.core.workers.run_batch`
    on the persistent process pools (stage events then stay inside
    the workers).  Every ``module_done`` event follows the work.
    """
    from repro.core.workers import run_batch

    emit = emit or (lambda type_, **fields: None)
    tasks = job_tasks(kind, payload)
    emit("job_start", kind=kind, modules=len(payload["modules"]),
         level=payload.get("level") or "atomig")
    if len(tasks) > 1 and fanout > 1:
        emit("fanout", jobs=fanout, tasks=len(tasks))
        results = run_batch(tasks, jobs=fanout)
    else:
        results = []
        for task in tasks:
            with _observed(emit, task.name):
                results.append(task.run())
    rows = []
    for task, result in zip(tasks, results):
        row, done = _row(kind, task, result)
        rows.append(row)
        emit("module_done", module=row["name"], **done)
    return {"kind": kind, "checks" if kind == "check" else "modules": rows}


def _observed(emit, name):
    """Stage-observer context forwarding pipeline events for ``name``."""
    from repro.core.profile import stage_observer

    def forward(event):
        type_ = event.pop("type")
        # Pipeline events like ``port_done`` already carry a module
        # field; only tag the bare per-stage ones.
        event.setdefault("module", name)
        emit(type_, **event)

    return stage_observer(forward)


# -- the daemon --------------------------------------------------------------


class JobDaemon:
    """Worker threads draining a persistent priority queue of jobs.

    ``workers=0`` is accept-only mode: submissions are validated,
    deduped and persisted but nothing executes until a daemon with
    workers picks the store up (used by maintenance windows and the
    restart-resume tests).  ``fanout`` is the process-pool width
    multi-module jobs fan out with (1 = everything in the worker
    thread, where per-stage progress events are available).
    """

    def __init__(self, store=None, workers=None, fanout=1):
        import os

        self.store = store or JobStore()
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        self.workers = max(0, int(workers))
        self.fanout = max(1, int(fanout))
        self._cond = threading.Condition()
        self._heap = []  # (-priority, created, seq, job_id)
        self._seq = itertools.count()
        self._records = {}
        self._dedup = {}
        self._threads = []
        self._stop = threading.Event()
        self._started = False
        self.started_at = None
        self.counters = {
            "submitted": 0, "completed": 0, "failed": 0,
            "cancelled": 0, "cache_hits": 0, "requeued": 0,
        }
        #: thread name -> {"jobs": n, "busy_seconds": s}
        self.worker_stats = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Recover the store, enqueue waiting jobs, spawn workers."""
        requeued, queued = self.store.recover()
        self.counters["requeued"] += len(requeued)
        with self._cond:
            for record in self.store.list_jobs():
                self._records[record["id"]] = record
            self._dedup.update(self.store.dedup_index())
            for record in queued:
                self._push(self._records[record["id"]])
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"atomig-job-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._started = True
        self.started_at = time.time()
        return requeued

    def shutdown(self, drain=True, timeout=None):
        """Stop the workers and the process pools.

        ``drain=True`` (the SIGTERM path) lets each worker finish the
        job it is currently running; jobs still queued stay ``queued``
        on disk and resume on the next start.  The persistent process
        pools of :mod:`repro.core.workers` are closed explicitly here —
        ``atexit`` does not fire on signal death, so a daemon must not
        rely on it.
        """
        from repro.core.workers import shutdown_pools

        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout if drain else 0.1)
        self._threads = []
        shutdown_pools(terminate=not drain)

    # -- submission and inspection ----------------------------------------

    def submit(self, kind, payload, priority=0):
        """Validate, dedup, persist and enqueue one job.

        Returns the job record.  An identical earlier ``done`` job
        (same :func:`job_dedup_key`) answers instantly: the new record
        is created already ``done`` with the stored result,
        ``cache_hit: true`` and zero seconds — no queue, no port.
        """
        if self._stop.is_set():
            raise RuntimeError("daemon is shutting down")
        # Validate early: HTTP 400, not a failed or mis-ordered job.
        if type(priority) is not int:  # a bool is not a priority either
            raise ValueError(
                f"priority must be an integer, not {priority!r}")
        job_tasks(kind, payload)
        key = job_dedup_key(kind, payload)
        with self._cond:
            cached = self._records.get(self._dedup.get(key))
            if (cached is not None and cached["state"] == "done"
                    and cached.get("result") is not None):
                record = self.store.create(
                    kind, payload, priority=priority, dedup_key=key
                )
                now = time.time()
                record.update(
                    state="done", cache_hit=True,
                    cached_from=cached["id"], seconds=0.0,
                    started=now, finished=now,
                    result=json.loads(json.dumps(
                        cached["result"], default=repr
                    )),
                )
                record["events"].append({
                    "ts": round(now, 3), "type": "cache_hit",
                    "cached_from": cached["id"],
                })
                self.store.save(record)
                self._records[record["id"]] = record
                self.counters["submitted"] += 1
                self.counters["cache_hits"] += 1
                self._cond.notify_all()
                return dict(record)
            record = self.store.create(
                kind, payload, priority=priority, dedup_key=key
            )
            self._records[record["id"]] = record
            self._push(record)
            self.counters["submitted"] += 1
            self._cond.notify_all()
        return dict(record)

    def get(self, job_id):
        """A snapshot of the record, or ``None``."""
        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                record = self.store.load(job_id)
                if record is not None:
                    self._records[job_id] = record
            return dict(record) if record is not None else None

    def list_jobs(self):
        """Summaries of every known job, oldest first."""
        with self._cond:
            records = sorted(
                self._records.values(),
                key=lambda r: (r.get("created") or 0, r["id"]),
            )
            return [
                {key: record[key] for key in (
                    "id", "kind", "state", "priority", "created",
                    "finished", "seconds", "cache_hit", "error",
                )}
                for record in records
            ]

    def cancel(self, job_id):
        """Cancel a queued job; returns the updated record or ``None``.

        Running jobs cannot be interrupted (the worker owns them);
        terminal jobs are left as-is.  Callers distinguish the cases by
        the returned state.
        """
        with self._cond:
            record = self._records.get(job_id)
            if record is None or record["state"] != "queued":
                return dict(record) if record is not None else None
            record["state"] = "cancelled"
            record["finished"] = time.time()
            self._append_event(record, "state", state="cancelled")
            self.store.save(record)
            self.counters["cancelled"] += 1
            self._cond.notify_all()
            return dict(record)

    def delete(self, job_id):
        """Drop a terminal job's record entirely; False otherwise."""
        with self._cond:
            record = self._records.get(job_id) or self.store.load(job_id)
            if record is None or record["state"] not in TERMINAL_STATES:
                return False
            self._records.pop(job_id, None)
            if self._dedup.get(record.get("dedup_key")) == job_id:
                self._dedup.pop(record.get("dedup_key"), None)
            return self.store.delete(job_id)

    def wait(self, job_id, timeout=None):
        """Block until the job is terminal; returns the final record."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                record = self._records.get(job_id)
                if record is None:
                    return None
                if record["state"] in TERMINAL_STATES:
                    return dict(record)
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return dict(record)
                self._cond.wait(timeout=remaining)

    def events_since(self, job_id, start=0):
        """``(events[start:], terminal)`` for the streaming endpoint."""
        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                return None, True
            events = record.get("events") or []
            return (
                [dict(event) for event in events[start:]],
                record["state"] in TERMINAL_STATES,
            )

    def wait_events(self, timeout=0.5):
        """Park an events streamer until something changes."""
        with self._cond:
            self._cond.wait(timeout=timeout)

    def stats(self):
        """Queue depth, cache-hit rate, worker busy time (GET /stats)."""
        from repro.core.workers import pool_stats

        with self._cond:
            depth = sum(
                1 for *_rest, job_id in self._heap
                if self._records.get(job_id, {}).get("state") == "queued"
            )
            states = {}
            for record in self._records.values():
                states[record["state"]] = states.get(record["state"], 0) + 1
            submitted = self.counters["submitted"]
            hits = self.counters["cache_hits"]
            return {
                "queue_depth": depth,
                "states": states,
                "counters": dict(self.counters),
                "cache_hit_rate": (hits / submitted) if submitted else 0.0,
                "workers": self.workers,
                "fanout": self.fanout,
                "worker_stats": {
                    name: dict(stats)
                    for name, stats in self.worker_stats.items()
                },
                "pool_stats": pool_stats(),
                "uptime_seconds": (
                    time.time() - self.started_at if self.started_at else 0.0
                ),
                "draining": self._stop.is_set(),
            }

    # -- internals ---------------------------------------------------------

    def _push(self, record):
        heapq.heappush(self._heap, (
            -record.get("priority", 0), record.get("created") or 0,
            next(self._seq), record["id"],
        ))

    def _next_job(self):
        """Pop the highest-priority queued record (lock held by caller)."""
        while self._heap:
            *_rest, job_id = heapq.heappop(self._heap)
            record = self._records.get(job_id)
            if record is not None and record["state"] == "queued":
                return record
        return None

    def _worker_loop(self):
        name = threading.current_thread().name
        stats = self.worker_stats.setdefault(
            name, {"jobs": 0, "busy_seconds": 0.0}
        )
        while True:
            with self._cond:
                record = None
                while record is None:
                    if self._stop.is_set():
                        return
                    record = self._next_job()
                    if record is None:
                        self._cond.wait(timeout=0.5)
                record["state"] = "running"
                record["started"] = time.time()
                self._append_event(record, "state", state="running")
                self.store.save(record)
                self._cond.notify_all()
            started = time.perf_counter()
            self._execute(record)
            stats["jobs"] += 1
            stats["busy_seconds"] += time.perf_counter() - started

    def _execute(self, record):
        emit = lambda type_, **fields: self._append_event(  # noqa: E731
            record, type_, locked=False, **fields
        )
        try:
            result = execute_payload(
                record["kind"], record["payload"],
                fanout=self.fanout, emit=emit,
            )
            # Canonicalize to JSON-clean data (tuples -> lists) so the
            # in-memory record, the on-disk record and a cache-hit copy
            # are all bit-for-bit identical.
            result = json.loads(json.dumps(result, default=_jsonable))
            error = None
        except Exception:
            result = None
            error = traceback.format_exc(limit=8)
        with self._cond:
            now = time.time()
            record["finished"] = now
            record["seconds"] = now - (record["started"] or now)
            if error is None:
                record["state"] = "done"
                record["result"] = result
                self.counters["completed"] += 1
                if record.get("dedup_key"):
                    self._dedup[record["dedup_key"]] = record["id"]
            else:
                record["state"] = "failed"
                record["error"] = error.strip().splitlines()[-1]
                record.setdefault("events", []).append({
                    "ts": round(now, 3), "type": "traceback",
                    "text": error,
                })
                self.counters["failed"] += 1
            self._append_event(record, "state", state=record["state"])
            self.store.save(record)
            self._cond.notify_all()

    def _append_event(self, record, type_, locked=True, **fields):
        event = {"ts": round(time.time(), 3), "type": type_, **fields}
        if locked:
            self._do_append(record, event)
            return
        with self._cond:
            self._do_append(record, event)
            self._cond.notify_all()

    def _do_append(self, record, event):
        events = record.setdefault("events", [])
        if len(events) >= MAX_EVENTS:
            if events[-1].get("type") != "events_truncated":
                events.append({
                    "ts": event["ts"], "type": "events_truncated",
                })
            return
        events.append(event)
