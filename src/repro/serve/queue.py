"""Priority job queue + daemon: execute stored jobs on worker threads.

A job is a ``(kind, payload)`` pair persisted by
:class:`repro.serve.store.JobStore`.  :func:`job_tasks` is the one
reader of a payload: a table maps each kind onto the task spec the
batch harnesses use — ``port`` onto
:class:`repro.core.parallel.PortTask`, ``check`` onto
:class:`repro.mc.parallel.CheckTask`, ``optimize`` and ``repair`` onto
:mod:`repro.opt.parallel`'s ``OptimizeTask`` / ``RepairTask`` — and
every value the payload gives (options, module names and ``is_ir``,
config knobs) is checked against what the spec or ``AtoMigConfig``
declares, so one daemon process serves every report type the one-shot
CLI can produce and rejects a malformed payload at submit.

Dedup is content-addressed: :func:`job_dedup_key` fingerprints the
specs ``submit`` built (each spec's class and fields, its source
through the blake2b modcache digest), so payloads that name the same
work — with or without explicit defaults — share one key.
Re-submitting it is answered instantly from the stored result of the
earlier job — zero porting seconds, ``cache_hit: true`` — never a
re-port.

Every job runs through :func:`repro.core.workers.run_batch` under one
:func:`repro.core.profile.stage_observer`: multi-task ("tree") jobs fan
out over the process pools when the daemon has ``fanout > 1``, and
otherwise every ``stage_start``/``stage_end`` of
:func:`repro.core.pipeline.run_porting`, tagged with the module being
ported, becomes an NDJSON event on ``GET /jobs/<id>/events``.
"""

import hashlib
import heapq
import itertools
import json
import threading
import time
import traceback
from dataclasses import asdict, fields

from repro import modcache
from repro.core.config import ALIAS_MODES, AtoMigConfig, PortingLevel
from repro.core.parallel import PortTask
from repro.core.profile import stage_observer
from repro.core.workers import run_batch
from repro.mc.explorer import PORS
from repro.mc.models import MEMORY_MODELS, WEAK_MODELS
from repro.mc.parallel import CheckTask
from repro.opt.parallel import OptimizeTask, RepairTask
from repro.serve.store import TERMINAL_STATES, JobStore, _jsonable
from repro.vm.costs import COST_MODELS

#: Events kept per job before truncation (streaming clients see all of
#: them live; the record keeps a bounded replay buffer).
MAX_EVENTS = 512


# -- payloads ----------------------------------------------------------------


#: Job kind -> (task spec, the options it accepts, serve's defaults for
#: them).  A ``check`` job runs one spec per module and model; every
#: other kind one per module.
_KINDS = {
    "port": (PortTask, ("emit_ir",), {}),
    "check": (CheckTask, ("max_steps", "max_states", "por", "robustness"),
              {"robustness": True}),
    "optimize": (OptimizeTask, ("max_steps", "max_states", "require_marks",
                                "robustness", "repair_seed", "arch"), {}),
    "repair": (RepairTask, ("arch", "verify", "max_steps", "max_states"),
               {}),
}

#: Supported job kinds (HTTP 400 for anything else).
JOB_KINDS = tuple(_KINDS)

#: The legal strings of every vocabulary field a payload can give.
_VOCABULARIES = {
    "level": [level.value for level in PortingLevel],
    "model": MEMORY_MODELS, "arch": COST_MODELS, "repair_arch": COST_MODELS,
    "por": PORS, "repair_model": WEAK_MODELS, "alias_mode": ALIAS_MODES,
}

#: Declared field type -> (what a legal JSON value is, its test).
_TYPES = {
    bool: ("true or false", lambda value: type(value) is bool),
    # A bool is not a bound.
    int: ("a positive integer",
          lambda value: type(value) is int and value > 0),
    str: ("a string", lambda value: isinstance(value, str)),
    dict: ("a JSON object", lambda value: isinstance(value, dict)),
    list: ("a list", lambda value: isinstance(value, list)),
    tuple: ("a list of strings", lambda value: isinstance(value, list)
            and all(isinstance(item, str) for item in value)),
}


def _checked(field, value, legal):
    """``value`` if it is a legal ``field``, else a ``ValueError`` naming
    the field.  ``legal`` is a type of :data:`_TYPES` (a JSON list read
    as a ``tuple`` comes back as one) or the field's legal strings."""
    if isinstance(legal, type):
        expected, test = _TYPES[legal]
        if not test(value):
            raise ValueError(f"{field} must be {expected}, not {value!r}")
        return tuple(value) if legal is tuple else value
    if not isinstance(value, str) or value not in legal:
        raise ValueError(f"unknown {field} {value!r} (expected one of "
                         f"{', '.join(legal)})")
    return value


def _read(mapping, field, legal, default):
    """``mapping[field]`` checked, or ``default`` when absent or null."""
    value = mapping.get(field)
    return default if value is None else _checked(field, value, legal)


def _fields(cls, given, what, accepted=None):
    """``given`` checked against the fields of the dataclass ``cls``
    (a vocabulary, else the declared type); names outside ``accepted``
    (default: every field) are unknown ``what``."""
    legal = {field.name: field.type for field in fields(cls)}
    unknown = sorted(set(given) - set(accepted or legal))
    if unknown:
        raise ValueError(f"unknown {what}: {', '.join(unknown)}")
    return {name: _checked(name, value, _VOCABULARIES.get(name, legal[name]))
            for name, value in given.items()}


def job_tasks(kind, payload):
    """The task specs one job runs; ``ValueError`` on a bad payload.

    The one reader of a payload.  The kind picks a spec class from
    ``_KINDS``; every value the payload gives is checked against what
    that spec (or ``AtoMigConfig``, for ``config`` knobs) declares,
    and serve's defaults fill in the rest: level ``atomig``, model
    ``wmm``, and a check's ``robustness``.  A config of defaults only
    is no config.  Level and config reach the specs as given: their
    ``load()`` (:func:`repro.api.load_module`) decides what the pair
    means, as it does for the CLI.  The daemon calls this at submit,
    so a malformed payload is an HTTP 400 naming the field, never a
    ``failed`` job.
    """
    spec, accepted, defaults = _KINDS[_checked("job kind", kind, JOB_KINDS)]
    knobs = _read(payload, "config", dict, {})
    config = AtoMigConfig(**_fields(AtoMigConfig, knobs, "config knobs"))
    common = {
        "level": _read(payload, "level", _VOCABULARIES["level"], "atomig"),
        "config": None if config == AtoMigConfig() else config,
        **defaults,
        **_fields(spec, _read(payload, "options", dict, {}), "options",
                  accepted),
    }
    models = [_read(payload, "model", _VOCABULARIES["model"], "wmm")]
    if kind == "check" and payload.get("models") is not None:
        models = [_checked("models entry", model, _VOCABULARIES["model"])
                  for model in _checked("models", payload["models"], list)
                  ] or models
    modules = payload.get("modules")
    if not modules:
        raise ValueError("payload has no modules")
    legal = {field.name for field in fields(spec)}
    tasks = []
    for index, module in enumerate(_checked("modules", modules, list)):
        _checked("modules entry", module, dict)
        source = _read(module, "source", str, "")
        if not source:
            raise ValueError("module without source text")
        is_ir = _read(module, "is_ir", bool, False)
        if is_ir and "is_ir" not in legal:
            raise ValueError(f"{kind} jobs take Mini-C sources, not IR text")
        given = {"name": _read(module, "name", str, f"module{index}"),
                 "source": source, "is_ir": is_ir, **common}
        # A port spec takes neither a model nor IR.
        tasks.extend(spec(**{field: value for field, value in
                             {**given, "model": model}.items()
                             if field in legal})
                     for model in models)
    return tasks


def job_dedup_key(tasks):
    """Content-addressed key for one job: the fingerprint of its specs.

    Each spec enters as its class name and fields, its source through
    :func:`repro.modcache.source_digest` (which already covers the
    cache format version and the running Python), so two submissions
    collide exactly when their payloads name the same work, explicit
    defaults or not.  Keys of the ``serve1`` scheme, which hashed the
    payload itself, match none of these.
    """
    hasher = hashlib.blake2b(digest_size=20)
    hasher.update(b"serve2")
    for task in tasks:
        row = asdict(task)
        row["source"] = modcache.source_digest(task.source, task.name)
        hasher.update(json.dumps([type(task).__name__, row],
                                 sort_keys=True).encode())
    return hasher.hexdigest()


# -- payload execution -------------------------------------------------------


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
    receives progress events.  The specs run through
    :func:`repro.core.workers.run_batch` under one stage observer:
    in this thread when ``fanout`` is 1 or the job has one task, and
    then every ``stage_start``/``stage_end`` of the porting pipeline
    reaches ``emit`` tagged with the module being ported; otherwise on
    the persistent process pool of that width, where the stage events
    stay inside the workers.  Every ``module_done`` event follows the
    work.
    """
    emit = emit or (lambda type_, **fields: None)
    tasks = job_tasks(kind, payload)
    emit("job_start", kind=kind, modules=len(payload["modules"]),
         level=tasks[0].level)
    if len(tasks) > 1 and fanout > 1:
        emit("fanout", jobs=fanout, tasks=len(tasks))
    with stage_observer(lambda event: emit(event.pop("type"), **event)):
        results = run_batch(tasks, jobs=fanout)
    rows = []
    for task, result in zip(tasks, results):
        row, done = _row(kind, task, result)
        rows.append(row)
        emit("module_done", module=row["name"], **done)
    return {"kind": kind, "checks" if kind == "check" else "modules": rows}


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

        Returns the job record.  An earlier ``done`` job that named the
        same work (same :func:`job_dedup_key` of its specs) answers
        instantly: the new record is created already ``done`` with the
        stored result, ``cache_hit: true`` and zero seconds — no queue,
        no port.
        """
        if self._stop.is_set():
            raise RuntimeError("daemon is shutting down")
        # Validate early: HTTP 400, not a failed or mis-ordered job.
        if type(priority) is not int:  # a bool is not a priority either
            raise ValueError(
                f"priority must be an integer, not {priority!r}")
        key = job_dedup_key(job_tasks(kind, payload))
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
