"""Per-stage profiling of the porting pipeline.

The paper's headline scalability claim (Table 3: analysis cost is a
small constant factor over the build) is only checkable if the porter
can say where its time goes.  :class:`PipelineStats` records wall-clock
seconds per pipeline stage — clone, inline, annotations, spinloops,
extensions, optimistic, alias, prune, atomize, fences — plus the
bookkeeping the porter does around the transformation proper
(``verify``, ``count_barriers``), which PR 4 moved *out* of
``PortingReport.porting_seconds`` into their own buckets.

Stats objects are plain data: picklable (they ride inside
:class:`repro.core.report.PortingReport` across the process pool of
``repro.core.parallel``) and mergeable (``atomig tables --profile``
aggregates one stats object per port into a per-stage total).
"""

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Canonical stage order for rendering; unknown stages print after
#: these, in insertion order.
STAGE_ORDER = (
    "clone",
    "inline",
    "annotations",
    "spinloops",
    "extensions",
    "optimistic",
    "alias",
    "prune_protected",
    "prune_thread_local",
    "provenance",
    "atomize",
    "fences",
    "naive",
    "lasagne",
    "verify",
    "count_barriers",
)

#: Thread-local stack of progress observers (see :func:`stage_observer`).
#: Thread-local on purpose: the serve daemon runs concurrent ports on
#: separate worker threads, and each job must only see its own stages.
_OBSERVERS = threading.local()


@contextmanager
def stage_observer(callback):
    """Receive pipeline progress events on this thread.

    While the context is active, every :meth:`PipelineStats.stage`
    boundary on this thread calls ``callback`` with an event dict —
    ``{"type": "stage_start", "stage": name, "module": m}`` on entry
    and ``{"type": "stage_end", "stage": name, "seconds": s,
    "module": m}`` on exit, ``m`` the name of the module being ported —
    plus whatever :func:`notify_event` emits (e.g. the pipeline's
    final ``port_done``).  This is how ``GET /jobs/<id>/events``
    streams per-stage NDJSON without the pipeline knowing about HTTP.
    Observers nest; every active one sees every event.
    """
    stack = getattr(_OBSERVERS, "stack", None)
    if stack is None:
        stack = _OBSERVERS.stack = []
    stack.append(callback)
    try:
        yield
    finally:
        stack.pop()


def notify_event(type_, **fields):
    """Send one progress event to this thread's active observers.

    A no-op without observers (the common, non-serve case); observer
    exceptions are swallowed so a broken progress consumer can never
    fail a port.
    """
    stack = getattr(_OBSERVERS, "stack", None)
    if not stack:
        return
    event = {"type": type_, **fields}
    for callback in stack:
        try:
            callback(dict(event))
        except Exception:
            pass


@dataclass
class PipelineStats:
    """Wall-clock seconds and counters for one ``run_porting`` call."""

    #: stage name -> seconds (missing: stage did not run).
    stage_seconds: dict = field(default_factory=dict)
    #: free-form integer counters (e.g. ``verified_functions``).
    counters: dict = field(default_factory=dict)
    #: total wall-clock of the whole ``run_porting`` call, including
    #: verification and barrier recounting.
    total_seconds: float = 0.0
    #: number of ports merged into this record (1 for a single port).
    ports: int = 1
    #: name of the module being ported; tags the stage events (and is
    #: left out of :meth:`to_dict`, so reports do not change).
    module: str = None

    @contextmanager
    def stage(self, name):
        """Time a stage; additive when the same stage runs twice."""
        notify_event("stage_start", stage=name, module=self.module)
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            self.add(name, seconds)
            notify_event("stage_end", stage=name, seconds=seconds,
                         module=self.module)

    def add(self, name, seconds):
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    @property
    def transform_seconds(self):
        """Time inside the transformation itself (no verify/recount)."""
        overhead = (self.stage_seconds.get("verify", 0.0)
                    + self.stage_seconds.get("count_barriers", 0.0))
        return max(self.total_seconds - overhead, 0.0)

    def merge(self, other):
        """Fold another stats record into this one (for aggregation)."""
        for name, seconds in other.stage_seconds.items():
            self.add(name, seconds)
        for name, value in other.counters.items():
            self.count(name, value)
        self.total_seconds += other.total_seconds
        self.ports += other.ports
        return self

    def ordered_stages(self):
        """(stage, seconds) pairs in canonical order."""
        seen = [s for s in STAGE_ORDER if s in self.stage_seconds]
        seen += [s for s in self.stage_seconds if s not in STAGE_ORDER]
        return [(name, self.stage_seconds[name]) for name in seen]

    def to_dict(self):
        return {
            "stage_seconds": dict(self.stage_seconds),
            "counters": dict(self.counters),
            "total_seconds": self.total_seconds,
            "transform_seconds": self.transform_seconds,
            "ports": self.ports,
        }

    @classmethod
    def from_dict(cls, payload):
        stats = cls(
            stage_seconds=dict(payload.get("stage_seconds", {})),
            counters=dict(payload.get("counters", {})),
            total_seconds=payload.get("total_seconds", 0.0),
            ports=payload.get("ports", 1),
        )
        return stats


def format_pipeline_stats(stats, indent="  "):
    """Aligned multi-line rendering (``atomig port --profile``)."""
    total = stats.total_seconds or sum(
        s for _, s in stats.ordered_stages()
    ) or 1.0
    rows = [
        (name, f"{seconds:.4f}s", f"{100.0 * seconds / total:5.1f}%")
        for name, seconds in stats.ordered_stages()
    ]
    rows.append(("total", f"{stats.total_seconds:.4f}s", "100.0%"))
    if stats.ports > 1:
        rows.append(("ports merged", str(stats.ports), ""))
    for name in sorted(stats.counters):
        rows.append((name, str(stats.counters[name]), ""))
    width = max(len(name) for name, _, _ in rows)
    vwidth = max(len(value) for _, value, _ in rows)
    return "\n".join(
        f"{indent}{name.ljust(width)}  {value.rjust(vwidth)}  {pct}".rstrip()
        for name, value, pct in rows
    )
