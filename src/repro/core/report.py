"""Porting report: what AtoMig found and changed in a module.

This is the data behind the paper's Table 3 columns: number of
spinloops, optimistic loops, implicit barriers (SC atomic accesses) and
explicit barriers (fences) before and after porting.
"""

from dataclasses import dataclass, field

from repro.core.profile import PipelineStats
from repro.ir.instructions import Fence
from repro.vm.costs import is_barrier


@dataclass
class PortingReport:
    """Statistics collected while porting one module."""

    module_name: str = ""
    level: str = "atomig"
    #: Spinloops detected, as (function, header-label) pairs.
    spinloops: list = field(default_factory=list)
    #: Optimistic loops detected, as (function, header-label) pairs.
    optimistic_loops: list = field(default_factory=list)
    #: Locations marked as spin controls (location keys).
    spin_controls: list = field(default_factory=list)
    #: Locations marked as optimistic controls (location keys).
    optimistic_controls: list = field(default_factory=list)
    #: Accesses converted by the explicit-annotation pass.
    annotation_conversions: int = 0
    #: Accesses converted via sticky-buddy alias exploration.
    sticky_conversions: int = 0
    #: Accesses converted by the Naïve porter (level ``naive`` only).
    #: Historically this count was stored in ``sticky_conversions``;
    #: the JSON output keeps that key as a deprecated alias.
    naive_conversions: int = 0
    #: Marked accesses exempted by lock-protection pruning.
    pruned_protected: int = 0
    #: Location-key scheme used by alias exploration.
    alias_mode: str = "type_based"
    #: Sticky buddies exempted because every aliased object is
    #: provably thread-local (points_to mode only).
    pruned_thread_local: int = 0
    #: Per-access alias provenance (points_to mode): one dict per keyed
    #: access whose key came from the points-to analysis or that was
    #: pruned, with string-only values so reports stay picklable.
    alias_provenance: list = field(default_factory=list)
    #: Explicit fences inserted by the optimistic-loop transformation.
    fences_inserted: int = 0
    #: Barrier counts before the transformation.
    original_explicit_barriers: int = 0
    original_implicit_barriers: int = 0
    #: Barrier counts after the transformation.
    ported_explicit_barriers: int = 0
    ported_implicit_barriers: int = 0
    #: Wall-clock seconds spent inside the porting *transformation*.
    #: Post-port verification and barrier recounting used to be folded
    #: in silently; they now live in their own ``stats`` buckets
    #: (``verify``, ``count_barriers``) and are excluded here.
    porting_seconds: float = 0.0
    #: Per-stage wall-clock profile of this port.
    stats: PipelineStats = field(default_factory=PipelineStats)
    #: Barrier-weakening results when the port ran with ``optimize``
    #: (a :class:`repro.opt.report.OptimizationReport` dict), else {}.
    optimization: dict = field(default_factory=dict)
    #: Static fence-repair results when the config enables
    #: ``repair_mode`` (a :class:`repro.analysis.repair.RepairReport`
    #: dict), else {}.
    repair: dict = field(default_factory=dict)
    #: Diagnostic notes (e.g. unknown inline asm).
    notes: list = field(default_factory=list)

    @property
    def num_spinloops(self):
        return len(self.spinloops)

    @property
    def num_optimistic_loops(self):
        return len(self.optimistic_loops)

    @property
    def total_seconds(self):
        """Full wall-clock of the port, verification included."""
        return self.stats.total_seconds or self.porting_seconds

    def to_dict(self):
        """JSON-ready structure (``atomig port``/``tables`` payloads).

        ``sticky_conversions`` historically also carried the Naïve
        porter's conversion count; that spelling is kept as a
        deprecated alias of ``naive_conversions`` for ``naive``-level
        reports so existing consumers keep working.
        """
        sticky = self.sticky_conversions
        if self.level == "naive":
            sticky = self.naive_conversions  # deprecated alias
        return {
            "module": self.module_name,
            "level": self.level,
            "spinloops": list(self.spinloops),
            "optimistic_loops": list(self.optimistic_loops),
            "spin_controls": list(self.spin_controls),
            "optimistic_controls": list(self.optimistic_controls),
            "annotation_conversions": self.annotation_conversions,
            "sticky_conversions": sticky,
            "naive_conversions": self.naive_conversions,
            "pruned_protected": self.pruned_protected,
            "alias_mode": self.alias_mode,
            "pruned_thread_local": self.pruned_thread_local,
            "fences_inserted": self.fences_inserted,
            "original_explicit_barriers": self.original_explicit_barriers,
            "original_implicit_barriers": self.original_implicit_barriers,
            "ported_explicit_barriers": self.ported_explicit_barriers,
            "ported_implicit_barriers": self.ported_implicit_barriers,
            "porting_seconds": self.porting_seconds,
            "stats": self.stats.to_dict(),
            "optimization": dict(self.optimization),
            "repair": dict(self.repair),
            "notes": list(self.notes),
        }

    def summary(self):
        """Human-readable one-paragraph summary."""
        return (
            f"module {self.module_name} [{self.level}]: "
            f"{self.num_spinloops} spinloops, "
            f"{self.num_optimistic_loops} optimistic loops, "
            f"barriers {self.original_explicit_barriers} expl / "
            f"{self.original_implicit_barriers} impl -> "
            f"{self.ported_explicit_barriers} expl / "
            f"{self.ported_implicit_barriers} impl"
        )


#: Version of the ``atomig lint --json`` payload.  Bump on any change
#: to the structure below; the lint-corpus snapshot test asserts it so
#: consumers notice schema drift loudly instead of silently.  Versioned
#: in lockstep with
#: :data:`repro.analysis.robustness.ROBUSTNESS_SCHEMA_VERSION` (4: the
#: robustness payload gained ``schema_version`` + deterministic witness
#: ordering, and porting reports gained ``repair``).
LINT_SCHEMA_VERSION = 4


@dataclass
class LintReport:
    """Rendering wrapper around a :class:`repro.analysis.races.RaceReport`.

    This is what ``atomig lint`` prints: one line per non-local access
    with provenance, classification, the locks held, and a suggested
    remediation — plus the lock inventory and a class histogram.
    """

    races: object = None
    #: Dead-fence lint findings (fences not adjacent to any shared
    #: access on any path), from repro.analysis.robustness.
    dead_fences: list = None

    @property
    def module_name(self):
        return self.races.module_name

    @property
    def findings(self):
        return self.races.findings

    def counts(self):
        return self.races.counts()

    def summary(self):
        counts = self.counts()
        parts = ", ".join(
            f"{counts[k]} {k}" for k in sorted(counts)
        ) or "no non-local accesses"
        dead = ""
        if self.dead_fences:
            dead = f", {len(self.dead_fences)} dead fences"
        return (
            f"lint {self.module_name}: {len(self.races.locks)} locks, "
            f"{parts}{dead}"
        )

    def render(self, show=("racy", "unknown", "protected", "lock")):
        """Multi-line human-readable report."""
        lines = [self.summary()]
        for key, lock in sorted(
            self.races.locks.items(), key=lambda item: repr(item[0])
        ):
            kind = "heuristic" if lock.heuristic else "structural"
            lines.append(
                f"  lock {lock.describe()} [{kind}]: "
                f"{len(lock.acquire_sites)} acquire / "
                f"{len(lock.release_sites)} release sites"
            )
        for finding in self.findings:
            if finding.classification.value not in show:
                continue
            held = f" holding {{{', '.join(finding.lockset)}}}" if (
                finding.lockset
            ) else ""
            lines.append(
                f"  [{finding.classification.value}] {finding.location()} "
                f"{finding.instr!r}{held}"
            )
            lines.append(f"      -> {finding.remediation}")
        for fence in self.dead_fences or ():
            lines.append(
                f"  [dead-fence] {fence['function']}:{fence['block']}"
                f"[{fence['index']}] fence({fence['order']})"
            )
            lines.append(f"      -> {fence['reason']}; safe to delete")
        return "\n".join(lines)

    def to_dict(self):
        """JSON-ready structure (used by ``atomig lint --json``)."""
        return {
            "schema_version": LINT_SCHEMA_VERSION,
            "module": self.module_name,
            "counts": self.counts(),
            "locks": [
                {
                    "key": list(lock.key),
                    "heuristic": lock.heuristic,
                    "acquire_sites": lock.acquire_sites,
                    "release_sites": lock.release_sites,
                }
                for lock in self.races.locks.values()
            ],
            "findings": [
                {
                    "function": finding.function,
                    "block": finding.block_label,
                    "line": finding.source_line,
                    "instr": repr(finding.instr),
                    "key": list(finding.key) if finding.key else None,
                    "class": finding.classification.value,
                    "lockset": list(finding.lockset),
                    "confidence": finding.confidence,
                    "concurrent": finding.concurrent,
                    "remediation": finding.remediation,
                }
                for finding in self.findings
            ],
            "dead_fences": list(self.dead_fences or ()),
        }


def format_exploration_stats(stats):
    """Render an :class:`repro.mc.explorer.ExplorationStats` record.

    Multi-line, aligned — what ``atomig check --stats`` prints under
    each model's verdict line.
    """
    rows = []
    if getattr(stats, "por", ""):
        rows.append(("backend", f"por={stats.por}"))
    rows += [
        ("scheduling decisions", f"{stats.states_explored}"),
        ("states visited", f"{stats.states_visited}"),
        ("transitions", f"{stats.transitions}"),
        ("macro steps", f"{stats.macro_steps}"),
        ("ample steps", f"{stats.ample_steps}"),
        ("sleep-set prunes", f"{stats.sleep_prunes}"),
        ("self-loop prunes", f"{stats.loop_prunes}"),
        ("dedup hits", f"{stats.dedup_hits}"),
    ]
    if getattr(stats, "por", "") == "dpor":
        rows += [
            ("races detected", f"{stats.races_detected}"),
            ("backtrack points", f"{stats.backtrack_points}"),
            ("wakeup re-explorations", f"{stats.wakeup_reexplorations}"),
            ("equivalence classes", f"{stats.equivalence_classes}"),
            ("cycle expansions", f"{stats.cycle_expansions}"),
        ]
    rows += [
        ("peak frontier", f"{stats.peak_frontier}"),
        ("compression", f"{stats.compression_ratio:.1f}x"),
        ("throughput", f"{stats.states_per_second:,.0f} states/s"),
        ("wall time", f"{stats.wall_seconds:.3f}s"),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(
        f"      {label.ljust(width)}  {value}" for label, value in rows
    )


def count_barriers(module):
    """Count (explicit, implicit) barriers in ``module``.

    Barriers are what :func:`repro.vm.costs.is_barrier` says they are;
    the stand-alone fences among them are explicit and the atomic
    accesses implicit, matching the paper's BExpl / BImpl columns.
    """
    return total_barriers(
        function_barriers(function) for function in module.functions.values()
    )


def total_barriers(pairs):
    """Sum (explicit, implicit) barrier pairs."""
    explicit = implicit = 0
    for pair_explicit, pair_implicit in pairs:
        explicit += pair_explicit
        implicit += pair_implicit
    return explicit, implicit


def function_barriers(function):
    """:func:`count_barriers` of one function."""
    explicit = implicit = 0
    for instr in function.instructions():
        if is_barrier(instr):
            if isinstance(instr, Fence):
                explicit += 1
            else:
                implicit += 1
    return explicit, implicit
