"""Configuration of the AtoMig porting pipeline.

The knobs correspond to the ablations evaluated in the paper's Table 2
(Expl. / Spin / AtoMig columns) and to the design decisions discussed in
§3.5 and §6.
"""

import enum
from dataclasses import dataclass, replace


#: The location-key precisions of alias exploration (``alias_mode``).
ALIAS_MODES = ("type_based", "points_to")


class PortingLevel(enum.Enum):
    """Which porting strategy to apply to a module."""

    #: No transformation; compile as-is (the paper's "Original").
    ORIGINAL = "original"
    #: Only the explicit-annotation analysis (§3.2).
    EXPL = "expl"
    #: Explicit annotations + spinloop detection (§3.3, without
    #: optimistic-loop handling).
    SPIN = "spin"
    #: The full AtoMig pipeline (annotations + spinloops + optimistic
    #: loops + alias exploration).
    ATOMIG = "atomig"
    #: The naive strategy: every shared access becomes SC atomic.
    NAIVE = "naive"
    #: The Lasagne-like baseline: explicit fences everywhere, then
    #: provably-redundant fence elimination.
    LASAGNE = "lasagne"


@dataclass
class AtoMigConfig:
    """Tuning knobs for the AtoMig pipeline.

    The defaults reproduce the paper's configuration; individual flags
    exist so the ablation benchmarks can switch parts off.
    """

    #: Detect spinloops and mark spin controls.
    detect_spinloops: bool = True
    #: Detect optimistic loops and add explicit barriers.
    detect_optimistic: bool = True
    #: Run module-wide alias exploration ("once atomic, always atomic").
    alias_exploration: bool = True
    #: Inline small functions before analysis so loops spanning function
    #: boundaries become visible (§3.5 "Loops Spanning Multiple Functions").
    inline_before_analysis: bool = True
    #: Use the stricter literature definition of a spinloop (no stores in
    #: the loop body at all).  Ablation knob; the paper argues (§3.5)
    #: this detects fewer synchronization points.
    strict_spinloop_definition: bool = False
    #: Globals excluded from the volatile conversion (the paper's
    #: blacklist for device/signal-handler volatiles; never needed in
    #: their experiments, §3.2).
    volatile_blacklist: tuple = ()
    #: Use explicit fences instead of implicit barriers at every marked
    #: access (ablation: quantifies the implicit-vs-explicit design
    #: decision against Liu et al. [48]).
    force_explicit_barriers: bool = False
    #: §6 extension: treat timing-based polling loops (loops that call
    #: usleep/sched_yield) as synchronization entry points.  Off by
    #: default to match the paper's evaluated configuration.
    detect_polling_loops: bool = False
    #: §6 extension: use compiler-barrier placements
    #: (``__asm__("" ::: "memory")``) as additional detection seeds.
    compiler_barrier_seeds: bool = False
    #: Lint-based pruning: exempt accesses the static race linter proves
    #: consistently lock-protected (structural lock idioms only) from
    #: atomization.  They are race-free under any memory model, so the
    #: SC promotion is pure overhead.  Off by default to match the
    #: paper's evaluated configuration.
    prune_protected: bool = False
    #: After porting, statically repair any remaining non-robustness:
    #: enumerate critical cycles and break every one with a min-cost set
    #: of fence insertions / order strengthenings
    #: (:mod:`repro.analysis.repair`).  The repair runs *before* the
    #: post-port verify so inserted fences are re-verified, and its
    #: :class:`RepairReport` lands in ``report.repair``.  Off by
    #: default — ``atomig repair`` / ``--repair`` switch it on.
    repair_mode: bool = False
    #: Memory model the repair targets (matches ``atomig check -m``).
    repair_model: str = "wmm"
    #: Cost-model name weighting the repair (``armv8`` / ``power``).
    repair_arch: str = "armv8"
    #: Location-key precision for alias exploration.  ``type_based`` is
    #: the paper's scheme (global names + struct-field signatures);
    #: ``points_to`` additionally keys pointers by their Andersen
    #: points-to equivalence class — buddy propagation works through
    #: plain pointer arguments — and prunes sticky buddies whose every
    #: aliased object is provably thread-local.
    alias_mode: str = "type_based"

    @classmethod
    def for_level(cls, level, config=None):
        """``config`` (default: the paper's) with ``level``'s ablations.

        Expl switches spinloop and optimistic-loop detection off, Spin
        only optimistic-loop detection; every other level takes the
        configuration as given.  ``config`` itself is never mutated.
        """
        config = config or cls()
        if level is PortingLevel.EXPL:
            return replace(config, detect_spinloops=False,
                           detect_optimistic=False)
        if level is PortingLevel.SPIN:
            return replace(config, detect_optimistic=False)
        return config
