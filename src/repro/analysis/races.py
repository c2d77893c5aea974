"""Static race & portability classification (the ``atomig lint`` engine).

Combines the interprocedural lockset analysis with thread-reachability
and a spawn/join epoch analysis to classify every non-local memory
access in a module:

- ``lock``        — part of a lock implementation (must stay atomic);
- ``protected``   — every concurrent access to the location holds a
                    common lock: race-free under any memory model, so
                    atomization is pure overhead (prunable);
- ``unshared``    — never accessed from two concurrent thread contexts;
- ``read_only``   — shared but never written;
- ``racy``        — concurrent, written, and provably lock-free
                    somewhere: AtoMig must order it;
- ``unknown``     — the analysis gave up (keyless pointer, unknown call
                    effects) and defers to AtoMig's over-approximation;
- ``unreachable`` — dead code (e.g. originals left behind by
                    pre-analysis inlining); not analyzed.

Granularity caveat: locks and data are matched at location-key
granularity, so an *array* of locks protecting an *array* of slots
(the CLHT per-bucket pattern) is treated as one lock/one location.
That assumes the per-element correlation the pattern implies; the
benchmark gate re-verifies pruned modules under WMM to back it up.
"""

import enum
from dataclasses import dataclass, field

from repro.analysis.cache import AnalysisCache
from repro.analysis.lockset import compute_locksets
from repro.ir import instructions as ins


class AccessClass(enum.Enum):
    LOCK = "lock"
    PROTECTED = "protected"
    UNSHARED = "unshared"
    READ_ONLY = "read_only"
    RACY = "racy"
    UNKNOWN = "unknown"
    UNREACHABLE = "unreachable"


#: Remediation guidance printed by ``atomig lint`` per class.
REMEDIATION = {
    AccessClass.LOCK: (
        "lock-word access: keep it SC atomic; never pruned"
    ),
    AccessClass.PROTECTED: (
        "consistently lock-protected: race-free on any memory model; "
        "prune_protected exempts it from atomization"
    ),
    AccessClass.UNSHARED: (
        "no concurrent access found: atomization is unnecessary "
        "but harmless"
    ),
    AccessClass.READ_ONLY: "shared read-only data: race-free",
    AccessClass.RACY: (
        "unordered concurrent access: AtoMig atomizes it; consider "
        "C11 atomics or a lock if porting by hand"
    ),
    AccessClass.UNKNOWN: (
        "protection not provable (opaque pointer or unknown call "
        "effects): left to AtoMig's over-approximation"
    ),
    AccessClass.UNREACHABLE: "dead code (often an inlining leftover)",
}


@dataclass
class AccessFinding:
    """One classified memory access, with provenance."""

    function: str
    block_label: str
    source_line: object
    instr: object
    key: tuple
    classification: AccessClass
    #: Locks definitely held at the access (descriptions, sorted).
    lockset: tuple = ()
    #: "structural" when a TAS-idiom lock proves protection,
    #: "heuristic" when only a name-pair token does, else "".
    confidence: str = ""
    #: True when the access runs while other threads may be live.
    concurrent: bool = True

    @property
    def remediation(self):
        text = REMEDIATION[self.classification]
        if self.classification is AccessClass.PROTECTED and (
            self.confidence == "heuristic"
        ):
            text += " (name-heuristic lock: review before relying on it)"
        return text

    def location(self):
        line = f":{self.source_line}" if self.source_line else ""
        return f"@{self.function}/{self.block_label}{line}"


@dataclass
class RaceReport:
    """All findings for one module."""

    module_name: str = ""
    findings: list = field(default_factory=list)
    locks: dict = field(default_factory=dict)
    lockset_result: object = None

    def by_class(self, classification):
        return [f for f in self.findings if f.classification is classification]

    def counts(self):
        out = {}
        for finding in self.findings:
            out[finding.classification.value] = (
                out.get(finding.classification.value, 0) + 1
            )
        return out

    def protected_instructions(self, structural_only=True):
        """Access instructions safe to exempt from atomization."""
        chosen = set()
        for finding in self.by_class(AccessClass.PROTECTED):
            if structural_only and finding.confidence != "structural":
                continue
            chosen.add(finding.instr)
        return chosen


def classify_module(module, lockset_result=None, name_heuristic=True,
                    cache=None):
    """Classify every non-local memory access of ``module``."""
    if cache is None:
        cache = AnalysisCache(module)
    callgraph = cache.callgraph()
    locks = lockset_result or compute_locksets(
        module, callgraph, name_heuristic=name_heuristic, cache=cache
    )
    report = RaceReport(
        module_name=module.name, locks=locks.locks, lockset_result=locks
    )
    structural = locks.structural_keys()

    live = _live_functions(module, callgraph)
    contexts = _thread_contexts(module, callgraph)
    epochs = _spawn_epochs(module, callgraph)

    # Group non-local accesses by location key.
    accesses = []  # (function, instr, key, concurrent)
    by_key = {}
    for name, function in module.functions.items():
        info = cache.nonlocal_info(function)
        for instr in function.instructions():
            if not instr.is_memory_access():
                continue
            if isinstance(instr, ins.Alloca):
                continue
            pointer = instr.accessed_pointer()
            if pointer is None or not info.is_nonlocal_pointer(pointer):
                continue
            key = info.location_key(pointer)
            concurrent = epochs.get(instr, True)
            entry = (name, instr, key, concurrent)
            accesses.append(entry)
            if key is not None and name in live:
                by_key.setdefault(key, []).append(entry)

    verdicts = _classify_keys(by_key, locks, structural, contexts)

    for name, instr, key, concurrent in accesses:
        if name not in live:
            classification, confidence = AccessClass.UNREACHABLE, ""
        elif key is None:
            classification, confidence = AccessClass.UNKNOWN, ""
        else:
            classification, confidence = verdicts[key]
        held, _tainted = locks.lockset_at(instr)
        lockset = tuple(sorted(
            locks.locks[k].describe() for k in held if k in locks.locks
        ))
        report.findings.append(AccessFinding(
            function=name,
            block_label=instr.block.label if instr.block else "?",
            source_line=instr.source_line,
            instr=instr,
            key=key,
            classification=classification,
            lockset=lockset,
            confidence=confidence,
            concurrent=concurrent,
        ))
    return report


def _classify_keys(by_key, locks, structural, contexts):
    """Per-key verdict: (AccessClass, confidence)."""
    verdicts = {}
    for key, entries in by_key.items():
        if key in locks.locks:
            verdicts[key] = (AccessClass.LOCK, "")
            continue
        concurrent_entries = [e for e in entries if e[3]]
        common = None
        tainted = False
        for _name, instr, _key, _concurrent in concurrent_entries:
            held, instr_tainted = locks.lockset_at(instr)
            tainted = tainted or instr_tainted
            common = held if common is None else (common & held)
        if concurrent_entries and common:
            confidence = "structural" if common & structural else "heuristic"
            verdicts[key] = (AccessClass.PROTECTED, confidence)
            continue
        shared = _is_shared(key, entries, contexts)
        if not concurrent_entries or not shared:
            verdicts[key] = (AccessClass.UNSHARED, "")
        elif not any(
            isinstance(e[1], (ins.Store, ins.Cmpxchg, ins.AtomicRMW))
            for e in entries
        ):
            verdicts[key] = (AccessClass.READ_ONLY, "")
        elif tainted:
            verdicts[key] = (AccessClass.UNKNOWN, "")
        else:
            verdicts[key] = (AccessClass.RACY, "")
    return verdicts


# ---------------------------------------------------------------------------
# Thread structure
# ---------------------------------------------------------------------------


def _reachable(callgraph, root):
    seen = set()
    worklist = [root]
    while worklist:
        name = worklist.pop()
        if name in seen or name not in callgraph.callees:
            continue
        seen.add(name)
        worklist.extend(callgraph.callees[name])
    return seen


def _live_functions(module, callgraph):
    """Functions reachable from main / thread entries (all, if no main)."""
    if "main" not in module.functions:
        return set(module.functions)
    live = set()
    roots = {"main"} | callgraph.thread_entries
    for root in roots:
        live |= _reachable(callgraph, root)
    return live


def _thread_contexts(module, callgraph):
    """(roots_reaching, multiplicity): which thread roots may execute
    each function, and how many thread instances each root stands for.

    ``main`` is one instance; a thread entry is one instance per static
    spawn site (a spawn in a loop still counts once — the must-lockset
    stays sound either way; only sharing may be under-reported for spawn
    loops, which the corpus does not use).
    """
    multiplicity = {}
    if "main" in module.functions:
        multiplicity["main"] = 1
    for site in callgraph.spawn_sites:
        multiplicity[site.callee] = multiplicity.get(site.callee, 0) + 1
    if not multiplicity:
        multiplicity = {
            name: 1 for name in module.functions
            if not callgraph.callers[name]
        }

    roots_reaching = {name: set() for name in module.functions}
    for root in multiplicity:
        for name in _reachable(callgraph, root):
            roots_reaching[name].add(root)
    return roots_reaching, multiplicity


def _is_shared(key, entries, contexts):
    roots_reaching, multiplicity = contexts
    roots = set()
    for name, _instr, _key, _concurrent in entries:
        roots |= roots_reaching.get(name, set())
    return sum(multiplicity.get(root, 0) for root in roots) >= 2


def _spawn_epochs(module, callgraph):
    """instr -> may-be-concurrent flag, via spawn/join counting in roots.

    Only ``main`` (and other spawn-performing roots) get the refined
    treatment; everything else is conservatively concurrent.  The count
    is a [lo, hi] interval per block; calls into functions that may
    spawn push hi to infinity.
    """
    INF = 1 << 20
    spawners = set()
    for site in callgraph.spawn_sites:
        spawners |= {
            name for name in module.functions
            if site.caller in _reachable(callgraph, name)
        }

    flags = {}
    for name, function in module.functions.items():
        has_spawn = any(
            isinstance(i, ins.ThreadCreate) for i in function.instructions()
        )
        if not has_spawn or name in callgraph.thread_entries:
            continue
        intervals = {function.entry: (0, 0)}
        worklist = [function.entry]
        visits = {}
        while worklist:
            block = worklist.pop(0)
            visits[block] = visits.get(block, 0) + 1
            lo, hi = intervals[block]
            for instr in block.instructions:
                if isinstance(instr, ins.ThreadCreate):
                    lo, hi = lo + 1, min(hi + 1, INF)
                elif isinstance(instr, ins.ThreadJoin):
                    lo, hi = max(lo - 1, 0), max(hi - 1, 0)
                elif isinstance(instr, ins.Call) and (
                    instr.callee.name in spawners
                ):
                    hi = INF
            for successor in block.successors():
                old = intervals.get(successor)
                new = (lo, hi) if old is None else (
                    min(old[0], lo), max(old[1], hi)
                )
                if visits.get(successor, 0) > len(function.blocks):
                    new = (new[0], INF)  # widen non-converging loops
                if new != old:
                    intervals[successor] = new
                    if successor not in worklist:
                        worklist.append(successor)
        # Record per-instruction concurrency.
        for block in function.blocks:
            if block not in intervals:
                continue
            lo, hi = intervals[block]
            for instr in block.instructions:
                flags[instr] = hi > 0
                if isinstance(instr, ins.ThreadCreate):
                    lo, hi = lo + 1, min(hi + 1, INF)
                elif isinstance(instr, ins.ThreadJoin):
                    lo, hi = max(lo - 1, 0), max(hi - 1, 0)
                elif isinstance(instr, ins.Call) and (
                    instr.callee.name in spawners
                ):
                    hi = INF
    return flags
