"""Spinloop detection (§3.3).

A loop is a spinloop iff:

1. every exit condition has a non-local dependency, and
2. every in-loop store *without* non-local dependencies does not
   influence any exit condition — with the paper's refinement that a
   store of a constant value never disqualifies a loop (Figure 3,
   Spinloop 2: the store can't change the condition across iterations).

For each spinloop, all non-local accesses that influence its exit
conditions are marked as *spin controls*.
"""

from dataclasses import dataclass, field

from repro.analysis.influence import InfluenceAnalysis
from repro.analysis.loops import Loop, find_loops
from repro.ir import instructions as ins


@dataclass
class SpinloopInfo:
    """One detected spinloop and its spin controls."""

    function_name: str
    loop: object
    #: Non-local access instructions controlling the exits.
    spin_controls: set = field(default_factory=set)
    #: Location keys of the spin controls (buddy-propagation seeds).
    control_keys: set = field(default_factory=set)

    @property
    def header_label(self):
        return self.loop.header.label

    def translate(self, mapping):
        """Re-point the loop and its controls through :meth:`Module.own`'s
        ``mapping``."""
        loop = self.loop
        self.loop = Loop(mapping.get(loop.header, loop.header),
                         {mapping.get(block, block) for block in loop.body})
        self.spin_controls = {mapping.get(instr, instr)
                              for instr in self.spin_controls}


@dataclass
class SpinloopResult:
    """All spinloops detected in a module."""

    spinloops: list = field(default_factory=list)
    #: Union of all spin-control instructions.
    control_instructions: set = field(default_factory=set)
    #: Union of all spin-control location keys.
    control_keys: set = field(default_factory=set)

    def apply(self, mapping):
        """Mark every spin control.

        ``mapping`` is :meth:`Module.own`'s map for the functions that
        hold the controls; the loops and controls are translated.
        """
        if mapping:
            for info in self.spinloops:
                info.translate(mapping)
            self.control_instructions = {
                mapping.get(instr, instr)
                for instr in self.control_instructions
            }
        for instr in self.control_instructions:
            instr.marks.add("spin_control")


def detect_spinloops(module, strict=False, cache=None):
    """Detect spinloops in every function of ``module`` and mark their
    spin controls.

    ``strict`` switches to the more restrictive literature definition
    (no stores inside the loop body at all) — the ablation the paper
    argues against in §3.5.
    """
    result = find_spinloops(module, strict, cache)
    result.apply(module.own_holders(result.control_instructions))
    return result


def find_spinloops(module, strict=False, cache=None):
    """:func:`detect_spinloops`'s findings; ``module`` is only read."""
    result = SpinloopResult()
    intern = cache.intern if cache is not None else (lambda key: key)
    for function in module.functions.values():
        influence = InfluenceAnalysis(
            function,
            nonlocal_info=(cache.nonlocal_info(function)
                           if cache is not None else None),
        )
        for loop in find_loops(function):
            info = _classify_loop(function, loop, influence, strict)
            if info is None:
                continue
            info.control_keys = {intern(key) for key in info.control_keys}
            result.spinloops.append(info)
            result.control_instructions |= info.spin_controls
            result.control_keys |= info.control_keys
    return result


def _classify_loop(function, loop, influence, strict):
    conditions = loop.exit_conditions()
    if not conditions:
        return None  # no exits: nothing observes other threads

    if strict and _has_store(loop):
        return None

    closures = [influence.closure(cond, loop.body) for cond in conditions]

    # Condition (1): every exit condition needs a non-local dependency.
    for closure in closures:
        if not closure.has_nonlocal:
            return None

    # Condition (2): local-only stores must not influence the exits.
    feeding_stores = set()
    nonlocal_reads = set()
    for closure in closures:
        feeding_stores |= closure.local_stores
        nonlocal_reads |= closure.nonlocal_accesses
    for store in feeding_stores:
        if influence.stored_value_is_constant(store):
            continue
        value_closure = influence.closure(store.value, loop.body)
        if not value_closure.has_nonlocal:
            return None
    # The same rule applied to in-loop writes hitting the locations the
    # conditions read (e.g. ``while (flag != i) flag = compute();``).
    for store in influence.nonlocal_stores_matching(nonlocal_reads, loop.body):
        if isinstance(store, (ins.AtomicRMW, ins.Cmpxchg)):
            continue  # RMWs read memory: they carry a non-local dep
        if influence.stored_value_is_constant(store):
            continue
        value_closure = influence.closure(store.value, loop.body)
        if not value_closure.has_nonlocal:
            return None

    info = SpinloopInfo(function.name, loop)
    for access in nonlocal_reads:
        info.spin_controls.add(access)
        key = influence.nonlocal_info.location_key(access.accessed_pointer())
        if key is not None:
            info.control_keys.add(key)
    return info


def _has_store(loop):
    for instr in loop.instructions():
        if isinstance(instr, (ins.Store, ins.AtomicRMW, ins.Cmpxchg)):
            return True
    return False
