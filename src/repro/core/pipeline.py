"""The end-to-end porting pipeline (Figure 2 of the paper).

``run_porting`` forks the input module (:meth:`Module.fork`), applies
the strategy selected by :class:`PortingLevel` — each pass owns the
functions it writes before writing them, so the port copies only those
and shares the rest with its input — verifies the result and returns
it together with a :class:`PortingReport` describing what was detected
and changed.

Every stage is timed into ``report.stats`` (:class:`PipelineStats`);
``report.porting_seconds`` covers the transformation proper, while
post-port verification and barrier recounting live in their own stats
buckets.  Only the functions a port actually touched are re-verified
(naive and Lasagne, which do not track what they touch, verify every
function): a fork of a verified module is verified by construction, so
an untouched function cannot have become malformed (one owned only to
re-point a call is a faithful copy).
"""

import time

from repro.analysis.cache import AnalysisCache
from repro.core.alias import find_aliases
from repro.core.annotations import find_annotations
from repro.core.atomize import (
    atomize_accesses,
    insert_fences,
    optimistic_fence_sites,
)
from repro.core.config import AtoMigConfig, PortingLevel
from repro.core.optimistic import find_optimistic_loops
from repro.core.profile import notify_event
from repro.core.prune import (
    demote,
    find_protected_accesses,
    find_thread_local_accesses,
)
from repro.core.report import (
    PortingReport,
    function_barriers,
    total_barriers,
)
from repro.core.spinloops import find_spinloops
from repro.ir.verifier import verify_module
from repro.transform.inline import inline_module
from repro.transform.lasagne import lasagne_port
from repro.transform.naive import naive_port


def run_porting(module, level=PortingLevel.ATOMIG, config=None,
                optimize=False):
    """Port ``module`` according to ``level``; returns (ported, report).

    ``config`` (default: the paper's) gets ``level``'s ablations on
    top (:meth:`AtoMigConfig.for_level`).  ``optimize=True`` appends
    the oracle-guided barrier-weakening stage
    (:func:`repro.opt.optimize_module`): after porting, memory orders
    are relaxed as far as the model checker certifies the verdict
    unchanged.  The weakened module is returned and the
    ``OptimizationReport`` dict lands in ``report.optimization``.
    """
    started = time.perf_counter()
    config = AtoMigConfig.for_level(level, config)
    report = PortingReport(module_name=module.name, level=level.value)
    stats = report.stats
    stats.module = module.name
    with stats.stage("count_barriers"):
        barriers = {name: function_barriers(function)
                    for name, function in module.functions.items()}
        report.original_explicit_barriers, report.original_implicit_barriers = (
            total_barriers(barriers.values())
        )

    with stats.stage("clone"):
        ported = module.fork()
    ported.name = f"{module.name}.{level.value}"

    #: Names of functions this port modified; ``None`` means "assume
    #: everything" (module-wide rewrites without touch tracking).
    touched = None
    if level is PortingLevel.ORIGINAL:
        touched = set()
    elif level is PortingLevel.NAIVE:
        with stats.stage("naive"):
            report.naive_conversions = naive_port(ported)
    elif level is PortingLevel.LASAGNE:
        with stats.stage("lasagne"):
            inserted, removed = lasagne_port(ported)
        report.fences_inserted = inserted - removed
        report.notes.append(
            f"lasagne: inserted {inserted} fences, eliminated {removed}"
        )
    else:
        touched = _run_atomig(ported, level, config, report)

    if config.repair_mode:
        from repro.analysis.repair import repair_module

        with stats.stage("repair"):
            _, repair_report = repair_module(
                ported, model=config.repair_model,
                arch=config.repair_arch, clone=False,
            )
        report.repair = repair_report.to_dict()
        if repair_report.rounds:
            # Repaired functions carry new fences / orders: make sure
            # the incremental verifier re-checks them.
            if touched is not None:
                touched |= {a.function for a in repair_report.actions}
            report.notes.append(repair_report.summary())
        if not repair_report.robust_after:
            report.notes.append(
                f"repair: module still non-robust under "
                f"{config.repair_model} after repair"
            )

    with stats.stage("verify"):
        if touched is None:
            verify_module(ported)
            stats.count("verified_functions", len(ported.functions))
        else:
            verify_module(ported, functions=touched)
            stats.count("verified_functions", len(touched))
            stats.count(
                "verify_skipped_functions",
                len(ported.functions) - len(touched),
            )
    with stats.stage("count_barriers"):
        # A function the port shares with its input kept its barriers.
        report.ported_explicit_barriers, report.ported_implicit_barriers = (
            total_barriers(
                barriers[name] if function is module.functions.get(name)
                else function_barriers(function)
                for name, function in ported.functions.items()
            )
        )

    if optimize:
        from repro.opt import optimize_module  # lazy: opt pulls in mc

        with stats.stage("optimize"):
            ported, opt_report = optimize_module(ported, clone=False)
        report.optimization = opt_report.to_dict()
        if opt_report.baseline_outcome and not opt_report.verdict_preserved:
            report.notes.append(
                f"optimize: verdict NOT preserved "
                f"({opt_report.baseline_outcome} -> "
                f"{opt_report.final_outcome})"
            )

    stats.total_seconds = time.perf_counter() - started
    report.porting_seconds = stats.transform_seconds
    ported.metadata["porting_report"] = report
    notify_event(
        "port_done", module=module.name, level=level.value,
        seconds=stats.total_seconds,
        barriers=[report.ported_explicit_barriers,
                  report.ported_implicit_barriers],
    )
    return ported, report


def _run_atomig(ported, level, config, report):
    """Run the AtoMig stages on the fork ``ported``.

    Every detector reads the module as it is after inlining; then the
    port owns, once, the functions it writes and applies the marks,
    order changes, atomization and fences through translated
    references, in stage order.  No analysis straddles the ownership
    change.  Returns the set of names of functions the port modified
    (for the incremental verifier).
    """
    report.alias_mode = config.alias_mode
    stats = report.stats
    touched = set()

    if config.inline_before_analysis:
        with stats.stage("inline"):
            inlined = inline_module(ported, touched=touched)
        if inlined:
            report.notes.append(f"inlined {inlined} call sites before analysis")

    # One analysis cache for every stage below.  Built after inlining —
    # the per-function analyses hold references into the final IR.
    cache = AnalysisCache(ported)

    seed_keys = set()
    marked = set()
    vetoed = set()
    #: (stage, result) of every detector, applied after owning.
    findings = []

    with stats.stage("annotations"):
        annotations = find_annotations(
            ported, config.volatile_blacklist, cache=cache
        )
    findings.append(("annotations", annotations))
    seed_keys |= annotations.location_keys
    marked |= annotations.marked_instructions
    vetoed |= annotations.atomic_instructions()
    report.annotation_conversions = annotations.conversions

    spinloops = None
    if config.detect_spinloops:
        with stats.stage("spinloops"):
            spinloops = find_spinloops(
                ported, strict=config.strict_spinloop_definition, cache=cache
            )
        findings.append(("spinloops", spinloops))
        seed_keys |= spinloops.control_keys
        marked |= spinloops.control_instructions
        vetoed |= spinloops.control_instructions
        report.spinloops = [
            (info.function_name, info.header_label)
            for info in spinloops.spinloops
        ]
        report.spin_controls = sorted(map(str, spinloops.control_keys))

    if config.detect_polling_loops or config.compiler_barrier_seeds:
        from repro.core.extensions import (
            find_compiler_barrier_seeds,
            find_polling_loops,
        )

        extensions = None
        with stats.stage("extensions"):
            if config.detect_polling_loops:
                extensions = find_polling_loops(ported, cache=cache)
                if extensions.polling_loops:
                    report.notes.append(
                        f"polling loops detected: {extensions.polling_loops}"
                    )
            if config.compiler_barrier_seeds:
                extensions = find_compiler_barrier_seeds(
                    ported, extensions, cache=cache
                )
        if extensions is not None:
            findings.append(("extensions", extensions))
            seed_keys |= extensions.control_keys
            marked |= extensions.control_instructions

    optimistic = None
    if config.detect_optimistic and spinloops is not None:
        with stats.stage("optimistic"):
            optimistic = find_optimistic_loops(
                ported, spinloops, cache=cache
            )
        findings.append(("optimistic", optimistic))
        seed_keys |= optimistic.control_keys
        marked |= optimistic.control_instructions
        report.optimistic_loops = [
            (info.function_name, info.spinloop.header_label)
            for info in optimistic.optimistic_loops
        ]
        report.optimistic_controls = sorted(map(str, optimistic.control_keys))

    sticky = set()
    index = None
    if config.alias_exploration:
        # points_to mode also re-seeds from the already-marked accesses:
        # a marked access that is keyless under the type scheme can be
        # keyed by its points-to class, pulling its true aliases in.
        seed_instructions = marked if config.alias_mode == "points_to" else ()
        with stats.stage("alias"):
            sticky, index = find_aliases(
                ported, seed_keys, cache=cache, mode=config.alias_mode,
                seed_instructions=seed_instructions,
            )
        report.sticky_conversions = len(sticky - marked)

    # Every access whose order or marks may change lives in one of
    # these sets — record their functions before pruning shrinks them.
    for instr in marked | sticky:
        touched.add(instr.block.function.name)

    to_atomize = marked | sticky
    pruned = set()
    if config.prune_protected:
        with stats.stage("prune_protected"):
            pruned = find_protected_accesses(
                ported, to_atomize, vetoed, cache
            )
        to_atomize -= pruned
        report.pruned_protected = len(pruned)
        if pruned:
            report.notes.append(
                f"lint pruning: {len(pruned)} lock-protected accesses "
                f"left plain"
            )

    local_pruned = set()
    if config.alias_mode == "points_to":
        with stats.stage("prune_thread_local"):
            local_pruned = find_thread_local_accesses(
                to_atomize, cache, vetoed
            )
        to_atomize -= local_pruned
        report.pruned_thread_local = len(local_pruned)
        if local_pruned:
            report.notes.append(
                f"escape pruning: {len(local_pruned)} thread-local "
                f"accesses left plain"
            )

    fence_sites = ()
    if optimistic is not None and optimistic.optimistic_loops:
        with stats.stage("fences"):
            fence_sites = optimistic_fence_sites(ported, optimistic, cache)
        touched.update(instr.block.function.name for instr, _ in fence_sites)

    # The write phase: own what the port writes, then write.
    with stats.stage("clone"):
        mapping = ported.own(touched)
    for stage, result in findings:
        with stats.stage(stage):
            result.apply(mapping)
    if sticky:
        with stats.stage("alias"):
            for instr in sticky:
                mapping.get(instr, instr).marks.add("sticky")
    if pruned:
        with stats.stage("prune_protected"):
            demote(pruned, "pruned_protected", mapping)
    if local_pruned:
        with stats.stage("prune_thread_local"):
            demote(local_pruned, "pruned_thread_local", mapping)
    if config.alias_mode == "points_to":
        with stats.stage("provenance"):
            report.alias_provenance = _alias_provenance(
                index, to_atomize, local_pruned, mapping
            )

    with stats.stage("atomize"):
        atomize_accesses(
            {mapping.get(instr, instr) for instr in to_atomize},
            force_explicit=config.force_explicit_barriers,
        )

    if fence_sites:
        with stats.stage("fences"):
            report.fences_inserted = insert_fences(fence_sites, mapping)

    warnings = ported.metadata.get("lowering_warnings")
    if warnings:
        report.notes.extend(warnings)
    return touched


def _alias_provenance(index, to_atomize, local_pruned, mapping):
    """String-only per-access provenance for the porting report.

    One entry per interesting access: atomized accesses whose key came
    from the points-to analysis (the precision *gain*) and accesses
    pruned as thread-local (the over-atomization *removed*).

    O(interesting accesses): positions come from the
    :class:`AccessIndex` built during alias exploration (it already
    walks every memory access once), and ordering uses the stable
    (function, block, ordinal) identity recorded there — ``repr`` of an
    unnamed instruction is ``id()``-based and unstable across runs.
    The index holds the accesses as they were before owning;
    ``mapping`` gives their written copies.
    """
    if index is None:
        return []
    positions = index.position_of
    unknown = ("?", "?", -1)
    entries = []
    for instr in sorted(
        to_atomize | local_pruned,
        key=lambda i: positions.get(i, unknown),
    ):
        keyed = index.key_of.get(instr)
        written = mapping.get(instr, instr)
        pruned = "pruned_thread_local" in written.marks
        if not pruned and (keyed is None or keyed[1] == "type"):
            continue
        function_name, block_label, _ = positions.get(instr, unknown)
        entries.append({
            "function": function_name,
            "block": block_label,
            "instr": repr(written),
            "key": repr(keyed[0]) if keyed else None,
            "origin": keyed[1] if keyed else "none",
            "action": "pruned_thread_local" if pruned else "atomized",
        })
    return entries
