"""Command-line interface: ``python -m repro`` or the ``atomig`` script.

Subcommands mirror the library workflow:

- ``atomig port file.c``     — port a Mini-C file, print the report / IR;
- ``atomig optimize file.c`` — port, then weaken barriers under the
  model-checking oracle (verdict-preserving);
- ``atomig check file.c``    — model-check under sc/tso/wmm;
- ``atomig run file.c``      — execute on the performance VM;
- ``atomig lint file.c``     — static race & portability linter;
- ``atomig robustness f.c``  — static critical-cycle robustness report;
- ``atomig litmus [NAME]``   — run the calibration litmus tests;
- ``atomig tables [N ...]``  — regenerate the paper's evaluation tables;
- ``atomig serve``           — porting-as-a-service daemon (repro.serve);
- ``atomig submit file.c``   — submit a job to a running daemon;
- ``atomig status [ID]``     — job states from a running daemon;
- ``atomig result ID``       — fetch (optionally await) a job's result.

Exit codes are uniform across subcommands:

- ``0`` — success, and every verdict in the output is clean;
- ``1`` — the tool ran but found a bug verdict: a check
  violation/deadlock, an optimize run that did not preserve the
  verdict, a repair that left the module non-robust, a failed or
  cancelled job;
- ``2`` — usage error (bad arguments, unknown litmus/table name);
- ``3`` — service errors: daemon unreachable, unknown job id, timeout.

``--json`` subcommands print exactly one JSON document on stdout;
diagnostics go to stderr so piped output stays parseable.
"""

import argparse
import json
import sys

from repro.api import (
    compile_source,
    lint_module,
    port_module,
    run_module,
)
from repro.core.config import AtoMigConfig, PortingLevel

_LEVELS = {level.value: level for level in PortingLevel}


def _load(path, name=None):
    with open(path) as handle:
        source = handle.read()
    if path.endswith(".ir"):
        from repro.ir.parser import parse_module

        return parse_module(source)
    return compile_source(source, name or path)


def _add_level_arg(parser):
    parser.add_argument(
        "--level",
        choices=sorted(_LEVELS),
        default="atomig",
        help="porting strategy (default: atomig)",
    )


def _build_config(args):
    check_robustness = getattr(args, "check_robustness", False)
    repair = getattr(args, "repair", False)
    if not (args.polling or args.barrier_seeds or args.strict_spinloops
            or args.no_inline or args.no_alias or args.prune_protected
            or check_robustness or repair
            or args.alias_mode != "type_based"):
        return None
    return AtoMigConfig(
        detect_polling_loops=args.polling,
        compiler_barrier_seeds=args.barrier_seeds,
        strict_spinloop_definition=args.strict_spinloops,
        inline_before_analysis=not args.no_inline,
        alias_exploration=not args.no_alias,
        prune_protected=args.prune_protected,
        check_robustness=check_robustness,
        repair_mode=repair,
        repair_model=getattr(args, "repair_model", "wmm"),
        repair_arch=getattr(args, "repair_arch", "armv8"),
        alias_mode=args.alias_mode,
    )


def _add_config_args(parser):
    parser.add_argument("--polling", action="store_true",
                        help="enable the polling-loop extension (paper §6)")
    parser.add_argument("--barrier-seeds", action="store_true",
                        help="enable compiler-barrier seeding (paper §6)")
    parser.add_argument("--strict-spinloops", action="store_true",
                        help="use the stricter spinloop definition (ablation)")
    parser.add_argument("--no-inline", action="store_true",
                        help="disable pre-analysis inlining (ablation)")
    parser.add_argument("--no-alias", action="store_true",
                        help="disable alias exploration (ablation)")
    parser.add_argument("--prune-protected", action="store_true",
                        help="exempt lint-proven lock-protected accesses "
                             "from atomization")
    parser.add_argument("--check-robustness", action="store_true",
                        help="after porting, attach the static "
                             "Shasha-Snir robustness classification to "
                             "the report")
    parser.add_argument("--repair", action="store_true",
                        help="after porting, statically repair any "
                             "remaining non-robustness with a min-cost "
                             "set of fences / order strengthenings")
    parser.add_argument("--repair-model", choices=["tso", "wmm"],
                        default="wmm",
                        help="memory model the --repair pass targets "
                             "(default: wmm)")
    parser.add_argument("--repair-arch", choices=["armv8", "power"],
                        default="armv8",
                        help="cost model weighting the --repair pass "
                             "(default: armv8)")
    parser.add_argument("--alias-mode", choices=("type_based", "points_to"),
                        default="type_based",
                        help="location-key precision for alias exploration: "
                             "the paper's type-based scheme, or Andersen "
                             "points-to classes with thread-escape pruning")


def cmd_port(args):
    module = _load(args.file)
    ported, report = port_module(
        module, _LEVELS[args.level], config=_build_config(args),
        optimize=args.optimize,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        if report.repair:
            print(_repair_summary(report.repair))
        if report.optimization:
            print(_opt_summary(report.optimization))
        if report.spinloops:
            print(f"spinloops: {report.spinloops}")
        if report.optimistic_loops:
            print(f"optimistic loops: {report.optimistic_loops}")
        if report.fences_inserted:
            print(f"explicit fences inserted: {report.fences_inserted}")
        if report.pruned_protected:
            print(f"lock-protected accesses pruned: "
                  f"{report.pruned_protected}")
        if report.pruned_thread_local:
            print(f"thread-local accesses pruned: "
                  f"{report.pruned_thread_local}")
        for note in report.notes:
            print(f"note: {note}")
        if args.profile:
            from repro.core.profile import format_pipeline_stats

            print("pipeline profile:")
            print(format_pipeline_stats(report.stats))
    if args.emit_ir:
        from repro.ir.printer import print_module

        text = print_module(ported)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"ported IR written to {args.output}", file=sys.stderr)
        elif args.json:
            # IR on stdout would corrupt the JSON document.
            print("port --json: --emit-ir needs -o/--output",
                  file=sys.stderr)
        else:
            print(text)
    return 0


def _repair_summary(payload):
    """One-line rendering of a RepairReport dict."""
    if not payload["rounds"]:
        return (f"repair [{payload['model']}/{payload['arch']}]: "
                f"already robust, nothing to repair")
    status = "robust" if payload["robust_after"] else "STILL NON-ROBUST"
    return (
        f"repair [{payload['model']}/{payload['arch']}]: {status} — "
        f"{payload['cycles_broken']} cycles broken by "
        f"{payload['strengthened']} strengthenings + "
        f"{payload['fences_added']} fences (+{payload['total_cost']} "
        f"cycles, {payload['solver']} cover)"
    )


def _opt_summary(payload):
    """One-line rendering of an OptimizationReport dict."""
    before = payload["barrier_cost_before"]
    saved_pct = 100.0 * payload["cycles_saved"] / before if before else 0.0
    verdict = payload["baseline_outcome"] or "n/a"
    if not payload["verdict_preserved"] and payload["baseline_outcome"]:
        verdict += f" -> {payload['final_outcome']} [NOT PRESERVED]"
    return (
        f"optimize: {payload['accesses_weakened']}/{payload['candidates']} "
        f"accesses weakened, {payload['fences_deleted']} fences deleted, "
        f"barrier cost {before} -> {payload['barrier_cost_after']} "
        f"(-{saved_pct:.0f}%), {payload['checks_run']} oracle checks, "
        f"verdict {verdict}"
    )


def cmd_optimize(args):
    """Port, then weaken barriers as far as the oracle certifies."""
    module = _load(args.file)
    if args.level != "original":
        module, _report = port_module(
            module, _LEVELS[args.level], config=_build_config(args)
        )
    counts = None
    if args.dynamic:
        result = run_module(module, record_counts=True)
        counts = result.stats.instr_counts
    from repro.api import optimize_module

    optimized, report = optimize_module(
        module, model=args.model, max_steps=args.max_steps,
        jobs=args.jobs, counts=counts,
        require_marks=not args.all_accesses,
        robustness=args.robustness,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if args.emit_ir:
        from repro.ir.printer import print_module

        text = print_module(optimized)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"optimized IR written to {args.output}")
        else:
            print(text)
    return 0 if report.verdict_preserved or not report.baseline_outcome else 1


def _check_results(args):
    """One check per requested model, on ``--jobs`` worker processes."""
    from repro.core.workers import run_batch
    from repro.mc.parallel import CheckTask

    # --repair needs the porting pipeline even at level original (the
    # repair stage lives there).
    needs_port = args.level != "original" or args.repair
    with open(args.file) as handle:
        source = handle.read()
    config = _build_config(args)
    tasks = [
        CheckTask(
            name=args.file, source=source, model=model,
            level=args.level if needs_port else None,
            max_steps=args.max_steps, por=args.por, macro=args.macro,
            config=config, is_ir=args.file.endswith(".ir"),
            robustness=args.robustness,
        )
        for model in args.models
    ]
    return zip(args.models, run_batch(tasks, jobs=args.jobs))


def cmd_check(args):
    failures = 0
    rows = []
    for model, result in _check_results(args):
        if result.violation is not None or result.deadlock:
            failures += 1
        if args.json:
            rows.append(result.to_dict())
            continue
        if result.violation is not None:
            status = f"VIOLATION: {result.violation}"
        elif result.deadlock:
            status = "DEADLOCK"
        else:
            status = "ok"
        extra = " (truncated)" if result.truncated else ""
        if result.verdict_source == "robustness":
            extra += ", statically robust"
        print(f"{model:>3}: {status}  "
              f"[{result.states_explored} states{extra}]")
        if args.stats and result.stats is not None:
            from repro.core.report import format_exploration_stats

            print(format_exploration_stats(result.stats))
        if result.violation is not None and args.trace:
            for step in result.trace[-args.trace:]:
                print(f"      {step}")
        elif result.deadlock and args.trace:
            for step in result.deadlock_trace[-args.trace:]:
                print(f"      {step}")
    if args.json:
        print(json.dumps(rows, indent=2))
    return 1 if failures else 0


def cmd_run(args):
    module = _load(args.file)
    if args.level != "original":
        module, _report = port_module(
            module, _LEVELS[args.level], config=_build_config(args)
        )
    result = run_module(module, schedule_seed=args.seed)
    print(f"exit value: {result.exit_value}")
    if result.output:
        print(f"output: {result.output}")
    print(f"cycles: {result.cycles}")
    print(f"stats: {result.stats.summary()}")
    return 0


def cmd_diff(args):
    from repro.core.diff import diff_modules

    module = _load(args.file)
    ported, report = port_module(
        module, _LEVELS[args.level], config=_build_config(args)
    )
    print(report.summary())
    print()
    print(diff_modules(module, ported).render())
    return 0


def cmd_aliases(args):
    """Inspect location keys, points-to sets and thread-escape verdicts."""
    from repro.analysis.cache import AnalysisCache

    module = _load(args.file)
    if not args.no_inline:
        from repro.transform.inline import inline_module

        inline_module(module)
    cache = AnalysisCache(module)
    provider = cache.key_provider(args.alias_mode)
    pointsto = cache.pointsto()
    escape = cache.thread_escape()

    print(f"aliases {args.file} [{args.alias_mode}]")
    print(f"  abstract objects ({len(pointsto.objects)}):")
    for obj in sorted(pointsto.objects, key=lambda o: o.label):
        verdict = "shared" if escape.is_shared(obj) else "thread-local"
        print(f"    {obj.label:30s} {obj.kind:6s} {verdict}")

    for function in module.functions.values():
        lines = []
        for block in function.blocks:
            for instr in block.instructions:
                if not instr.is_memory_access():
                    continue
                pointer = instr.accessed_pointer()
                if pointer is None:
                    continue
                key, origin = provider.key_with_origin(function, pointer)
                if key is None and not args.all:
                    continue
                local = escape.pointer_is_thread_local(pointer)
                suffix = "  thread-local" if local else ""
                lines.append(
                    f"    {block.label:12s} {instr!r:44s} "
                    f"key={key} [{origin}]{suffix}"
                )
        if lines:
            print(f"  @{function.name}:")
            print("\n".join(lines))
    return 0


def cmd_lint(args):
    if args.corpus:
        return _lint_corpus(args)
    if not args.file:
        print("lint: a FILE is required unless --corpus is given",
              file=sys.stderr)
        return 2
    module = _load(args.file)
    report = lint_module(module, name_heuristic=not args.no_name_heuristic)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render(show=_lint_classes(args)))
    racy = report.counts().get("racy", 0)
    return 1 if args.fail_on_racy and racy else 0


def _lint_classes(args):
    if args.all:
        return ("lock", "protected", "unshared", "read_only", "racy",
                "unknown", "unreachable")
    return ("racy", "unknown", "protected", "lock")


def _lint_corpus(args):
    """Lint every corpus benchmark (the CI regression snapshot)."""
    from repro.bench.corpus import BENCHMARKS

    for name in sorted(BENCHMARKS):
        benchmark = BENCHMARKS[name]
        source = benchmark.mc_source or benchmark.perf_source
        if source is None:
            continue
        module = compile_source(source(), name)
        report = lint_module(module)
        counts = report.counts()
        histogram = " ".join(
            f"{key}={counts[key]}" for key in sorted(counts)
        )
        dead = len(report.dead_fences or ())
        print(f"{name:20s} locks={len(report.races.locks)} {histogram} "
              f"dead_fences={dead}")
    return 0


def cmd_robustness(args):
    """Static critical-cycle robustness report (no exploration)."""
    from repro.analysis.robustness import analyze_robustness

    if args.corpus:
        return _robustness_corpus(args)
    if not args.file:
        print("robustness: a FILE is required unless --corpus is given",
              file=sys.stderr)
        return 2
    module = _load(args.file)
    if args.level != "original":
        module, _report = port_module(
            module, _LEVELS[args.level], config=_build_config(args)
        )
    result = analyze_robustness(
        module, model=args.model, max_witnesses=args.max_witnesses
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return 0 if result.robust else 1


def _robustness_corpus(args):
    """Classify every corpus benchmark (the CI regression snapshot).

    One line per benchmark with the original-level and atomig-level
    classification under ``--model`` — the snapshot CI diffs, so a
    change in any module's robustness class is a loud event.  Witness
    order is deterministic (sorted by location key), so the snapshot is
    stable across runs.  ``--json`` emits one machine-readable
    :class:`RobustnessResult` payload per benchmark and level instead,
    with full per-access witness provenance.
    """
    from repro.analysis.robustness import analyze_robustness
    from repro.bench.corpus import BENCHMARKS

    payloads = []
    for name in sorted(BENCHMARKS):
        benchmark = BENCHMARKS[name]
        source = benchmark.mc_source or benchmark.perf_source
        if source is None:
            continue
        module = compile_source(source(), name)
        fields = []
        for level in ("original", "atomig"):
            work = module
            if level != "original":
                work, _report = port_module(
                    module.clone(), _LEVELS[level]
                )
            result = analyze_robustness(work, model=args.model)
            if args.json:
                payload = result.to_dict()
                payload["benchmark"] = name
                payload["level"] = level
                payloads.append(payload)
            verdict = "robust" if result.robust else "non-robust"
            fields.append(f"{level}={verdict}")
        if not args.json:
            print(f"{name:20s} [{args.model}] {'  '.join(fields)}")
    if args.json:
        print(json.dumps(payloads, indent=2))
    return 0


def cmd_repair(args):
    """Statically repair a module to robustness (min-cost fences)."""
    from repro.api import repair_module

    if args.corpus:
        return _repair_corpus(args)
    if not args.file:
        print("repair: a FILE is required unless --corpus is given",
              file=sys.stderr)
        return 2
    module = _load(args.file)
    if args.level != "original":
        module, _report = port_module(
            module, _LEVELS[args.level], config=_build_config(args)
        )
    repaired, report = repair_module(
        module, model=args.model, arch=args.arch, verify=args.verify,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if args.emit_ir:
        from repro.ir.printer import print_module

        text = print_module(repaired)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"repaired IR written to {args.output}")
        else:
            print(text)
    return 0 if report.robust_after else 1


def _repair_corpus(args):
    """Re-synthesize every corpus benchmark (the CI regression snapshot).

    One line per benchmark: the robust blanket-SC baseline cost, the
    synthesized repair cost under ``--arch``, the action mix and the
    solver evidence (see
    :func:`repro.analysis.repair.resynthesize_ported`).  Deterministic,
    so CI can diff it against ``benchmarks/results/repair_corpus.txt``.
    """
    from repro.analysis.repair import resynthesize_ported
    from repro.bench.corpus import BENCHMARKS

    failures = 0
    for name in sorted(BENCHMARKS):
        benchmark = BENCHMARKS[name]
        source = benchmark.mc_source or benchmark.perf_source
        if source is None:
            continue
        module = compile_source(source(), name)
        ported, _report = port_module(module, _LEVELS["atomig"])
        _repaired, report = resynthesize_ported(
            ported, model=args.model, arch=args.arch,
        )
        fallback = any("fell back" in note for note in report.notes)
        if not report.robust_after:
            failures += 1
        print(
            f"{name:28s} [{args.model}/{report.arch}]"
            f" sc={report.incumbent.get('barriers', 0)}"
            f" repair={report.barrier_cost_after}"
            f" strengthened={report.strengthened}"
            f" fences={report.fences_added}"
            f" solver={report.solver}"
            + (" fallback" if fallback else "")
            + ("" if report.robust_after else " NON-ROBUST")
        )
    return 1 if failures else 0


def cmd_litmus(args):
    from repro.mc.litmus import LITMUS_TESTS, expected_verdict, run_litmus

    names = args.names or sorted(LITMUS_TESTS)
    mismatches = 0
    for name in names:
        if name not in LITMUS_TESTS:
            print(f"unknown litmus test {name!r}; "
                  f"available: {', '.join(sorted(LITMUS_TESTS))}",
                  file=sys.stderr)
            return 2
        verdicts = []
        for model in ("sc", "tso", "wmm"):
            result = run_litmus(name, model)
            expected = expected_verdict(name, model)
            mark = "ok " if result.ok else "bug"
            suffix = "" if result.ok == expected else " [MISMATCH]"
            if result.ok != expected:
                mismatches += 1
            verdicts.append(f"{model}={mark}{suffix}")
        print(f"{name:15s} {'  '.join(verdicts)}")
    return 1 if mismatches else 0


def _print_table_profile(rows):
    """Merge and render the ``_stats`` payloads attached to table rows."""
    from repro.core.profile import PipelineStats, format_pipeline_stats

    merged = PipelineStats(ports=0)
    found = False
    for row in rows:
        payload = row.get("_stats")
        if payload:
            merged.merge(PipelineStats.from_dict(payload))
            found = True
    if found:
        print("pipeline profile (all ports merged):")
        print(format_pipeline_stats(merged))


def cmd_tables(args):
    from repro.bench import tables as T

    default = [1, 2, 3, 4, 5, 6, 7, 8]
    if args.optimize:
        default.append(9)
    selected = args.numbers or default
    profile = args.profile
    specs = {
        1: (lambda: T.table1(),
            ["approach", "safe", "efficient", "scalable", "practical"],
            "Table 1: Comparison of Porting Approaches"),
        2: (lambda: T.table2(jobs=args.jobs,
                             robustness=args.robustness),
            ["benchmark", "original", "expl", "spin", "atomig",
             "matches_paper"],
            "Table 2: Verification results (WMM)"),
        3: (lambda: T.table3(jobs=args.jobs, profile=profile),
            ["application", "sloc", "spinloops", "optiloops",
             "build_seconds", "atomig_seconds", "build_ratio",
             "atomig_explicit", "atomig_implicit", "naive_implicit"],
            "Table 3: AtoMig statistics (synthetic, 1/100 scale)"),
        4: (lambda: T.table4(),
            ["counter", "original", "atomig"],
            "Table 4: dynamic barriers (Memcached)"),
        5: (lambda: T.table5(jobs=args.jobs, profile=profile),
            ["benchmark", "naive", "atomig", "paper_naive", "paper_atomig"],
            "Table 5: Naive / AtoMig slowdowns"),
        6: (lambda: T.table6(jobs=args.jobs, profile=profile),
            ["benchmark", "naive", "lasagne", "atomig",
             "paper_naive", "paper_lasagne", "paper_atomig"],
            "Table 6: Phoenix"),
        7: (lambda: T.table_lint(jobs=args.jobs),
            ["benchmark", "atomig_impl", "pruned_impl", "pruned", "wmm_ok"],
            "Table 7: lock-protection pruning (atomig lint)"),
        8: (lambda: T.table8(jobs=args.jobs),
            ["benchmark", "type_based_impl", "points_to_impl", "delta",
             "pts_keyed", "pruned_local", "tb_wmm_ok", "pt_wmm_ok"],
            "Table 8: alias precision (type_based vs points_to)"),
        9: (lambda: T.table9(jobs=args.jobs,
                             robustness=args.robustness),
            ["benchmark", "cost_sc", "cost_opt", "saved_pct", "weakened",
             "fences_gone", "frozen", "checks", "verdict_kept"],
            "Table 9: oracle-guided barrier weakening (SC vs optimized)"),
        10: (lambda: T.table10(jobs=args.jobs),
             ["benchmark", "arch", "cost_sc", "cost_repair", "cost_opt",
              "strengthened", "fences", "solver", "robust_after",
              "verdict_kept"],
             "Table 10: static repair vs oracle weakening, per "
             "architecture"),
    }
    for number in selected:
        if number not in specs:
            print(f"no table {number}", file=sys.stderr)
            return 2
        rows_fn, columns, title = specs[number]
        rows = rows_fn()
        print(T.format_table(rows, columns, title=title))
        if profile:
            _print_table_profile(rows)
        print()
    return 0


def cmd_serve(args):
    """Run the porting-as-a-service daemon until SIGTERM/SIGINT.

    Signals do not run ``atexit`` hooks, so shutdown is explicit: the
    handlers only set an event, and the main thread then stops the
    HTTP server, drains running jobs (queued ones stay ``queued`` on
    disk and resume on the next start) and closes the persistent
    process pools.
    """
    import signal
    import threading

    from repro.api import start_service

    handle = start_service(
        host=args.host, port=args.port, job_dir=args.dir,
        workers=args.workers, fanout=args.fanout,
    )
    info = {
        "url": handle.url,
        "job_dir": handle.daemon.store.directory,
        "workers": handle.daemon.workers,
        "fanout": handle.daemon.fanout,
    }
    if args.json:
        print(json.dumps(info), flush=True)
    else:
        print(f"atomig serve: listening on {info['url']} "
              f"(jobs in {info['job_dir']}, workers={info['workers']}, "
              f"fanout={info['fanout']})", flush=True)

    stop = threading.Event()

    def _request_stop(signum, _frame):
        print(f"atomig serve: caught signal {signum}, draining...",
              file=sys.stderr, flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        stop.wait()
    finally:
        handle.stop(drain=True)
        print("atomig serve: stopped", file=sys.stderr)
    return 0


def _client(args):
    from repro.serve import ServeClient

    return ServeClient(args.url, timeout=args.timeout)


def _render_job(record):
    """One-line human rendering of a job record."""
    parts = [record["id"], record["kind"], record["state"]]
    if record.get("cache_hit"):
        parts.append("cache-hit")
    if record.get("seconds") is not None:
        parts.append(f"{record['seconds']:.2f}s")
    if record.get("error"):
        parts.append(f"error: {record['error']}")
    return "  ".join(parts)


def cmd_submit(args):
    from repro.serve import ServeError, result_exit_code

    with open(args.file) as handle:
        source = handle.read()
    module = {
        "name": args.name or args.file,
        "source": source,
        "is_ir": args.file.endswith(".ir"),
    }
    client = _client(args)
    try:
        record = client.submit(
            args.kind, [module], level=args.level, model=args.model,
            priority=args.priority,
        )
        if args.wait:
            record = client.result(
                record["id"], wait=True, timeout=args.timeout
            )
    except ServeError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(_render_job(record))
    return result_exit_code(record) if args.wait else 0


def cmd_status(args):
    from repro.serve import ServeError

    client = _client(args)
    try:
        if args.job:
            record = client.status(args.job)
            if args.json:
                print(json.dumps(record, indent=2))
            else:
                print(_render_job(record))
            return 0
        jobs = client.jobs()
    except ServeError as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(jobs, indent=2))
    else:
        for record in jobs:
            print(_render_job(record))
    return 0


def cmd_result(args):
    from repro.serve import TERMINAL_STATES, ServeError, result_exit_code

    client = _client(args)
    try:
        record = client.result(
            args.job, wait=args.wait, timeout=args.timeout
        )
    except ServeError as exc:
        print(f"result: {exc}", file=sys.stderr)
        return 3
    if record.get("state") not in TERMINAL_STATES:
        print(f"result: job {args.job} is {record.get('state')} "
              f"(use --wait)", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(_render_job(record))
        result = record.get("result") or {}
        for row in result.get("modules", result.get("checks", ())):
            name = row.get("name", "?")
            if "outcome" in row:
                print(f"  {name} [{row.get('model')}]: {row['outcome']} "
                      f"({row.get('states_explored')} states)")
            elif row.get("report") is not None:
                report = row["report"]
                summary = (
                    f"barriers {report.get('ported_explicit_barriers')}"
                    f"+{report.get('ported_implicit_barriers')}i"
                    if "ported_explicit_barriers" in report
                    else "; ".join(
                        f"{key}={report[key]}"
                        for key in ("robust_after", "verdict_preserved",
                                    "fences_added", "accesses_weakened")
                        if key in report
                    ) or "done"
                )
                print(f"  {name}: {summary}")
    return result_exit_code(record)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="atomig",
        description="AtoMig reproduction: port TSO programs to WMM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    port = sub.add_parser("port", help="port a Mini-C file")
    port.add_argument("file")
    _add_level_arg(port)
    _add_config_args(port)
    port.add_argument("--emit-ir", action="store_true",
                      help="print the ported IR")
    port.add_argument("-o", "--output", help="write the ported IR here")
    port.add_argument("--profile", action="store_true",
                      help="print per-stage wall-clock of the pipeline")
    port.add_argument("--optimize", action="store_true",
                      help="after porting, weaken barriers under the "
                           "model-checking oracle (verdict-preserving)")
    port.add_argument("--json", action="store_true",
                      help="emit the PortingReport as JSON on stdout "
                           "(diagnostics go to stderr)")
    port.set_defaults(func=cmd_port)

    optimize = sub.add_parser(
        "optimize",
        help="port, then relax memory orders as far as the model-checking "
             "oracle certifies the verdict unchanged",
    )
    optimize.add_argument("file")
    _add_level_arg(optimize)
    _add_config_args(optimize)
    optimize.add_argument("--model", choices=["sc", "tso", "wmm"],
                          default="wmm",
                          help="memory model the oracle checks under "
                               "(default: wmm)")
    optimize.add_argument("--max-steps", type=int, default=2500)
    optimize.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="probe bisection halves on N worker "
                               "processes")
    optimize.add_argument("--dynamic", action="store_true",
                          help="run the performance VM first and weight "
                               "candidates by dynamic execution counts")
    optimize.add_argument("--all-accesses", action="store_true",
                          help="also weaken SC accesses without porter "
                               "provenance marks (hand-written modules)")
    optimize.add_argument("--json", action="store_true",
                          help="emit the OptimizationReport as JSON")
    optimize.add_argument("--emit-ir", action="store_true",
                          help="print the optimized IR")
    optimize.add_argument("-o", "--output",
                          help="write the optimized IR here")
    optimize.add_argument("--robustness", default=True,
                          action=argparse.BooleanOptionalAction,
                          help="answer oracle queries statically when the "
                               "weakened module stays robust "
                               "(--no-robustness explores every query)")
    optimize.set_defaults(func=cmd_optimize)

    check = sub.add_parser("check", help="model-check a Mini-C file")
    check.add_argument("file")
    check.add_argument("--models", nargs="+", default=["wmm"],
                       choices=["sc", "tso", "wmm"])
    check.add_argument("--max-steps", type=int, default=2500)
    check.add_argument("--trace", type=int, default=0, metavar="N",
                       help="print the last N trace steps on violation "
                            "or deadlock")
    check.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="check the requested models on N worker "
                            "processes")
    check.add_argument("--stats", action="store_true",
                       help="print exploration statistics per model")
    check.add_argument("--por", default="sleep",
                       choices=["none", "sleep", "dpor"],
                       help="partial-order-reduction backend: 'sleep' "
                            "(Godefroid sleep sets, the default), "
                            "'dpor' (source-DPOR with happens-before "
                            "clocks and race-driven backtracking), or "
                            "'none' (enumerate every interleaving)")
    check.add_argument("--macro", default="on", choices=["on", "off"],
                       help="macro-stepping of single-choice runs "
                            "(default on; independent of --por so "
                            "ablations can isolate each reduction)")
    check.add_argument("--robustness", default=True,
                       action=argparse.BooleanOptionalAction,
                       help="skip exploration for statically robust "
                            "modules (--no-robustness always explores)")
    check.add_argument("--json", action="store_true",
                       help="emit one CheckResult JSON object per model "
                            "on stdout")
    _add_level_arg(check)
    _add_config_args(check)
    check.set_defaults(func=cmd_check)

    run = sub.add_parser("run", help="execute on the performance VM")
    run.add_argument("file")
    run.add_argument("--seed", type=int, default=0)
    _add_level_arg(run)
    _add_config_args(run)
    run.set_defaults(func=cmd_run)

    diff = sub.add_parser(
        "diff", help="show which accesses a port strengthened, and why"
    )
    diff.add_argument("file")
    _add_level_arg(diff)
    _add_config_args(diff)
    diff.set_defaults(func=cmd_diff)

    aliases = sub.add_parser(
        "aliases",
        help="inspect location keys, points-to sets and thread-escape "
             "verdicts per access",
    )
    aliases.add_argument("file")
    aliases.add_argument("--alias-mode", choices=("type_based", "points_to"),
                         default="points_to",
                         help="key provider to display (default: points_to)")
    aliases.add_argument("--all", action="store_true",
                         help="also list accesses without any location key")
    aliases.add_argument("--no-inline", action="store_true",
                         help="analyze the module without pre-inlining")
    aliases.set_defaults(func=cmd_aliases)

    lint = sub.add_parser(
        "lint", help="static race & portability linter (lockset analysis)"
    )
    lint.add_argument("file", nargs="?",
                      help="Mini-C or .ir file to lint")
    lint.add_argument("--json", action="store_true",
                      help="emit the structured report as JSON")
    lint.add_argument("--all", action="store_true",
                      help="show every classification, not just the "
                           "actionable ones")
    lint.add_argument("--fail-on-racy", action="store_true",
                      help="exit 1 when racy accesses are found")
    lint.add_argument("--no-name-heuristic", action="store_true",
                      help="disable the lock/unlock function-pair "
                           "name heuristic")
    lint.add_argument("--corpus", action="store_true",
                      help="lint every corpus benchmark (CI snapshot mode)")
    lint.set_defaults(func=cmd_lint)

    robustness = sub.add_parser(
        "robustness",
        help="static Shasha-Snir robustness report: critical cycles "
             "whose delays the model may leave unfenced",
    )
    robustness.add_argument("file", nargs="?",
                            help="Mini-C or .ir file to analyze")
    robustness.add_argument("--model", choices=["tso", "wmm"],
                            default="wmm",
                            help="memory model to analyze against "
                                 "(default: wmm)")
    robustness.add_argument("--json", action="store_true",
                            help="emit the RobustnessResult as JSON")
    robustness.add_argument("--max-witnesses", type=int, default=5,
                            metavar="N",
                            help="report at most N critical cycles")
    robustness.add_argument("--corpus", action="store_true",
                            help="classify every corpus benchmark at "
                                 "original and atomig levels (CI "
                                 "snapshot mode)")
    _add_level_arg(robustness)
    _add_config_args(robustness)
    robustness.set_defaults(func=cmd_robustness)

    repair = sub.add_parser(
        "repair",
        help="statically repair a module to robustness: break every "
             "critical cycle with a min-cost set of fences / order "
             "strengthenings",
    )
    repair.add_argument("file", nargs="?",
                        help="Mini-C or .ir file to repair")
    repair.add_argument("--model", choices=["tso", "wmm"], default="wmm",
                        help="memory model to repair against "
                             "(default: wmm)")
    repair.add_argument("--arch", choices=["armv8", "power"],
                        default="armv8",
                        help="cost model weighting the repair "
                             "(default: armv8)")
    repair.add_argument("--json", action="store_true",
                        help="emit the RepairReport as JSON")
    repair.add_argument("--verify", action="store_true",
                        help="model-check the repaired module with the "
                             "robustness fast path and record the "
                             "0-state evidence")
    repair.add_argument("--emit-ir", action="store_true",
                        help="print the repaired IR")
    repair.add_argument("-o", "--output",
                        help="write the repaired IR here")
    repair.add_argument("--corpus", action="store_true",
                        help="repair every corpus benchmark at atomig "
                             "level (CI snapshot mode)")
    _add_level_arg(repair)
    _add_config_args(repair)
    repair.set_defaults(func=cmd_repair)

    litmus = sub.add_parser("litmus", help="run calibration litmus tests")
    litmus.add_argument("names", nargs="*")
    litmus.set_defaults(func=cmd_litmus)

    tables = sub.add_parser("tables", help="regenerate paper tables")
    tables.add_argument("numbers", nargs="*", type=int)
    tables.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan table rows across N worker processes "
                             "(model checks for tables 2/7/8, port jobs "
                             "for tables 3/5/6)")
    tables.add_argument("--profile", action="store_true",
                        help="print the merged per-stage pipeline profile "
                             "under each porting table (3, 5, 6)")
    tables.add_argument("--optimize", action="store_true",
                        help="include Table 9 (oracle-guided barrier "
                             "weakening) in the default selection")
    tables.add_argument("--robustness", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="force the robustness fast path on/off for "
                             "tables 2 and 9 (default: per-table "
                             "defaults — off for 2, on for 9)")
    tables.set_defaults(func=cmd_tables)

    serve = sub.add_parser(
        "serve",
        help="run the porting-as-a-service daemon (durable job store, "
             "priority queue, HTTP API; see repro.serve)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8337,
                       help="TCP port; 0 binds an ephemeral port "
                            "(default: 8337)")
    serve.add_argument("--dir", default=None, metavar="DIR",
                       help="job store directory (default: ATOMIG_JOB_DIR "
                            "or ~/.cache/atomig/jobs)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="job worker threads; 0 accepts jobs without "
                            "executing them (default: min(4, cpus))")
    serve.add_argument("--fanout", type=int, default=1, metavar="N",
                       help="process-pool width multi-module jobs fan "
                            "out with (default: 1)")
    serve.add_argument("--json", action="store_true",
                       help="print the listening info as one JSON line")
    serve.set_defaults(func=cmd_serve)

    def _add_client_args(parser):
        parser.add_argument("--url", default=None,
                            help="service URL (default: ATOMIG_SERVE_URL "
                                 "or http://127.0.0.1:8337)")
        parser.add_argument("--timeout", type=float, default=300.0,
                            help="request / --wait timeout in seconds "
                                 "(default: 300)")
        parser.add_argument("--json", action="store_true",
                            help="emit the job record(s) as JSON")

    submit = sub.add_parser(
        "submit", help="submit a file to a running atomig serve daemon"
    )
    submit.add_argument("file", help="Mini-C or .ir file to submit")
    submit.add_argument("--kind", default="port",
                        choices=["port", "check", "optimize", "repair"],
                        help="job kind (default: port)")
    submit.add_argument("--level", default=None, choices=sorted(_LEVELS),
                        help="porting level (default: atomig)")
    submit.add_argument("--model", default=None,
                        choices=["sc", "tso", "wmm"],
                        help="memory model for check/optimize/repair jobs")
    submit.add_argument("--name", default=None,
                        help="module name (default: the file path)")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority; higher runs first "
                             "(default: 0)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal and exit "
                             "with its verdict code")
    _add_client_args(submit)
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status", help="show job states from a running daemon"
    )
    status.add_argument("job", nargs="?", default=None,
                        help="job id (omit to list every job)")
    _add_client_args(status)
    status.set_defaults(func=cmd_status)

    result = sub.add_parser(
        "result", help="fetch a job's result from a running daemon"
    )
    result.add_argument("job", help="job id")
    result.add_argument("--wait", action="store_true",
                        help="poll until the job is terminal")
    _add_client_args(result)
    result.set_defaults(func=cmd_result)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
