"""Harnesses regenerating every table of the paper's evaluation.

Each ``tableN`` function returns structured rows; ``format_table`` turns
them into the same layout the paper prints.  The pytest-benchmark files
under ``benchmarks/`` call these and record paper-vs-measured values.
"""

import math
import time

from repro.api import compile_source, port_module, run_module
from repro.bench.corpus import BENCHMARKS, PHOENIX_PAPER_NUMBERS
from repro.bench.synth import PAPER_TABLE3, generate_codebase
from repro.core.config import PortingLevel
from repro.core.parallel import PortTask
from repro.core.report import count_barriers
from repro.core.workers import run_batch
from repro.mc.parallel import CheckTask
from repro.opt.parallel import OptimizeTask


# ---------------------------------------------------------------------------
# Table 1 — qualitative comparison of porting approaches
# ---------------------------------------------------------------------------

TABLE1 = [
    # approach, safe, efficient, scalable, practical
    ("Naive", "yes", "no", "yes", "yes"),
    ("Hardware", "yes", "partly", "yes", "partly"),
    ("Expert", "partly", "yes", "no", "no"),
    ("VSync", "yes", "yes", "no", "no"),
    ("Musketeer", "yes", "partly", "partly", "no"),
    ("Lasagne", "yes", "no", "yes", "no"),
    ("TSan", "no", "partly", "partly", "no"),
    ("AtoMig", "partly", "yes", "yes", "yes"),
]


def table1():
    """The paper's Table 1 (static data: the design-space argument)."""
    return [
        {"approach": row[0], "safe": row[1], "efficient": row[2],
         "scalable": row[3], "practical": row[4]}
        for row in TABLE1
    ]


# ---------------------------------------------------------------------------
# Table 2 — verification results on ck and lf-hash
# ---------------------------------------------------------------------------

TABLE2_BENCHMARKS = (
    "ck_ring", "ck_spinlock_cas", "ck_spinlock_mcs", "ck_sequence", "lf_hash",
)

#: Paper Table 2: does the variant verify? (Original, Expl, Spin, AtoMig)
TABLE2_PAPER = {
    "ck_ring": (False, True, True, True),
    "ck_spinlock_cas": (False, True, True, True),
    "ck_spinlock_mcs": (False, False, True, True),
    "ck_sequence": (False, False, False, True),
    "lf_hash": (False, False, False, True),
}

_TABLE2_LEVELS = (
    ("original", PortingLevel.ORIGINAL),
    ("expl", PortingLevel.EXPL),
    ("spin", PortingLevel.SPIN),
    ("atomig", PortingLevel.ATOMIG),
)


def table2(max_steps=600, max_states=400_000, jobs=None,
           robustness=None):
    """Model-check each benchmark variant under WMM (paper Table 2).

    ``jobs`` fans the 20 benchmark × level checks across worker
    processes (``atomig tables 2 --jobs N``); the default runs them
    sequentially in-process.  ``robustness=True`` lets the static
    pre-pass short-circuit robust variants (their ``*_states`` columns
    then read 0); the default keeps it off so the table reports true
    exploration sizes.
    """
    robustness = False if robustness is None else robustness
    tasks = [
        CheckTask(
            name=name, source=BENCHMARKS[name].mc_source(), model="wmm",
            level=level.value, max_steps=max_steps, max_states=max_states,
            robustness=robustness,
        )
        for name in TABLE2_BENCHMARKS
        for _level_name, level in _TABLE2_LEVELS
    ]
    results = iter(run_batch(tasks, jobs=jobs))
    rows = []
    for name in TABLE2_BENCHMARKS:
        row = {"benchmark": name}
        for level_name, _level in _TABLE2_LEVELS:
            result = next(results)
            row[level_name] = result.ok
            row[f"{level_name}_states"] = result.states_explored
        expected = TABLE2_PAPER[name]
        row["matches_paper"] = (
            row["original"], row["expl"], row["spin"], row["atomig"]
        ) == expected
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Lint-pruning table — effect of prune_protected on the legacy benchmarks
# ---------------------------------------------------------------------------


LINT_BENCHMARKS = ("ck_spinlock_cas_legacy", "clht_lb_legacy")


def table_lint(benchmarks=LINT_BENCHMARKS, max_steps=4000,
               max_states=400_000, jobs=None):
    """Barrier counts with and without lock-protection pruning.

    For each legacy benchmark (volatile critical-section data, as in the
    real CK / CLHT sources) port once with plain AtoMig and once with
    ``prune_protected``; report the implicit-barrier counts, how many
    accesses the lockset analysis exempted, and whether the pruned
    variant still verifies under WMM.  ``jobs`` fans the WMM checks —
    the expensive part — across worker processes.
    """
    from repro.core.config import AtoMigConfig

    tasks = [
        CheckTask(
            name=name, source=BENCHMARKS[name].mc_source(), model="wmm",
            level="atomig", config=AtoMigConfig(prune_protected=True),
            max_steps=max_steps, max_states=max_states,
        )
        for name in benchmarks
    ]
    results = run_batch(tasks, jobs=jobs)
    rows = []
    for name, result in zip(benchmarks, results):
        benchmark = BENCHMARKS[name]
        module = compile_source(benchmark.mc_source(), name)
        atomig, _ = port_module(module, PortingLevel.ATOMIG)
        pruned, report = port_module(
            module, PortingLevel.ATOMIG,
            config=AtoMigConfig(prune_protected=True),
        )
        rows.append({
            "benchmark": name,
            "atomig_impl": count_barriers(atomig)[1],
            "pruned_impl": count_barriers(pruned)[1],
            "pruned": report.pruned_protected,
            "wmm_ok": result.ok,
        })
    return rows


# ---------------------------------------------------------------------------
# Table 8 — alias precision: type_based vs points_to location keys
# ---------------------------------------------------------------------------


#: Corpus programs written for the alias-precision comparison:
#: message_passing_indirect exhibits the type-based key *gap* (pointer
#: parameters), the other three exhibit its *over-approximation*
#: (thread-local objects matched by type).
ALIAS_BENCHMARKS = (
    "message_passing_indirect",
    "ck_sequence_snapshot",
    "ck_spinlock_cas_private",
    "lf_hash_copy",
)

TABLE8_BENCHMARKS = TABLE2_BENCHMARKS + ALIAS_BENCHMARKS


def table8(benchmarks=TABLE8_BENCHMARKS, max_steps=2500,
           max_states=400_000, jobs=None):
    """Implicit barriers and WMM verdicts per alias mode (Table 8).

    Ports every benchmark twice — ``alias_mode="type_based"`` and
    ``alias_mode="points_to"`` — and re-verifies both variants under
    WMM.  On the Table 2 programs the two modes must agree exactly
    (all synchronization there is reached through globals); on the
    alias corpus points_to removes thread-local barriers and closes the
    pointer-parameter detection gap.  ``jobs`` fans the WMM checks
    across worker processes.
    """
    from repro.core.config import ALIAS_MODES, AtoMigConfig

    tasks = [
        CheckTask(
            name=f"{name}:{mode}", source=BENCHMARKS[name].mc_source(),
            model="wmm", level="atomig",
            config=AtoMigConfig(alias_mode=mode),
            max_steps=max_steps, max_states=max_states,
        )
        for name in benchmarks
        for mode in ALIAS_MODES
    ]
    results = iter(run_batch(tasks, jobs=jobs))
    rows = []
    for name in benchmarks:
        module = compile_source(BENCHMARKS[name].mc_source(), name)
        impl = {}
        reports = {}
        for mode in ALIAS_MODES:
            ported, report = port_module(
                module, PortingLevel.ATOMIG,
                config=AtoMigConfig(alias_mode=mode),
            )
            impl[mode] = count_barriers(ported)[1]
            reports[mode] = report
        tb_result = next(results)
        pt_result = next(results)
        pt_report = reports["points_to"]
        rows.append({
            "benchmark": name,
            "type_based_impl": impl["type_based"],
            "points_to_impl": impl["points_to"],
            "delta": impl["type_based"] - impl["points_to"],
            "pts_keyed": sum(
                1 for entry in pt_report.alias_provenance
                if entry["action"] == "atomized"
            ),
            "pruned_local": pt_report.pruned_thread_local,
            "tb_wmm_ok": tb_result.ok,
            "pt_wmm_ok": pt_result.ok,
        })
    return rows


# ---------------------------------------------------------------------------
# Table 3 — scalability statistics on the large applications
# ---------------------------------------------------------------------------


def table3(scale=100, seed=0, jobs=None, frontend_cache=None, profile=False):
    """Static statistics of the density-matched synthetic code bases.

    ``jobs`` fans the per-(application, level) ports across worker
    processes; each worker times its own build and port, so the
    build/port ratios stay honest under parallelism.
    ``frontend_cache`` overrides the on-disk parsed-module cache
    (None = honor ``ATOMIG_FRONTEND_CACHE``) — leave it off when the
    ``build_ratio`` column must reflect real frontend cost.
    ``profile`` attaches the merged per-stage pipeline profile to each
    row under the non-column ``"_stats"`` key.
    """
    if jobs is not None and jobs > 1:
        return _table3_parallel(scale, seed, jobs, frontend_cache, profile)
    rows = []
    for app_name, app_profile in PAPER_TABLE3.items():
        source = generate_codebase(app_name, scale=scale, seed=seed)
        sloc = source.count("\n")

        started = time.perf_counter()
        module = compile_source(source, app_name, cache=frontend_cache)
        build_seconds = time.perf_counter() - started

        orig_expl, orig_impl = count_barriers(module)

        started = time.perf_counter()
        ported, report = port_module(module, PortingLevel.ATOMIG)
        atomig_seconds = build_seconds + (time.perf_counter() - started)
        port_expl, port_impl = count_barriers(ported)

        naive, naive_report = port_module(module, PortingLevel.NAIVE)
        _n_expl, naive_impl = count_barriers(naive)

        row = _table3_row(
            app_name, app_profile, sloc, build_seconds, atomig_seconds,
            report, (orig_expl, orig_impl), (port_expl, port_impl),
            naive_impl,
        )
        if profile:
            row["_stats"] = _merged_stats(report, naive_report)
        rows.append(row)
    return rows


def _table3_row(app_name, app_profile, sloc, build_seconds, atomig_seconds,
                report, orig_barriers, atomig_barriers, naive_impl):
    return {
        "application": app_name,
        "sloc": sloc,
        "spinloops": report.num_spinloops,
        "optiloops": report.num_optimistic_loops,
        "build_seconds": build_seconds,
        "atomig_seconds": atomig_seconds,
        "build_ratio": atomig_seconds / build_seconds,
        "orig_explicit": orig_barriers[0],
        "orig_implicit": orig_barriers[1],
        "atomig_explicit": atomig_barriers[0],
        "atomig_implicit": atomig_barriers[1],
        "naive_implicit": naive_impl,
        "paper": app_profile,
    }


def _merged_stats(*reports):
    """JSON-ready merged pipeline profile of one or more ports."""
    from repro.core.profile import PipelineStats

    merged = PipelineStats(ports=0)
    for report in reports:
        if report is not None:
            merged.merge(report.stats)
    return merged.to_dict()


def _table3_parallel(scale, seed, jobs, frontend_cache, profile):
    """Per-(application, level) port jobs on a process pool."""
    apps = list(PAPER_TABLE3.items())
    tasks = [
        PortTask(
            name=app_name, synth=(app_name, scale, seed), level=level,
            frontend_cache=frontend_cache,
        )
        for app_name, _profile in apps
        for level in ("atomig", "naive")
    ]
    outcomes = iter(run_batch(tasks, jobs=jobs))
    rows = []
    for app_name, app_profile in apps:
        atomig_out = next(outcomes)
        naive_out = next(outcomes)
        report = atomig_out.report
        # Generation is milliseconds; regenerate for the sloc column
        # instead of shipping megabytes of source through the pool.
        sloc = generate_codebase(app_name, scale=scale, seed=seed).count("\n")
        build_seconds = atomig_out.build_seconds
        atomig_seconds = build_seconds + atomig_out.port_seconds
        row = _table3_row(
            app_name, app_profile, sloc, build_seconds, atomig_seconds,
            report,
            (report.original_explicit_barriers,
             report.original_implicit_barriers),
            atomig_out.barriers, naive_out.barriers[1],
        )
        if profile:
            row["_stats"] = _merged_stats(report, naive_out.report)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 4 — dynamically executed barriers (Memcached)
# ---------------------------------------------------------------------------


def table4(requests=200):
    """Dynamic operation counts, original vs AtoMig Memcached."""
    benchmark = BENCHMARKS["memcached"]
    module = compile_source(benchmark.perf_source(requests), "memcached")
    original = run_module(module)
    ported, _report = port_module(module, PortingLevel.ATOMIG)
    atomig = run_module(ported)
    rows = []
    for key in ("non-atomic loads", "non-atomic stores",
                "atomic loads", "atomic stores"):
        rows.append({
            "counter": key,
            "original": original.stats.barrier_table()[key],
            "atomig": atomig.stats.barrier_table()[key],
        })
    return rows


# ---------------------------------------------------------------------------
# Table 5 — performance of Naive vs AtoMig, normalized to the original
# ---------------------------------------------------------------------------

TABLE5_BENCHMARKS = (
    "mariadb", "postgresql", "leveldb", "memcached", "sqlite",
    "ck_ring", "ck_sequence", "ck_spinlock_cas", "ck_spinlock_mcs",
    "lf_hash", "clht_lb", "clht_lf",
)


#: Scheduler seeds averaged in the performance tables.  Lock-heavy
#: workloads are sensitive to quantum phasing; averaging a few seeds
#: plays the role of the paper's repeated benchmark runs.
PERF_SEEDS = (0, 1, 2)


def _mean_cycles(module, seeds=PERF_SEEDS):
    total = 0
    for seed in seeds:
        total += run_module(module, schedule_seed=seed).cycles
    return total / len(seeds)


def _mean(outcome):
    """Mean modeled cycles of a port+run outcome over its seeds."""
    return sum(outcome.cycles) / len(outcome.cycles)


def table5(benchmarks=TABLE5_BENCHMARKS, seeds=PERF_SEEDS, jobs=None,
           profile=False):
    """Measured Naive and AtoMig slowdowns vs the original binaries.

    The baseline is the paper's 'original': the expert WMM port when
    one exists, otherwise the TSO sources compiled as-is (CLHT
    footnote '+').  ``jobs`` fans the per-(benchmark, variant)
    port+run jobs across worker processes; the VM is deterministic per
    seed, so the ratios do not depend on it.
    """
    seeds = tuple(seeds)
    tasks = []
    for name in benchmarks:
        benchmark = BENCHMARKS[name]
        perf_source = benchmark.perf_source()
        if benchmark.expert_source is not None:
            base_source = benchmark.expert_source()
            base_name = f"{name}.expert"
        else:
            base_source, base_name = perf_source, f"{name}.orig"
        tasks.append(PortTask(
            name=base_name, source=base_source, run_seeds=seeds,
        ))
        for level in ("naive", "atomig"):
            tasks.append(PortTask(
                name=name, source=perf_source, level=level, run_seeds=seeds,
            ))
    outcomes = iter(run_batch(tasks, jobs=jobs))
    rows = []
    for name in benchmarks:
        benchmark = BENCHMARKS[name]
        base_out, naive_out, atomig_out = (
            next(outcomes), next(outcomes), next(outcomes)
        )
        base_cycles = _mean(base_out)
        row = {
            "benchmark": name,
            "naive": _mean(naive_out) / base_cycles,
            "atomig": _mean(atomig_out) / base_cycles,
            "paper_naive": benchmark.paper_naive,
            "paper_atomig": benchmark.paper_atomig,
        }
        if profile:
            row["_stats"] = _merged_stats(
                naive_out.report, atomig_out.report
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 6 — Phoenix: Naive vs Lasagne vs AtoMig
# ---------------------------------------------------------------------------


def table6(jobs=None, profile=False):
    """Phoenix suite slowdowns for the three automated porters.

    ``jobs`` fans the per-(kernel, variant) port+run jobs across
    worker processes; the VM is deterministic per seed, so the ratios
    do not depend on it.
    """
    levels = ("naive", "lasagne", "atomig")
    tasks = []
    for kernel in PHOENIX_PAPER_NUMBERS:
        source = BENCHMARKS[f"phoenix_{kernel}"].perf_source()
        tasks.append(PortTask(
            name=kernel, source=source, run_seeds=PERF_SEEDS,
        ))
        tasks += [
            PortTask(
                name=kernel, source=source, level=level,
                run_seeds=PERF_SEEDS,
            )
            for level in levels
        ]
    outcomes = iter(run_batch(tasks, jobs=jobs))
    rows = []
    ratios = {level: [] for level in levels}
    for kernel, paper in PHOENIX_PAPER_NUMBERS.items():
        base_out = next(outcomes)
        base_cycles = _mean(base_out)
        row = {"benchmark": kernel,
               "paper_naive": paper[0],
               "paper_lasagne": paper[1],
               "paper_atomig": paper[2]}
        reports = []
        for level in levels:
            out = next(outcomes)
            reports.append(out.report)
            ratio = _mean(out) / base_cycles
            row[level] = ratio
            ratios[level].append(ratio)
        if profile:
            row["_stats"] = _merged_stats(*reports)
        rows.append(row)

    geomean_row = {"benchmark": "geometric mean",
                   "paper_naive": 1.39, "paper_lasagne": 1.73,
                   "paper_atomig": 1.01}
    for level_name, values in ratios.items():
        geomean_row[level_name] = math.exp(
            sum(math.log(v) for v in values) / len(values)
        )
    rows.append(geomean_row)
    return rows


# ---------------------------------------------------------------------------
# Table 9 — oracle-guided barrier weakening on the Table 2 corpus
# ---------------------------------------------------------------------------


TABLE9_BENCHMARKS = TABLE2_BENCHMARKS


def table9(benchmarks=TABLE9_BENCHMARKS, max_steps=2500,
           max_states=400_000, jobs=None, robustness=None):
    """Blanket-SC vs weakened barrier cost per benchmark (Table 9).

    Ports every benchmark with AtoMig (all atomized accesses SEQ_CST),
    then runs the oracle-guided optimizer (:mod:`repro.opt`) on the
    result.  Columns report the estimated barrier cost before and
    after weakening (shared :func:`repro.vm.costs.estimate_cost`
    model), how many accesses relaxed / fences disappeared / sites had
    to stay strong, how many model-checker calls certified it, and
    that the WMM verdict is preserved.  ``jobs`` fans the per-benchmark
    optimizer runs across worker processes.  The oracle's robustness
    fast path is on by default (``robustness=False`` forces every
    query to explore); either way the cost columns are identical —
    the fast path only answers queries it can prove.
    """
    robustness = True if robustness is None else robustness
    tasks = [
        OptimizeTask(
            name=name, source=BENCHMARKS[name].mc_source(),
            level="atomig", max_steps=max_steps, max_states=max_states,
            robustness=robustness,
        )
        for name in benchmarks
    ]
    reports = run_batch(tasks, jobs=jobs)
    rows = []
    for name, report in zip(benchmarks, reports):
        before = report["barrier_cost_before"]
        saved_pct = (
            100.0 * report["cycles_saved"] / before if before else 0.0
        )
        rows.append({
            "benchmark": name,
            "cost_sc": before,
            "cost_opt": report["barrier_cost_after"],
            "saved_pct": saved_pct,
            "weakened": report["accesses_weakened"],
            "fences_gone": report["fences_deleted"],
            "frozen": len(report["frozen"]),
            "checks": report["checks_run"],
            "verdict_kept": report["verdict_preserved"],
            "_report": report,
        })
    return rows


# ---------------------------------------------------------------------------
# Table 10 — static fence repair vs oracle weakening, per architecture
# ---------------------------------------------------------------------------


TABLE10_BENCHMARKS = TABLE9_BENCHMARKS

TABLE10_ARCHES = ("armv8", "power")


def table10(benchmarks=TABLE10_BENCHMARKS, arches=TABLE10_ARCHES,
            max_steps=2500, max_states=400_000, jobs=None):
    """Static repair vs oracle-guided weakening per architecture.

    Three ways to make each benchmark WMM-correct, costed under each
    architecture's weight table (:data:`repro.vm.costs.COST_MODELS`):

    - ``cost_sc`` — the robust blanket-SC baseline: the AtoMig port,
      plus its own min-cost repair completion when the port is not
      robust as-is (so the baseline carries the same guarantee);
    - ``cost_repair`` — bottom-up synthesis
      (:func:`repro.analysis.repair.resynthesize_ported`): relax every
      ported site, then statically repair to robustness — no model
      checking at all, ``cost_repair <= cost_sc`` by construction
      (the completed port is the synthesizer's incumbent);
    - ``cost_opt`` — the oracle-guided weakener seeded from the
      repaired module (``repair_seed=True``), which may weaken past
      robustness because the model checker proves more than the static
      criterion.

    ``jobs`` fans the benchmark × arch oracle runs across worker
    processes; the static columns are computed in-process (they take
    milliseconds).
    """
    from repro.analysis.repair import resynthesize_ported

    tasks = [
        OptimizeTask(
            name=name, source=BENCHMARKS[name].mc_source(),
            level="atomig", max_steps=max_steps, max_states=max_states,
            repair_seed=True, arch=arch,
        )
        for name in benchmarks for arch in arches
    ]
    reports = run_batch(tasks, jobs=jobs)
    rows = []
    for position, name in enumerate(benchmarks):
        ported, _report = port_module(
            compile_source(BENCHMARKS[name].mc_source(), name),
            PortingLevel.ATOMIG,
        )
        for offset, arch in enumerate(arches):
            opt = reports[position * len(arches) + offset]
            _repaired, repair = resynthesize_ported(
                ported, model="wmm", arch=arch, verify=True,
                max_steps=max_steps, max_states=max_states,
            )
            rows.append({
                "benchmark": name,
                "arch": arch,
                "cost_sc": repair.incumbent.get("barriers", 0),
                "cost_repair": repair.barrier_cost_after,
                "cost_opt": opt["barrier_cost_after"],
                "strengthened": repair.strengthened,
                "fences": repair.fences_added,
                "solver": repair.solver,
                "robust_after": repair.robust_after,
                "verdict_kept": opt["verdict_preserved"],
                "_repair": repair.to_dict(),
                "_opt": opt,
            })
    return rows


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def format_table(rows, columns=None, floatfmt="{:.2f}", title=None):
    """Render rows (list of dicts) as an aligned text table."""
    if not rows:
        return "(empty)"
    columns = columns or [
        key for key in rows[0]
        if not key.startswith("paper") and not key.startswith("_")
    ]

    def render(value):
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    table = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)
