"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

MP = """
int flag = 0;
int msg = 0;
void writer() { msg = 42; flag = 1; }
int main() {
    int t = thread_create(writer);
    while (flag != 1) { }
    assert(msg == 42);
    thread_join(t);
    return 0;
}
"""

TAS = """
int lock_word = 0;
volatile int counter = 0;

void lock() {
    while (atomic_cmpxchg_explicit(&lock_word, 0, 1, memory_order_relaxed) != 0) {
        cpu_relax();
    }
}
void unlock() { lock_word = 0; }
void worker() { lock(); counter = counter + 1; unlock(); }
void thread_fn() { worker(); }
int main() {
    int t = thread_create(thread_fn);
    worker();
    thread_join(t);
    return counter;
}
"""


@pytest.fixture
def mp_file(tmp_path):
    path = tmp_path / "mp.c"
    path.write_text(MP)
    return str(path)


@pytest.fixture
def tas_file(tmp_path):
    path = tmp_path / "tas.c"
    path.write_text(TAS)
    return str(path)


def test_port_command(mp_file, capsys):
    assert main(["port", mp_file]) == 0
    out = capsys.readouterr().out
    assert "1 spinloops" in out
    assert "atomig" in out


def test_port_emit_ir_to_file(mp_file, tmp_path, capsys):
    out_path = tmp_path / "ported.ir"
    assert main(["port", mp_file, "--emit-ir", "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert "atomic(seq_cst)" in text


def test_check_command_finds_wmm_bug(mp_file, capsys):
    code = main(["check", mp_file, "--models", "tso", "wmm",
                 "--level", "original", "--max-steps", "400"])
    assert code == 1
    out = capsys.readouterr().out
    assert "tso: ok" in out
    assert "VIOLATION" in out


def test_check_command_ported_is_clean(mp_file, capsys):
    code = main(["check", mp_file, "--models", "wmm",
                 "--max-steps", "400"])
    assert code == 0
    assert "wmm: ok" in capsys.readouterr().out


def test_check_trace_printed(mp_file, capsys):
    main(["check", mp_file, "--models", "wmm", "--level", "original",
          "--trace", "3", "--max-steps", "400"])
    out = capsys.readouterr().out
    assert "commit" in out  # schedule steps shown


def test_run_command(mp_file, capsys):
    assert main(["run", mp_file]) == 0
    out = capsys.readouterr().out
    assert "exit value: 0" in out
    assert "cycles:" in out


def test_run_with_ablation_flags(mp_file, capsys):
    assert main(["run", mp_file, "--no-inline", "--level", "atomig"]) == 0


def test_lint_command_reports_races(mp_file, capsys):
    assert main(["lint", mp_file]) == 0
    out = capsys.readouterr().out
    assert "racy" in out
    assert "unordered concurrent access" in out


def test_lint_fail_on_racy(mp_file, tas_file):
    assert main(["lint", mp_file, "--fail-on-racy"]) == 1
    assert main(["lint", tas_file, "--fail-on-racy"]) == 0


def test_lint_classifies_protected(tas_file, capsys):
    assert main(["lint", tas_file]) == 0
    out = capsys.readouterr().out
    assert "[lock]" in out
    assert "[protected]" in out
    assert "@lock_word" in out


def test_lint_json_output(tas_file, capsys):
    from repro.core.report import LINT_SCHEMA_VERSION

    assert main(["lint", tas_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == LINT_SCHEMA_VERSION
    assert payload["counts"]["protected"] >= 2
    assert any(
        lock["key"] == ["global", "lock_word"] and not lock["heuristic"]
        for lock in payload["locks"]
    )
    assert all(
        {"function", "class", "remediation"} <= set(f)
        for f in payload["findings"]
    )


def test_lint_no_name_heuristic(tas_file, capsys):
    assert main(["lint", tas_file, "--no-name-heuristic"]) == 0
    out = capsys.readouterr().out
    assert "name heuristic" not in out


def test_lint_requires_file_or_corpus(capsys):
    assert main(["lint"]) == 2


def test_port_with_prune_protected(tas_file, capsys):
    assert main(["port", tas_file, "--prune-protected"]) == 0
    out = capsys.readouterr().out
    assert "lock-protected accesses pruned:" in out


INDIRECT = """
int flag = 0;
int msg = 0;
void publish(int *f, int *m, int depth) {
    if (depth > 0) { publish(f, m, depth - 1); return; }
    *m = 42;
    *f = 1;
}
void writer() { publish(&flag, &msg, 1); }
int main() {
    int t = thread_create(writer);
    while (flag != 1) { }
    assert(msg == 42);
    thread_join(t);
    return 0;
}
"""


@pytest.fixture
def indirect_file(tmp_path):
    path = tmp_path / "indirect.c"
    path.write_text(INDIRECT)
    return str(path)


def test_aliases_command(indirect_file, capsys):
    assert main(["aliases", indirect_file]) == 0
    out = capsys.readouterr().out
    assert "abstract objects" in out
    assert "@flag" in out
    assert "shared" in out
    assert "pts_global" in out


def test_aliases_type_based_mode(indirect_file, capsys):
    assert main(["aliases", indirect_file,
                 "--alias-mode", "type_based"]) == 0
    out = capsys.readouterr().out
    assert "[type_based]" in out
    assert "pts_global" not in out


def test_port_alias_mode_changes_barriers(indirect_file, capsys):
    assert main(["port", indirect_file]) == 0
    tb_out = capsys.readouterr().out
    assert main(["port", indirect_file, "--alias-mode", "points_to"]) == 0
    pt_out = capsys.readouterr().out

    def barriers(out):
        for line in out.splitlines():
            if "barriers" in line:
                return line
        raise AssertionError("no barrier line")

    assert barriers(tb_out) != barriers(pt_out)


def test_litmus_command(capsys):
    assert main(["litmus", "SB"]) == 0
    out = capsys.readouterr().out
    assert "sc=ok" in out and "tso=bug" in out
    assert "MISMATCH" not in out


def test_litmus_unknown_name(capsys):
    assert main(["litmus", "NOPE"]) == 2


def test_tables_command_table1(capsys):
    assert main(["tables", "1"]) == 0
    out = capsys.readouterr().out
    assert "AtoMig" in out and "Naive" in out


def test_tables_unknown_number(capsys):
    assert main(["tables", "42"]) == 2


def test_optimize_command(tas_file, capsys):
    assert main(["optimize", tas_file]) == 0
    out = capsys.readouterr().out
    assert "accesses weakened" in out
    assert "verdict ok" in out
    assert "NOT PRESERVED" not in out


def test_optimize_json_output(tas_file, capsys):
    assert main(["optimize", tas_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict_preserved"]
    assert payload["barrier_cost_after"] <= payload["barrier_cost_before"]
    assert payload["checks_run"] >= 1


def test_optimize_emit_ir(tas_file, tmp_path, capsys):
    out_path = tmp_path / "optimized.ir"
    assert main(["optimize", tas_file, "--emit-ir", "-o",
                 str(out_path)]) == 0
    from repro.ir.parser import parse_module

    module = parse_module(out_path.read_text())
    orders = {
        instr.order.name.lower()
        for instr in module.instructions()
        if getattr(instr, "order", None) is not None
    }
    assert "relaxed" in orders or "release" in orders


def test_port_optimize_flag(tas_file, capsys):
    assert main(["port", tas_file, "--optimize"]) == 0
    out = capsys.readouterr().out
    assert "optimize:" in out
    assert "barrier cost" in out


def test_tables_9_runs(capsys):
    from repro.bench import tables as T

    rows = T.table9(benchmarks=("ck_spinlock_cas",))
    assert rows[0]["verdict_kept"]
    assert rows[0]["cost_opt"] < rows[0]["cost_sc"]


def test_repair_command_fixes_unported_spinlock(tas_file, capsys):
    # At level original the TAS spinlock is non-robust under the WMM;
    # the repair must synthesize order back and exit 0.
    assert main(["repair", tas_file, "--level", "original"]) == 0
    out = capsys.readouterr().out
    assert "non-robust" in out or "robust" in out
    assert "NON-ROBUST after repair" not in out


def test_repair_json_output_with_verify(tas_file, capsys):
    assert main(["repair", tas_file, "--level", "original", "--json",
                 "--verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["robust_after"]
    assert payload["rounds"], "no repair rounds on a non-robust input"
    assert payload["verify"]["verdict_source"] == "robustness"
    assert payload["verify"]["states"] == 0
    assert payload["cost_after"]["barriers"] >= \
        payload["cost_before"]["barriers"]


def test_repair_emit_ir_round_trips(tas_file, tmp_path, capsys):
    out_path = tmp_path / "repaired.ir"
    assert main(["repair", tas_file, "--level", "original", "--emit-ir",
                 "-o", str(out_path)]) == 0
    from repro.analysis.robustness import analyze_robustness
    from repro.ir.parser import parse_module

    module = parse_module(out_path.read_text())
    assert analyze_robustness(module, model="wmm").robust


def test_repair_requires_file_or_corpus(capsys):
    assert main(["repair"]) == 2
    captured = capsys.readouterr()
    # Diagnostics go to stderr so --json pipelines stay parseable.
    assert "FILE is required" in captured.err
    assert captured.out == ""


def test_repair_power_arch_reported(tas_file, capsys):
    assert main(["repair", tas_file, "--level", "original", "--arch",
                 "power", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["arch"] == "power"


def test_port_repair_flag_prints_summary(tas_file, capsys):
    assert main(["port", tas_file, "--level", "original",
                 "--repair"]) == 0
    out = capsys.readouterr().out
    assert "repair [wmm/armv8]:" in out


def test_check_repair_flag_keeps_verdict(mp_file, capsys):
    assert main(["check", mp_file, "--models", "wmm", "--repair"]) == 0
    out = capsys.readouterr().out
    assert "violation" not in out


def test_port_json_output(mp_file, capsys):
    assert main(["port", mp_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == "atomig"
    assert payload["ported_implicit_barriers"] >= 1
    assert "stats" in payload


def test_port_json_emit_ir_without_output_warns(mp_file, capsys):
    assert main(["port", mp_file, "--json", "--emit-ir"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout is still exactly one document
    assert "--emit-ir needs -o" in captured.err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_check_json_output(mp_file, capsys, jobs):
    argv = ["check", mp_file, "--models", "tso", "wmm", "--level",
            "original", "--max-steps", "400", "--json", "--jobs"]
    code = main(argv + [jobs])
    assert code == 1  # the wmm violation still drives the exit code
    rows = json.loads(capsys.readouterr().out)
    by_model = {row["model"]: row for row in rows}
    assert by_model["tso"]["ok"]
    assert by_model["wmm"]["violation"] is not None
    # Worker processes change where the checks run, not what they find.
    assert main(argv + ["1"]) == code
    serial = json.loads(capsys.readouterr().out)

    def without_stats(rows):
        return [{k: v for k, v in row.items() if k != "stats"}
                for row in rows]

    assert without_stats(rows) == without_stats(serial)


def test_litmus_unknown_name_diagnoses_on_stderr(capsys):
    assert main(["litmus", "NOPE"]) == 2
    captured = capsys.readouterr()
    assert "unknown litmus test" in captured.err
    assert captured.out == ""


def test_status_unreachable_daemon_exits_3(capsys):
    code = main(["status", "--url", "http://127.0.0.1:9",
                 "--timeout", "2"])
    assert code == 3
    assert "cannot reach" in capsys.readouterr().err


def test_robustness_corpus_json(capsys):
    from repro.analysis.robustness import ROBUSTNESS_SCHEMA_VERSION

    assert main(["robustness", "--corpus", "--json"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert payloads, "corpus produced no JSON payloads"
    names = {p["benchmark"] for p in payloads}
    assert len(names) > 10
    for payload in payloads:
        assert payload["schema_version"] == ROBUSTNESS_SCHEMA_VERSION == 4
        assert payload["level"] in ("original", "atomig")
        assert {"robust", "model", "witnesses"} <= set(payload)
