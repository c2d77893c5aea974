"""One job preamble: every entry point reads (source, level, config) alike.

:func:`repro.api.load_module` is the one place that turns a job's level
and ``AtoMigConfig`` into the module it runs on, and
:meth:`AtoMigConfig.for_level` applies the level's ablations on top of
any given config.  These tests pin the two properties that follow:

- an explicit config holding only defaults is the same as no config,
  at every level (so no config turns Expl or Spin into full AtoMig);
- the CLI, the serve daemon's ``execute_payload`` and the task specs
  give identical results for the same (source, level, config) — in
  particular ``repair_mode`` at level ``original`` repairs everywhere;
- a repair job repairs once: ``repair_mode`` does not run the
  pipeline's repair stage before the job's own synthesis.
"""

import json

import pytest

from repro.api import compile_source, load_module, port_module
from repro.bench.corpus import BENCHMARKS
from repro.bench.tables import TABLE2_BENCHMARKS
from repro.cli import main
from repro.core.config import AtoMigConfig, PortingLevel
from repro.ir.printer import print_module
from repro.mc.parallel import CheckTask
from repro.opt.parallel import OptimizeTask, RepairTask
from repro.serve.queue import execute_payload

LEVELS = ("original", "expl", "spin", "atomig")
#: name -> (task-spec config, serve config dict, extra CLI flags).  The
#: CLI always builds a config from its flags, so "none" and "default"
#: share its invocation; serve's default config names one knob at its
#: default value, since an empty dict means no config at all.
CONFIGS = {
    "none": (None, None, []),
    "default": (AtoMigConfig(), {"alias_mode": "type_based"}, []),
    "repair": (AtoMigConfig(repair_mode=True), {"repair_mode": True},
               ["--repair"]),
}
TIMING = ("wall_seconds", "states_per_second", "porting_seconds", "stats")


def _strip(value):
    """JSON-clean ``value`` without timing keys, at any depth."""
    value = json.loads(json.dumps(value))

    def walk(node):
        if isinstance(node, dict):
            return {key: walk(item) for key, item in node.items()
                    if key not in TIMING}
        if isinstance(node, list):
            return [walk(item) for item in node]
        return node

    return walk(value)


@pytest.mark.parametrize("level", list(PortingLevel),
                         ids=lambda level: level.value)
def test_default_config_equals_no_config(level):
    for name in TABLE2_BENCHMARKS:
        module = compile_source(BENCHMARKS[name].mc_source(), name)
        bare, bare_report = port_module(module, level)
        given, given_report = port_module(module, level,
                                          config=AtoMigConfig())
        assert print_module(given) == print_module(bare), (name, level)
        assert _strip(given_report.to_dict()) == _strip(
            bare_report.to_dict()), (name, level)


def test_original_level_keeps_the_compiled_module():
    source = BENCHMARKS["message_passing"].mc_source()
    compiled = compile_source(source, "mp")
    for level in (None, "original", PortingLevel.ORIGINAL):
        module = load_module(source, "mp", level=level,
                             config=AtoMigConfig())
        assert module.name == "mp"
        assert print_module(module) == print_module(compiled)
    repaired = load_module(source, "mp", level="original",
                           config=AtoMigConfig(repair_mode=True))
    assert repaired.metadata["porting_report"].repair["robust_after"]
    assert print_module(repaired) != print_module(compiled)


@pytest.fixture(scope="module")
def seq_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("preamble") / "seq.c"
    path.write_text(BENCHMARKS["ck_sequence"].mc_source())
    return str(path)


def _cli(capsys, argv):
    main(argv)
    return json.loads(capsys.readouterr().out)


def _three_ways(capsys, path, kind, level, config_name):
    """The (CLI, serve, task spec) results of one job, timing stripped."""
    with open(path) as handle:
        source = handle.read()
    config, knobs, flags = CONFIGS[config_name]
    payload = {"modules": [{"name": path, "source": source}],
               "level": level}
    if knobs is not None:
        payload["config"] = knobs
    served = execute_payload(kind, payload)
    if kind == "check":
        cli = _cli(capsys, ["check", path, "--models", "wmm", "--level",
                            level, "--json", *flags])[0]
        row = dict(served["checks"][0])
        del row["name"]
        task = CheckTask(name=path, source=source, level=level,
                         config=config, robustness=True).run().to_dict()
        return _strip(cli), _strip(row), _strip(task)
    spec = OptimizeTask if kind == "optimize" else RepairTask
    cli = _cli(capsys, [kind, path, "--level", level, "--json", *flags])
    task = spec(name=path, source=source, level=level,
                config=config).run()
    return (_strip(cli), _strip(served["modules"][0]["report"]),
            _strip(task))


@pytest.mark.parametrize("kind", ["check", "optimize", "repair"])
@pytest.mark.parametrize("level", LEVELS)
def test_cli_serve_and_spec_agree(capsys, seq_file, kind, level):
    results = {}
    for config_name in CONFIGS:
        cli, served, task = _three_ways(capsys, seq_file, kind, level,
                                        config_name)
        assert cli == served == task, (kind, level, config_name)
        results[config_name] = cli
    # A config that holds only defaults keeps the level's ablations.
    assert results["default"] == results["none"], (kind, level)


@pytest.mark.parametrize("level", LEVELS)
def test_repair_mode_makes_every_level_statically_robust(capsys, seq_file,
                                                         level):
    cli, served, task = _three_ways(capsys, seq_file, "check", level,
                                    "repair")
    for row in (cli, served, task):
        assert row["outcome"] == "ok", level
        assert row["verdict_source"] == "robustness", level


def test_spin_level_keeps_the_papers_table2_verdict(capsys, seq_file):
    """ck_sequence fails at Spin (paper Table 2) whatever config comes
    along: the CLI with and without a config flag, serve with and
    without a config that holds only a default value."""
    rows = [
        _cli(capsys, ["check", seq_file, "--level", "spin", "--models",
                      "wmm", "--no-robustness", "--json", *flags])[0]
        for flags in ([], ["--prune-protected"])
    ]
    with open(seq_file) as handle:
        source = handle.read()
    for knobs in (None, {"alias_mode": "type_based"}):
        payload = {"modules": [{"name": seq_file, "source": source}],
                   "level": "spin", "options": {"robustness": False}}
        if knobs is not None:
            payload["config"] = knobs
        rows.append(execute_payload("check", payload)["checks"][0])
    for row in rows:
        assert (row["outcome"], row["states_explored"]) == ("violation", 21)


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
int main() {
    int t = thread_create(worker);
    worker();
    thread_join(t);
    return counter;
}
"""


def test_repair_task_repairs_once():
    """With ``repair_mode`` the pipeline's repair stage would repair the
    module under wmm/armv8 before the job's power-weighted synthesis
    ran, leaving it nothing to repair."""
    plain, flagged = (
        _strip(RepairTask(name="tas", source=TAS, level="original",
                          config=config, arch="power").run())
        for config in (None, AtoMigConfig(repair_mode=True))
    )
    assert plain["rounds"] and plain["strengthened"] > 0
    assert flagged == plain
    payload = {"modules": [{"name": "tas", "source": TAS}],
               "level": "original", "config": {"repair_mode": True},
               "options": {"arch": "power"}}
    served = execute_payload("repair", payload)["modules"][0]["report"]
    assert _strip(served) == plain
