"""JobDaemon: execution, dedup, priority, cancel, drain, failures."""

import pytest

from repro.api import (
    check_module,
    compile_source,
    optimize_module,
    port_module,
    repair_module,
)
from repro.bench.corpus import BENCHMARKS
from repro.core.config import PortingLevel
from repro.core.report import count_barriers
from repro.serve.queue import (
    JobDaemon,
    execute_payload,
    job_dedup_key,
    job_tasks,
)

BROKEN_SOURCE = "int main( {"

#: Keys that legitimately differ between two runs over identical input:
#: wall-clock timings.  Everything else in a report must be bit-for-bit.
TIMING_KEYS = ("porting_seconds", "stats", "build_seconds", "port_seconds")


def normalized(report_dict):
    return {k: v for k, v in report_dict.items() if k not in TIMING_KEYS}


# -- dedup key ---------------------------------------------------------------


def key(kind, payload):
    """The dedup key ``submit`` files a (kind, payload) job under."""
    return job_dedup_key(job_tasks(kind, payload))


def test_dedup_key_is_stable(port_payload):
    assert key("port", port_payload()) == key("port", port_payload())


def test_dedup_key_covers_kind_level_config_and_source(port_payload):
    base = key("port", port_payload())
    assert key("check", port_payload()) != base
    assert key("port", port_payload(level="naive")) != base
    assert key(
        "port", port_payload(config={"detect_polling_loops": True})
    ) != base
    changed = port_payload()
    changed["modules"][0]["source"] += "\n// touched\n"
    assert key("port", changed) != base
    # A check job runs its models in the order given.
    assert key("check", port_payload(models=["sc", "wmm"])) != key(
        "check", port_payload(models=["wmm", "sc"]))


def test_dedup_key_ignores_explicit_defaults(port_payload):
    """Payloads that name the same work share one key."""
    bare = port_payload()
    del bare["level"]
    assert key("port", bare) == key("port", port_payload(level="atomig"))
    assert key("check", port_payload()) == key(
        "check", port_payload(options={"robustness": True}, model="wmm"))
    # A config of defaults only is no config at all.
    assert key("optimize", port_payload()) == key(
        "optimize", port_payload(config={"alias_mode": "type_based"}))
    # ``model`` is not part of a port's work.
    assert key("port", port_payload()) == key("port",
                                              port_payload(model="tso"))


def test_resubmitting_explicit_defaults_is_a_cache_hit(daemon, port_payload):
    first = daemon.submit("check", port_payload())
    assert daemon.wait(first["id"], timeout=60)["state"] == "done"
    again = daemon.submit("check", port_payload(
        options={"robustness": True}))
    assert again["cache_hit"] is True
    assert again["cached_from"] == first["id"]
    bare = port_payload()
    del bare["level"]
    assert daemon.submit("check", bare)["cache_hit"] is True
    other = daemon.submit("check", port_payload(options={
        "robustness": False}))
    assert other["cache_hit"] is False


# -- execute_payload ---------------------------------------------------------


def test_execute_port_matches_one_shot_report(mp_source, port_payload):
    result = execute_payload("port", port_payload())
    assert result["kind"] == "port"
    row = result["modules"][0]

    module = compile_source(mp_source, "mp.c")
    _ported, report = port_module(module, PortingLevel.ATOMIG)
    assert normalized(row["report"]) == normalized(report.to_dict())
    assert row["barriers"] == [report.ported_explicit_barriers,
                               report.ported_implicit_barriers]


def test_execute_port_rejects_ir_modules():
    payload = {"modules": [{"name": "m", "source": "module m {}",
                            "is_ir": True}]}
    with pytest.raises(ValueError, match="Mini-C"):
        execute_payload("port", payload)


def test_execute_unknown_kind_and_empty_modules():
    with pytest.raises(ValueError, match="unknown job kind"):
        execute_payload("frobnicate", {"modules": [{"source": "x"}]})
    with pytest.raises(ValueError, match="no modules"):
        execute_payload("port", {"modules": []})


def test_execute_check_runs_models(port_payload):
    result = execute_payload(
        "check", port_payload(models=["sc", "wmm"],
                              options={"max_steps": 400})
    )
    outcomes = {(row["model"], row["outcome"])
                for row in result["checks"]}
    assert outcomes == {("sc", "ok"), ("wmm", "ok")}


def test_check_rows_carry_stats_objects(port_payload):
    result = execute_payload(
        "check", port_payload(models=["wmm"],
                              options={"max_steps": 400,
                                       "robustness": False})
    )
    (row,) = result["checks"]
    assert isinstance(row["stats"], dict), row
    assert row["stats"]["states_explored"] == row["states_explored"] > 0


def test_execute_rejects_unknown_options(port_payload):
    with pytest.raises(ValueError, match="unknown options"):
        execute_payload("port", port_payload(options={"bogus": 1}))


#: The two-module tree every job kind runs in the fanout test.
TREE = ("message_passing", "ck_spinlock_cas")


def _timeless(value):
    """``value`` with every wall-clock key dropped, at any depth."""
    if isinstance(value, dict):
        return {key: _timeless(item) for key, item in value.items()
                if key not in TIMING_KEYS + ("wall_seconds",)}
    if isinstance(value, list):
        return [_timeless(item) for item in value]
    return value


def _one_shot_row(kind, name):
    """The row a job of ``kind`` must report for ``name``, via repro.api."""
    module = compile_source(BENCHMARKS[name].mc_source(), name)
    ported, report = port_module(module, PortingLevel.ATOMIG)
    if kind == "port":
        return {"name": name, "level": "atomig",
                "report": report.to_dict(),
                "barriers": list(count_barriers(ported)), "ir": None}
    if kind == "check":
        result = check_module(ported, model="wmm", robustness=True)
        return {
            "name": name, "model": "wmm", "ok": result.ok,
            "outcome": result.outcome, "violation": result.violation,
            "deadlock": result.deadlock, "truncated": result.truncated,
            "states_explored": result.states_explored,
            "verdict_source": result.verdict_source,
            "notes": list(result.notes),
        }
    if kind == "optimize":
        _optimized, report = optimize_module(ported, model="wmm")
    else:
        _repaired, report = repair_module(ported, model="wmm")
    return {"name": name, "report": report.to_dict()}


@pytest.mark.parametrize("kind", ["port", "check", "optimize", "repair"])
def test_every_kind_fans_out_like_it_runs_serially(kind):
    payload = {
        "modules": [{"name": name, "source": BENCHMARKS[name].mc_source()}
                    for name in TREE],
        "level": "atomig",
    }
    key = "checks" if kind == "check" else "modules"
    runs = {}
    for fanout in (1, 2):
        events = []
        result = execute_payload(
            kind, payload, fanout=fanout,
            emit=lambda type_, **f: events.append((type_, f)),
        )
        done = [f["module"] for type_, f in events if type_ == "module_done"]
        assert done == list(TREE)  # one module_done per task
        runs[fanout] = _timeless(result[key])
    assert runs[1] == runs[2]
    assert runs[1] == [_timeless(_one_shot_row(kind, name)) for name in TREE]


def test_stage_events_name_the_module_they_port(mp_source):
    """A serial tree job tags each module's stages with its name."""
    payload = {"modules": [{"name": name, "source": mp_source}
                           for name in ("first.c", "second.c")]}
    events = []
    execute_payload("port", payload, fanout=1,
                    emit=lambda type_, **f: events.append((type_, f)))
    stages = [(f["module"], f["stage"]) for type_, f in events
              if type_ in ("stage_start", "stage_end")]
    modules = [module for module, _stage in stages]
    split = modules.index("second.c")
    assert set(modules[:split]) == {"first.c"}
    assert set(modules[split:]) == {"second.c"}
    assert [stage for module, stage in stages if module == "first.c"] == [
        stage for module, stage in stages if module == "second.c"]
    assert ("first.c", "atomize") in stages


def test_execute_emits_stage_events(port_payload):
    events = []
    execute_payload(
        "port", port_payload(),
        emit=lambda type_, **f: events.append((type_, f)),
    )
    types = [t for t, _f in events]
    assert types[0] == "job_start"
    assert "stage_start" in types and "stage_end" in types
    assert "port_done" in types
    assert types[-1] == "module_done"


# -- daemon ------------------------------------------------------------------


def test_daemon_runs_job_to_done(daemon, port_payload):
    record = daemon.submit("port", port_payload())
    final = daemon.wait(record["id"], timeout=60)
    assert final["state"] == "done"
    assert final["result"]["modules"][0]["report"]["level"] == "atomig"
    assert final["seconds"] > 0
    types = [event["type"] for event in final["events"]]
    assert "stage_start" in types and "port_done" in types


def test_daemon_dedup_is_an_instant_cache_hit(daemon, port_payload):
    first = daemon.submit("port", port_payload())
    done = daemon.wait(first["id"], timeout=60)
    assert done["state"] == "done"

    second = daemon.submit("port", port_payload())
    assert second["state"] == "done"
    assert second["cache_hit"] is True
    assert second["seconds"] == 0.0
    assert second["cached_from"] == first["id"]
    assert normalized(second["result"]["modules"][0]["report"]) == \
        normalized(done["result"]["modules"][0]["report"])
    assert daemon.counters["cache_hits"] == 1


def test_daemon_different_config_misses_the_cache(daemon, port_payload):
    first = daemon.submit("port", port_payload())
    daemon.wait(first["id"], timeout=60)
    other = daemon.submit("port", port_payload(level="naive"))
    assert other["cache_hit"] is False


def test_daemon_marks_broken_source_failed(daemon, port_payload):
    record = daemon.submit("port", port_payload(source=BROKEN_SOURCE))
    final = daemon.wait(record["id"], timeout=60)
    assert final["state"] == "failed"
    assert final["error"]
    assert any(event["type"] == "traceback" for event in final["events"])
    # A failed job must never satisfy a later identical submission.
    again = daemon.submit("port", port_payload(source=BROKEN_SOURCE))
    assert again["cache_hit"] is False


def test_daemon_rejects_bad_submissions(daemon, port_payload):
    with pytest.raises(ValueError, match="unknown job kind"):
        daemon.submit("frobnicate", port_payload())
    with pytest.raises(ValueError, match="no modules"):
        daemon.submit("port", {"modules": []})
    with pytest.raises(ValueError, match="unknown config knobs"):
        daemon.submit("port", port_payload(config={"warp_drive": 1}))


def test_non_integer_priority_is_rejected_before_storing(idle_daemon,
                                                         port_payload):
    for bad in (None, "5", 1.7, True, [1], {"a": 1}):
        with pytest.raises(ValueError, match="priority"):
            idle_daemon.submit("port", port_payload(), priority=bad)
    assert idle_daemon.store.list_jobs() == []
    assert idle_daemon.list_jobs() == []


def test_bad_option_values_are_rejected_before_storing(idle_daemon,
                                                       port_payload):
    for kind, field, value in (
        ("optimize", "max_states", "many"),
        ("optimize", "max_steps", 0),
        ("optimize", "arch", "x86"),
        ("optimize", "arch", None),
        ("optimize", "repair_seed", 1),
        ("optimize", "require_marks", "yes"),
        ("check", "max_steps", -5),
        ("check", "max_states", 2.5),
        ("check", "robustness", "no"),
        ("repair", "max_states", True),
        ("repair", "verify", "false"),
        ("port", "emit_ir", 1),
    ):
        payload = port_payload(options={field: value})
        with pytest.raises(ValueError, match=field):
            idle_daemon.submit(kind, payload)
    assert idle_daemon.store.list_jobs() == []
    assert idle_daemon.list_jobs() == []


def test_valid_option_values_keep_their_dedup_key(idle_daemon,
                                                  port_payload):
    """Checking values accepts every valid payload as it is."""
    options = {"max_steps": 400, "max_states": 5000, "robustness": True,
               "require_marks": False, "repair_seed": True,
               "arch": "power"}
    payload = port_payload(options=options)
    expected = key("optimize", port_payload(options=dict(options)))
    record = idle_daemon.submit("optimize", payload)
    assert record["dedup_key"] == expected
    assert payload["options"] == options


def test_bad_payload_fields_are_rejected_before_storing(idle_daemon,
                                                        port_payload):
    """Module fields and config knob values are checked at submit."""
    for kind, field, payload in (
        ("check", "is_ir", port_payload(is_ir="no")),
        ("check", "prune_protected",
         port_payload(config={"prune_protected": "no"})),
        ("check", "name", port_payload(name=5)),
        ("optimize", "alias_mode",
         port_payload(config={"alias_mode": "fancy"})),
        ("repair", "repair_arch", port_payload(config={"repair_arch": "x86"})),
        ("port", "repair_model", port_payload(config={"repair_model": "sc"})),
        ("port", "volatile_blacklist",
         port_payload(config={"volatile_blacklist": "flag"})),
        ("port", "incremental_verify",
         port_payload(config={"incremental_verify": False})),
        ("port", "analyze_annotations",
         port_payload(config={"analyze_annotations": True})),
        ("check", "source", port_payload(source=["int main() {}"])),
    ):
        if field == "is_ir":
            payload["modules"][0]["is_ir"] = payload.pop("is_ir")
        with pytest.raises(ValueError, match=field):
            idle_daemon.submit(kind, payload)
    assert idle_daemon.store.list_jobs() == []
    assert idle_daemon.list_jobs() == []


def test_config_knob_values_reach_the_spec(port_payload):
    (task,) = job_tasks("port", port_payload(config={
        "volatile_blacklist": ["flag"], "repair_arch": "power",
        "prune_protected": True,
    }))
    assert task.config.volatile_blacklist == ("flag",)
    assert task.config.repair_arch == "power"
    assert task.config.prune_protected is True


def test_priority_orders_the_queue(idle_daemon, port_payload):
    low = idle_daemon.submit("port", port_payload(), priority=0)
    high = idle_daemon.submit("port", port_payload(level="naive"),
                              priority=10)
    mid = idle_daemon.submit("port", port_payload(level="spin"),
                             priority=5)
    with idle_daemon._cond:
        order = [idle_daemon._next_job()["id"] for _ in range(3)]
    assert order == [high["id"], mid["id"], low["id"]]


def test_cancel_only_touches_queued_jobs(idle_daemon, port_payload):
    record = idle_daemon.submit("port", port_payload())
    cancelled = idle_daemon.cancel(record["id"])
    assert cancelled["state"] == "cancelled"
    assert idle_daemon.store.load(record["id"])["state"] == "cancelled"
    assert idle_daemon.cancel("no-such-job") is None
    # Terminal jobs are returned as-is, not re-cancelled.
    assert idle_daemon.cancel(record["id"])["state"] == "cancelled"


def test_delete_refuses_non_terminal(idle_daemon, port_payload):
    record = idle_daemon.submit("port", port_payload())
    assert idle_daemon.delete(record["id"]) is False  # still queued
    idle_daemon.cancel(record["id"])
    assert idle_daemon.delete(record["id"]) is True
    assert idle_daemon.get(record["id"]) is None


def test_drain_persists_queued_jobs(store, port_payload):
    daemon = JobDaemon(store, workers=0)
    daemon.start()
    record = daemon.submit("port", port_payload())
    daemon.shutdown(drain=True)
    assert store.load(record["id"])["state"] == "queued"
    with pytest.raises(RuntimeError, match="shutting down"):
        daemon.submit("port", port_payload())


def test_stats_shape(daemon, port_payload):
    record = daemon.submit("port", port_payload())
    daemon.wait(record["id"], timeout=60)
    stats = daemon.stats()
    assert stats["queue_depth"] == 0
    assert stats["states"].get("done") == 1
    assert stats["counters"]["submitted"] == 1
    assert 0.0 <= stats["cache_hit_rate"] <= 1.0
    assert stats["workers"] == 1
    assert not stats["draining"]
