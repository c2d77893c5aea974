"""The HTTP API end-to-end: routes, streaming, dedup over the wire."""

import json
import urllib.request

import pytest

from repro.serve import ServeClient, ServeError, start_service


@pytest.fixture
def service(tmp_path):
    handle = start_service(job_dir=str(tmp_path / "jobs"), workers=1)
    yield handle
    handle.stop(drain=True)


@pytest.fixture
def client(service):
    return ServeClient(service.url, timeout=30)


def submit_port(client, mp_source, **kwargs):
    return client.submit(
        "port", [{"name": "mp.c", "source": mp_source}],
        level="atomig", **kwargs,
    )


def test_healthz(client):
    payload = client.healthz()
    assert payload["ok"] is True
    assert payload["draining"] is False


def test_submit_poll_result_roundtrip(client, mp_source):
    record = submit_port(client, mp_source)
    assert record["state"] in ("queued", "running", "done")
    assert record["has_result"] in (False, True)

    final = client.result(record["id"], wait=True, timeout=60)
    assert final["state"] == "done"
    report = final["result"]["modules"][0]["report"]
    assert report["level"] == "atomig"
    assert report["ported_implicit_barriers"] >= 1

    status = client.status(record["id"])
    assert status["state"] == "done"
    assert status["has_result"] is True
    assert "result" not in status  # the result only ships via /result


def test_result_before_done_is_202(service, client, mp_source):
    # workers=0 keeps the job queued forever: /result must answer 202.
    idle = start_service(job_dir=service.daemon.store.directory + "-idle",
                         workers=0)
    try:
        idle_client = ServeClient(idle.url, timeout=10)
        record = submit_port(idle_client, mp_source)
        status, payload = idle_client.request(
            "GET", f"/jobs/{record['id']}/result"
        )
        assert status == 202
        assert payload["state"] == "queued"
        assert "result" not in payload
    finally:
        idle.stop(drain=True)


def test_events_stream_carries_pipeline_stages(client, mp_source):
    record = submit_port(client, mp_source)
    client.result(record["id"], wait=True, timeout=60)
    events = list(client.events(record["id"], follow=False))
    types = [event["type"] for event in events]
    assert "stage_start" in types and "stage_end" in types
    assert "port_done" in types
    assert types[-1] == "state"  # terminal transition closes the stream
    stages = {event["stage"] for event in events
              if event["type"] == "stage_end"}
    assert "atomize" in stages


def test_events_follow_streams_ndjson(service, client, mp_source):
    record = submit_port(client, mp_source)
    with urllib.request.urlopen(
        f"{service.url}/jobs/{record['id']}/events", timeout=30
    ) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in response if line.strip()]
    assert lines, "follow stream produced no events"
    assert lines[-1]["type"] == "state"
    assert lines[-1]["state"] in ("done", "failed")


def test_dedup_over_http(client, mp_source):
    first = submit_port(client, mp_source)
    client.result(first["id"], wait=True, timeout=60)
    second = submit_port(client, mp_source)
    assert second["state"] == "done"
    assert second["cache_hit"] is True
    assert second["seconds"] == 0.0
    stats = client.stats()
    assert stats["counters"]["cache_hits"] == 1


def test_inline_single_module_submission(client, mp_source):
    status, payload = client.request("POST", "/jobs", body={
        "kind": "port", "name": "inline.c", "source": mp_source,
    })
    assert status == 201
    final = client.result(payload["id"], wait=True, timeout=60)
    assert final["result"]["modules"][0]["name"] == "inline.c"


def test_bad_requests_are_400(client):
    status, payload = client.request("POST", "/jobs", body={
        "kind": "frobnicate", "modules": [{"source": "x"}],
    })
    assert status == 400 and "unknown job kind" in payload["error"]
    status, payload = client.request("POST", "/jobs", body={
        "kind": "port", "modules": [],
    })
    assert status == 400
    status, payload = client.request("POST", "/jobs", body={
        "kind": "port", "modules": [{"name": "m", "source": "int x;"}],
        "config": {"warp_drive": 1},
    })
    assert status == 400 and "warp_drive" in payload["error"]
    module = {"name": "m", "source": "int x;"}
    for kind, field, bad in (
        ("port", "bogus", {"options": {"bogus": 1}}),
        ("port", "level", {"level": "bogus"}),
        ("optimize", "model", {"model": "arm"}),
        ("check", "models", {"models": ["arm"]}),
        ("check", "models", {"models": "wmm"}),
    ):
        status, payload = client.request("POST", "/jobs", body={
            "kind": kind, "modules": [module], **bad,
        })
        assert status == 400 and field in payload["error"], (bad, payload)
    # Rejected at the door: nothing was queued to fail later.
    assert client.jobs() == []


def test_unknown_routes_and_jobs_are_404(client):
    status, _payload = client.request("GET", "/jobs/nope")
    assert status == 404
    status, _payload = client.request("GET", "/frobnicate")
    assert status == 404
    status, _payload = client.request("POST", "/frobnicate", body={})
    assert status == 404
    with pytest.raises(ServeError) as excinfo:
        client.delete("nope")
    assert excinfo.value.status == 404


def test_delete_cancels_queued_and_drops_terminal(tmp_path, mp_source):
    idle = start_service(job_dir=str(tmp_path / "idle-jobs"), workers=0)
    try:
        idle_client = ServeClient(idle.url, timeout=10)
        record = submit_port(idle_client, mp_source)
        cancelled = idle_client.delete(record["id"])
        assert cancelled["state"] == "cancelled"
        dropped = idle_client.delete(record["id"])
        assert dropped == {"id": record["id"], "deleted": True}
        status, _payload = idle_client.request(
            "GET", f"/jobs/{record['id']}"
        )
        assert status == 404
    finally:
        idle.stop(drain=True)


def test_jobs_listing(client, mp_source):
    record = submit_port(client, mp_source)
    client.result(record["id"], wait=True, timeout=60)
    jobs = client.jobs()
    assert [job["id"] for job in jobs] == [record["id"]]
    assert jobs[0]["state"] == "done"


def test_stats_exposes_queue_and_workers(client, mp_source):
    record = submit_port(client, mp_source)
    client.result(record["id"], wait=True, timeout=60)
    stats = client.stats()
    assert stats["workers"] == 1
    assert stats["queue_depth"] == 0
    assert stats["uptime_seconds"] >= 0.0
    assert stats["counters"]["completed"] == 1
