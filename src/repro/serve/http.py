"""Stdlib-only HTTP API for the job daemon (no new dependencies).

Routes, all JSON unless noted:

- ``POST /jobs`` — submit a job.  Body: ``{"kind": "port"|"check"|
  "optimize"|"repair", "modules": [{"name", "source", "is_ir"?}],
  "level"?, "model"?/"models"?, "options"?, "config"?, "priority"?}``.
  A single module may also be given inline as top-level ``name``/
  ``source``.  Returns ``201`` with the job record (sans result);
  an identical earlier submission returns instantly with
  ``cache_hit: true``.
- ``GET /jobs`` — job summaries, oldest first.
- ``GET /jobs/<id>`` — one record (sans result; ``has_result`` says
  whether ``/result`` will answer).
- ``GET /jobs/<id>/result`` — ``200`` with the full record including
  ``result`` once terminal, ``202`` with the pending record before.
- ``GET /jobs/<id>/events`` — NDJSON progress stream wired off the
  pipeline's stage boundaries; follows until the job is terminal
  (``?follow=0`` dumps the buffer and closes).
- ``DELETE /jobs/<id>`` — cancel a queued job / delete a terminal one.
- ``GET /healthz`` — liveness + state histogram.
- ``GET /stats`` — queue depth, cache-hit rate, worker busy time.
"""

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

MAX_BODY_BYTES = 32 * 1024 * 1024


class ServeHandler(BaseHTTPRequestHandler):
    """One request; the daemon hangs off the server instance."""

    server_version = "atomig-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def daemon(self):
        return self.server.job_daemon

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            sys.stderr.write(
                f"serve: {self.address_string()} {format % args}\n"
            )

    # -- verbs -------------------------------------------------------------

    def do_POST(self):  # noqa: N802 - stdlib casing
        path = urlparse(self.path).path.rstrip("/")
        if path != "/jobs":
            return self._json(404, {"error": f"no such route {path!r}"})
        try:
            body = self._read_body()
            record = self.daemon.submit(
                body["kind"], body["payload"],
                priority=body.get("priority", 0),
            )
        except (ValueError, KeyError) as exc:
            return self._json(400, {"error": str(exc)})
        except RuntimeError as exc:  # shutting down
            return self._json(503, {"error": str(exc)})
        return self._json(201, _public(record))

    def do_GET(self):  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/")
        if path == "/healthz":
            stats = self.daemon.stats()
            return self._json(200, {
                "ok": True,
                "draining": stats["draining"],
                "states": stats["states"],
            })
        if path == "/stats":
            return self._json(200, self.daemon.stats())
        if path == "/jobs":
            return self._json(200, {"jobs": self.daemon.list_jobs()})
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            record = self.daemon.get(job_id)
            if record is None:
                return self._json(404, {"error": f"no job {job_id!r}"})
            if len(parts) == 2:
                return self._json(200, _public(record))
            if parts[2] == "result":
                from repro.serve.store import TERMINAL_STATES

                status = 200 if record["state"] in TERMINAL_STATES else 202
                payload = _public(record)
                if status == 200:
                    payload["result"] = record.get("result")
                return self._json(status, payload)
            if parts[2] == "events":
                query = parse_qs(parsed.query)
                follow = query.get("follow", ["1"])[0] not in ("0", "false")
                return self._stream_events(job_id, follow)
        return self._json(404, {"error": f"no such route {path!r}"})

    def do_DELETE(self):  # noqa: N802 - stdlib casing
        path = urlparse(self.path).path.rstrip("/")
        parts = path.strip("/").split("/")
        if len(parts) != 2 or parts[0] != "jobs":
            return self._json(404, {"error": f"no such route {path!r}"})
        job_id = parts[1]
        record = self.daemon.get(job_id)
        if record is None:
            return self._json(404, {"error": f"no job {job_id!r}"})
        if record["state"] == "queued":
            cancelled = self.daemon.cancel(job_id)
            return self._json(200, _public(cancelled or record))
        if record["state"] == "running":
            return self._json(409, {
                "error": "job is running and cannot be interrupted",
                "id": job_id, "state": "running",
            })
        self.daemon.delete(job_id)
        return self._json(200, {"id": job_id, "deleted": True})

    # -- plumbing ----------------------------------------------------------

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required")
        if length > MAX_BODY_BYTES:
            raise ValueError("request body too large")
        try:
            body = json.loads(self.rfile.read(length))
        except ValueError:
            raise ValueError("request body is not valid JSON")
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        kind = body.get("kind")
        modules = body.get("modules")
        if modules is None and body.get("source"):
            modules = [{
                "name": body.get("name") or "module",
                "source": body["source"],
                "is_ir": body.get("is_ir", False),
            }]
        payload = {"modules": modules or []}
        for key in ("level", "model", "models", "options", "config"):
            if key in body:
                payload[key] = body[key]
        return {
            "kind": kind,
            "payload": payload,
            "priority": body.get("priority", 0),
        }

    def _json(self, status, payload):
        blob = json.dumps(payload, default=repr).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _stream_events(self, job_id, follow):
        """NDJSON event stream; closes when the job is terminal."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        # Stream length is unknown: close the connection to end it.
        self.send_header("Connection", "close")
        self.end_headers()
        index = 0
        while True:
            events, terminal = self.daemon.events_since(job_id, index)
            if events is None:
                break
            for event in events:
                self.wfile.write(
                    json.dumps(event, default=repr).encode() + b"\n"
                )
            index += len(events)
            self.wfile.flush()
            if terminal or not follow:
                break
            self.daemon.wait_events(timeout=0.5)
        self.close_connection = True


def _public(record):
    """A record as served over HTTP: result elided, presence flagged."""
    public = {
        key: value for key, value in record.items() if key != "result"
    }
    public["has_result"] = record.get("result") is not None
    return public


def make_server(daemon, host="127.0.0.1", port=0, verbose=False):
    """A :class:`ThreadingHTTPServer` bound to ``daemon``.

    ``port=0`` binds an ephemeral port; read the final address off
    ``server.server_address``.  The caller owns the accept loop
    (``serve_forever``) and shutdown ordering.
    """
    server = ThreadingHTTPServer((host, port), ServeHandler)
    server.job_daemon = daemon
    server.verbose = verbose
    server.daemon_threads = True
    return server
