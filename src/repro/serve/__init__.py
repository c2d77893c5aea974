"""Porting-as-a-service: a long-lived job daemon over the pipeline.

The one-shot CLI re-parses, re-ports and re-verifies from scratch on
every invocation.  This package turns the same machinery into a
persistent service:

- :mod:`repro.serve.store` — a durable on-disk job store (one JSON
  record per job under ``ATOMIG_JOB_DIR``, atomic writes) whose
  ``queued``/``running`` jobs survive a daemon restart;
- :mod:`repro.serve.queue` — a priority job queue whose workers run
  each job as the task specs the batch harnesses use, through
  :func:`repro.core.workers.run_batch` (fanned out over its persistent
  pools with ``fanout > 1``); one reader turns a payload into those
  specs, checking every value it reads, and dedup is content-addressed
  on the specs' fingerprint (sources through the blake2b modcache
  key);
- :mod:`repro.serve.http` — a stdlib-only REST-ish HTTP API
  (``POST /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/result``,
  streaming ``GET /jobs/<id>/events``, ``DELETE /jobs/<id>``,
  ``GET /healthz``, ``GET /stats``);
- :mod:`repro.serve.client` — the urllib client behind
  ``atomig submit`` / ``status`` / ``result``.

:func:`start_service` wires the three together in-process and is what
``atomig serve`` and the tests use.
"""

from dataclasses import dataclass

from repro.serve.client import ServeClient, ServeError, result_exit_code
from repro.serve.queue import JobDaemon, execute_payload, job_dedup_key
from repro.serve.store import TERMINAL_STATES, JobStore, default_job_dir


@dataclass
class ServiceHandle:
    """A running daemon + HTTP server pair (see :func:`start_service`)."""

    daemon: object
    server: object
    thread: object
    url: str

    def stop(self, drain=True):
        """Shut the service down: HTTP first, then the job daemon.

        ``drain=True`` lets running jobs finish and persists the queue
        (the graceful SIGTERM path); ``drain=False`` abandons running
        jobs (their records are re-queued on the next start).
        """
        self.server.shutdown()
        self.server.server_close()
        self.daemon.shutdown(drain=drain)
        self.thread.join(timeout=5)


def start_service(host="127.0.0.1", port=0, job_dir=None, workers=None,
                  fanout=1):
    """Start the job daemon and its HTTP API in this process.

    Non-blocking: the HTTP server runs on a daemon thread and job
    execution on the daemon's worker threads.  Returns a
    :class:`ServiceHandle`; ``port=0`` binds an ephemeral port (the
    bound address is in ``handle.url``).
    """
    import threading

    from repro.serve.http import make_server

    daemon = JobDaemon(store=JobStore(job_dir), workers=workers,
                       fanout=fanout)
    daemon.start()
    server = make_server(daemon, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="atomig-serve-http", daemon=True
    )
    thread.start()
    bound_host, bound_port = server.server_address[:2]
    return ServiceHandle(
        daemon=daemon, server=server, thread=thread,
        url=f"http://{bound_host}:{bound_port}",
    )


__all__ = [
    "JobDaemon",
    "JobStore",
    "ServeClient",
    "ServeError",
    "ServiceHandle",
    "TERMINAL_STATES",
    "default_job_dir",
    "execute_payload",
    "job_dedup_key",
    "result_exit_code",
    "start_service",
]
