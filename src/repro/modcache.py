"""On-disk parsed-module cache keyed by source digest.

The benchmark harnesses and CI re-compile the same corpus dozens of
times per run — the frontend (lex → parse → analyze → lower → verify)
dominates Table 3's build times.  This cache stores the *lowered,
verified* module as a pickle keyed by the blake2b digest of the source
text, so the second compile of identical source is one unpickle.

Invalidation rules:

- the digest covers the source text, the module name, the cache format
  version (:data:`CACHE_VERSION` — bump on any IR or frontend change
  that alters compiled modules) and the running Python's
  ``major.minor`` (pickles are not guaranteed portable across
  versions);
- a corrupt, truncated or unpicklable entry is treated as a miss and
  recompiled — the cache can be deleted at any time;
- entries are written atomically (tempfile + rename) so concurrent
  port workers sharing a cache directory never observe partial files.

Callers always get a *fresh* module object: the in-memory layer keeps
the pickled bytes, not the module, and every hit re-unpickles.  The
pipeline mutates modules in place (inlining, atomization), so handing
out a shared instance would poison later hits.  The memory layer keeps
what this process has *read*: :func:`load` fills it from disk, while
:func:`store` writes the disk only (and memory only when the disk
write fails), so a pool worker that compiles a stream of new sources
does not hold the bytes of every module it wrote.  This is the only
module cache in the repo: every task spec (:mod:`repro.core.workers`)
and the CLI compile through :func:`repro.api.compile_source`, so a
daemon with the cache on answers a repeated source from here.

The cache is off unless explicitly enabled — pass ``cache=True`` or
set ``ATOMIG_FRONTEND_CACHE=1``; ``ATOMIG_CACHE_DIR`` overrides the
default ``~/.cache/atomig`` directory.  Timing benchmarks that want
honest build times must leave it off.

``ATOMIG_CACHE_MAX_MB`` bounds both layers, each on its own: after
every store the oldest entries by mtime are evicted from disk (LRU —
every hit, from memory or disk, refreshes mtime) until the directory
fits, and the in-memory layer drops its least recently used entries
until its bytes fit.
Unset means unbounded, which is fine for one-shot CLI runs but turns
into a leak under a long-lived daemon (:mod:`repro.serve`), so the
serve quickstart sets it.  The memory layer is shared by the daemon's
worker threads and guarded by one lock.
"""

import hashlib
import os
import pickle
import sys
import tempfile
import threading
from collections import OrderedDict

#: Bump when compiled-module layout changes (new IR fields, frontend
#: passes, lowering differences) to invalidate stale entries.
CACHE_VERSION = 1

_ENV_ENABLE = "ATOMIG_FRONTEND_CACHE"
_ENV_DIR = "ATOMIG_CACHE_DIR"
_ENV_MAX_MB = "ATOMIG_CACHE_MAX_MB"

#: digest -> pickled module bytes (per-process layer over the disk),
#: least recently used first.
_memory = OrderedDict()
#: Total size of the values in :data:`_memory`.
_memory_bytes = 0
_memory_lock = threading.Lock()


def cache_enabled():
    """True when the environment opts into the frontend cache."""
    return os.environ.get(_ENV_ENABLE, "").strip() not in ("", "0", "false")


def cache_dir():
    """Directory holding on-disk entries (created lazily)."""
    configured = os.environ.get(_ENV_DIR, "").strip()
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "atomig")


def source_digest(source, name="module"):
    """Stable cache key for one (source, module-name) compile."""
    hasher = hashlib.blake2b(digest_size=20)
    hasher.update(
        f"v{CACHE_VERSION}:py{sys.version_info[0]}.{sys.version_info[1]}:"
        f"{name}:".encode()
    )
    hasher.update(source.encode())
    return hasher.hexdigest()


def clear_memory_cache():
    """Drop the per-process layer (tests; bounded-memory callers)."""
    global _memory_bytes
    with _memory_lock:
        _memory.clear()
        _memory_bytes = 0


def _memory_get(digest):
    with _memory_lock:
        blob = _memory.get(digest)
        if blob is not None:
            _memory.move_to_end(digest)
        return blob


def _memory_put(digest, blob):
    """Remember ``blob``, then drop LRU entries past the size limit."""
    global _memory_bytes
    max_bytes = cache_max_bytes()
    with _memory_lock:
        old = _memory.pop(digest, None)
        if old is not None:
            _memory_bytes -= len(old)
        _memory[digest] = blob
        _memory_bytes += len(blob)
        while max_bytes is not None and _memory_bytes > max_bytes:
            _evicted, dropped = _memory.popitem(last=False)
            _memory_bytes -= len(dropped)


def _memory_forget(digest):
    global _memory_bytes
    with _memory_lock:
        blob = _memory.pop(digest, None)
        if blob is not None:
            _memory_bytes -= len(blob)


def _entry_path(digest):
    return os.path.join(cache_dir(), f"{digest}.pkl")


def load(digest):
    """Fresh module for ``digest`` or ``None`` on miss/corruption."""
    blob = _memory_get(digest)
    if blob is None:
        try:
            with open(_entry_path(digest), "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        _memory_put(digest, blob)
    try:
        # Refresh mtime on memory hits too, so size eviction is LRU over
        # every use: a source served from memory is the hottest entry.
        os.utime(_entry_path(digest))
    except OSError:
        pass
    try:
        return pickle.loads(blob)
    except Exception:
        # Corrupt or stale entry: forget it and recompile.
        _memory_forget(digest)
        try:
            os.unlink(_entry_path(digest))
        except OSError:
            pass
        return None


def store(digest, module):
    """Pickle ``module`` under ``digest`` (atomic write; best effort).

    The bytes go to disk; the memory layer gets them only when the
    disk write fails, so later loads in this process still hit.
    """
    try:
        blob = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        # RecursionError on very deep IR graphs, unpicklable metadata:
        # skip caching, the compile result is still returned.
        return False
    directory = cache_dir()
    try:
        os.makedirs(directory, exist_ok=True)
        handle, temp_path = tempfile.mkstemp(
            dir=directory, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(blob)
            os.replace(temp_path, _entry_path(digest))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
    except OSError:
        # Read-only disk etc.: the memory layer serves this process.
        _memory_put(digest, blob)
        return False
    evict()
    return True


def cache_max_bytes():
    """Size limit from ``ATOMIG_CACHE_MAX_MB``; ``None`` = unbounded."""
    raw = os.environ.get(_ENV_MAX_MB, "").strip()
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        return None
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def evict(max_bytes=None):
    """Delete least-recently-used disk entries until the directory fits.

    ``max_bytes=None`` reads ``ATOMIG_CACHE_MAX_MB`` and is a no-op
    when unset, so one-shot CLI runs pay nothing.  Eviction is LRU by
    mtime (:func:`load` touches entries on every hit).  Returns the
    number of entries removed; races with concurrent workers are
    benign — a vanished file is just skipped, and the entry would be
    recompiled on the next miss anyway.
    """
    if max_bytes is None:
        max_bytes = cache_max_bytes()
    if max_bytes is None:
        return 0
    directory = cache_dir()
    entries = []
    total = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".pkl"):
            continue
        path = os.path.join(directory, name)
        try:
            status = os.stat(path)
        except OSError:
            continue
        entries.append((status.st_mtime, status.st_size, path))
        total += status.st_size
    if total <= max_bytes:
        return 0
    removed = 0
    for _mtime, size, path in sorted(entries):
        if total <= max_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        removed += 1
    return removed
