"""Frontend module cache: digests, layering, corruption, env gating."""

import os
import pickle
import sys
import threading

import pytest

from repro import modcache
from repro.api import compile_source
from repro.ir.printer import print_module

SOURCE = """
int flag = 0;
int main() {
    flag = 1;
    return flag;
}
"""


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ATOMIG_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("ATOMIG_FRONTEND_CACHE", raising=False)
    modcache.clear_memory_cache()
    yield tmp_path
    modcache.clear_memory_cache()


def test_digest_stable_and_distinguishing():
    digest = modcache.source_digest(SOURCE, "m")
    assert digest == modcache.source_digest(SOURCE, "m")
    assert digest != modcache.source_digest(SOURCE + " ", "m")
    assert digest != modcache.source_digest(SOURCE, "other-name")


def test_disabled_by_default(isolated_cache):
    assert not modcache.cache_enabled()
    compile_source(SOURCE, "m")
    assert os.listdir(isolated_cache) == []


def test_env_enables_cache(isolated_cache, monkeypatch):
    monkeypatch.setenv("ATOMIG_FRONTEND_CACHE", "1")
    assert modcache.cache_enabled()
    compile_source(SOURCE, "m")
    assert len(os.listdir(isolated_cache)) == 1
    for off in ("", "0", "false"):
        monkeypatch.setenv("ATOMIG_FRONTEND_CACHE", off)
        assert not modcache.cache_enabled()


def test_hit_returns_equivalent_but_fresh_module():
    cold = compile_source(SOURCE, "m", cache=True)
    warm_one = compile_source(SOURCE, "m", cache=True)
    warm_two = compile_source(SOURCE, "m", cache=True)
    assert warm_one is not cold
    assert warm_one is not warm_two  # callers may mutate their copy
    assert print_module(warm_one) == print_module(cold)
    assert print_module(warm_two) == print_module(cold)


def test_disk_hit_without_memory_layer(isolated_cache):
    cold = compile_source(SOURCE, "m", cache=True)
    modcache.clear_memory_cache()  # simulate a new process
    warm = compile_source(SOURCE, "m", cache=True)
    assert print_module(warm) == print_module(cold)


def test_corrupt_entry_is_a_miss(isolated_cache):
    compile_source(SOURCE, "m", cache=True)
    digest = modcache.source_digest(SOURCE, "m")
    path = os.path.join(str(isolated_cache), f"{digest}.pkl")
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    modcache.clear_memory_cache()
    module = compile_source(SOURCE, "m", cache=True)  # recompiles
    assert print_module(module) == print_module(compile_source(SOURCE, "m"))
    assert not os.path.exists(path) or os.path.getsize(path) > 12


def test_truncated_pickle_is_a_miss(isolated_cache):
    cold = compile_source(SOURCE, "m", cache=True)
    digest = modcache.source_digest(SOURCE, "m")
    path = os.path.join(str(isolated_cache), f"{digest}.pkl")
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    modcache.clear_memory_cache()
    warm = compile_source(SOURCE, "m", cache=True)
    assert print_module(warm) == print_module(cold)


def test_load_miss_returns_none():
    assert modcache.load("no-such-digest") is None


def test_store_unpicklable_is_best_effort():
    assert modcache.store("deadbeef", lambda: None) is False
    assert modcache.load("deadbeef") is None


def test_store_survives_unwritable_directory(monkeypatch, tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    monkeypatch.setenv("ATOMIG_CACHE_DIR", str(target))
    module = compile_source(SOURCE, "m", cache=True)
    assert module is not None
    # Memory layer still serves hits even though the disk write failed.
    digest = modcache.source_digest(SOURCE, "m")
    assert modcache.load(digest) is not None


def test_store_writes_the_disk_and_the_first_load_fills_memory(
        isolated_cache):
    """The memory layer keeps what this process read, not what it
    wrote: a store leaves it empty, the first load fills it."""
    cold = compile_source(SOURCE, "m", cache=True)
    digest = modcache.source_digest(SOURCE, "m")
    path = os.path.join(str(isolated_cache), f"{digest}.pkl")
    assert os.path.exists(path)
    assert list(modcache._memory) == []
    assert modcache._memory_bytes == 0
    assert print_module(modcache.load(digest)) == print_module(cold)
    assert list(modcache._memory) == [digest]
    assert modcache._memory_bytes == os.path.getsize(path)
    os.unlink(path)
    assert print_module(modcache.load(digest)) == print_module(cold)


def test_entries_are_plain_pickles(isolated_cache):
    compile_source(SOURCE, "m", cache=True)
    digest = modcache.source_digest(SOURCE, "m")
    path = os.path.join(str(isolated_cache), f"{digest}.pkl")
    with open(path, "rb") as handle:
        module = pickle.load(handle)
    assert "main" in module.functions


# -- size eviction (ATOMIG_CACHE_MAX_MB) ------------------------------------


def _fill(isolated_cache, count):
    """Store ``count`` distinct entries; returns their digests in order."""
    digests = []
    for i in range(count):
        source = SOURCE + f"\n// variant {i}\n"
        compile_source(source, "m", cache=True)
        digests.append(modcache.source_digest(source, "m"))
    return digests


def test_cache_max_bytes_parsing(monkeypatch):
    monkeypatch.delenv("ATOMIG_CACHE_MAX_MB", raising=False)
    assert modcache.cache_max_bytes() is None
    monkeypatch.setenv("ATOMIG_CACHE_MAX_MB", "2")
    assert modcache.cache_max_bytes() == 2 * 1024 * 1024
    monkeypatch.setenv("ATOMIG_CACHE_MAX_MB", "0.5")
    assert modcache.cache_max_bytes() == 512 * 1024
    for bogus in ("", "nan-ish", "-3", "0"):
        monkeypatch.setenv("ATOMIG_CACHE_MAX_MB", bogus)
        assert modcache.cache_max_bytes() is None


def test_evict_noop_when_unbounded(isolated_cache, monkeypatch):
    monkeypatch.delenv("ATOMIG_CACHE_MAX_MB", raising=False)
    _fill(isolated_cache, 3)
    assert modcache.evict() == 0
    assert len(list(isolated_cache.glob("*.pkl"))) == 3


def test_evict_drops_oldest_first(isolated_cache):
    digests = _fill(isolated_cache, 4)
    paths = [os.path.join(str(isolated_cache), f"{d}.pkl")
             for d in digests]
    # Make mtimes deterministic: digests[0] oldest .. digests[3] newest.
    for i, path in enumerate(paths):
        os.utime(path, (1000 + i, 1000 + i))
    keep = os.path.getsize(paths[2]) + os.path.getsize(paths[3])
    removed = modcache.evict(max_bytes=keep)
    assert removed == 2
    assert not os.path.exists(paths[0]) and not os.path.exists(paths[1])
    assert os.path.exists(paths[2]) and os.path.exists(paths[3])


def test_disk_hit_refreshes_mtime_for_lru(isolated_cache):
    digests = _fill(isolated_cache, 2)
    paths = [os.path.join(str(isolated_cache), f"{d}.pkl")
             for d in digests]
    for i, path in enumerate(paths):
        os.utime(path, (1000 + i, 1000 + i))
    modcache.clear_memory_cache()
    assert modcache.load(digests[0]) is not None  # touch the older entry
    removed = modcache.evict(max_bytes=os.path.getsize(paths[0]))
    assert removed == 1
    # The freshly-used entry survived; the untouched one was evicted.
    assert os.path.exists(paths[0])
    assert not os.path.exists(paths[1])


def test_memory_hits_keep_the_disk_entry_fresh(isolated_cache,
                                               monkeypatch):
    """A source served from memory is the hottest entry, so the disk
    layer's LRU must not evict it before an entry nobody asked for."""
    digests = _fill(isolated_cache, 3)  # unbounded: measure the sizes
    for digest in digests:
        assert modcache.load(digest) is not None  # a load fills memory
    sizes = [len(modcache._memory[digest]) for digest in digests]
    modcache.clear_memory_cache()
    monkeypatch.setenv("ATOMIG_CACHE_DIR", str(isolated_cache / "lru"))
    cap = sizes[0] + max(sizes[1], sizes[2])  # room for two entries
    monkeypatch.setenv("ATOMIG_CACHE_MAX_MB", str((cap + 0.5) / 2 ** 20))
    hot, cold, new = digests
    assert _fill(isolated_cache, 2) == [hot, cold]
    assert modcache.load(hot) is not None  # the first use reads the disk
    paths = {digest: os.path.join(str(isolated_cache / "lru"),
                                  f"{digest}.pkl") for digest in digests}
    # The hot entry is the older one on disk ...
    os.utime(paths[hot], (1000, 1000))
    os.utime(paths[cold], (1001, 1001))
    # ... but every later use of it is a memory hit.
    for _ in range(5):
        assert hot in modcache._memory
        assert modcache.load(hot) is not None
    compile_source(SOURCE + "\n// variant 2\n", "m", cache=True)
    assert os.path.exists(paths[new])
    assert os.path.exists(paths[hot])
    assert not os.path.exists(paths[cold])


def test_store_evicts_when_env_set(isolated_cache, monkeypatch):
    monkeypatch.setenv("ATOMIG_CACHE_MAX_MB", "0.0001")  # ~105 bytes
    _fill(isolated_cache, 3)
    # Every entry is bigger than the budget, so at most one remains
    # (the one just written is eligible too — budget is a hard cap).
    assert len(list(isolated_cache.glob("*.pkl"))) <= 1


def test_memory_layer_evicts_oldest_past_the_cap(isolated_cache,
                                                 monkeypatch):
    digests = _fill(isolated_cache, 4)  # unbounded: all four kept
    for digest in digests:
        assert modcache.load(digest) is not None  # a load fills memory
    sizes = [len(modcache._memory[digest]) for digest in digests]
    modcache.clear_memory_cache()
    cap = sizes[2] + sizes[3]
    monkeypatch.setenv("ATOMIG_CACHE_MAX_MB", str((cap + 0.5) / 2 ** 20))
    for digest in digests:
        assert modcache.load(digest) is not None
    # Loading past the cap dropped the two oldest entries.
    assert list(modcache._memory) == digests[2:]
    assert sum(map(len, modcache._memory.values())) <= cap
    # A hit refreshes recency: the next load from disk evicts digests[3].
    assert modcache.load(digests[2]) is not None
    assert modcache.load(digests[0]) is not None
    assert digests[3] not in modcache._memory
    assert digests[2] in modcache._memory


def test_memory_layer_accounting_survives_threads(monkeypatch, tmp_path):
    cap = 4096
    monkeypatch.setenv("ATOMIG_CACHE_MAX_MB", str((cap + 0.5) / 2 ** 20))
    # A file, not a directory: every disk write fails at once, so the
    # threads spend their time in the shared memory layer.
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    monkeypatch.setenv("ATOMIG_CACHE_DIR", str(blocked))
    errors = []

    def worker(tid):
        try:
            for i in range(2500):
                digest = f"shared-{(tid + i) % 4}"
                modcache.store(digest, "x" * (100 + i % 60))
                modcache.load(digest)
        except Exception as error:  # reported below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # A lost update would leave the running total off the real sum.
    assert modcache._memory_bytes == sum(map(len, modcache._memory.values()))
    assert modcache._memory_bytes <= cap
