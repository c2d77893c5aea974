"""Compact state encoding and incremental digests for the explorer.

The legacy dedup path built a deeply nested ``State.canonical()`` tuple,
``repr()``-ed the whole nesting and BLAKE2-hashed the text — an
O(state size) rebuild for every quiescent state, which BENCH_mc.json
showed capping the explorer at ~8k states/s.  This module replaces that
path for the undo-log explorer with three ideas (DESIGN.md §6f):

- **Per-thread byte encodings, memoized on the thread.**  Each thread's
  canonical content (status, frames, environments, allocas, pending
  window) is flattened into one length-prefixed list of ints and
  rendered with a single C-speed ``repr``.  The bytes are cached on the
  ``Thread`` and invalidated only when the machine mutates that thread,
  so a thread that did not move between two digests is never re-encoded.
- **Zobrist memory hashing.**  The shared-memory image contributes a
  128-bit XOR of per-``(addr, value)`` cell hashes, maintained
  *incrementally* by the ``State.mem_write``/``mem_del`` helpers: a
  store updates the digest in O(1) no matter how large memory is.
  XOR composition is order-independent, which is exactly the sorted
  ``(addr, value)`` semantics of the legacy canonical form.
- **Per-thread token normalization.**  Pending-value tokens are
  process-global counters and must be renamed to small dense ids so
  states differing only in token history dedup together.  Tokens never
  cross threads (pending values cannot pass through calls, spawns,
  branches or shared commits, and every live token is held by a window
  entry of its creating thread), so each thread's encoding numbers its
  own tokens — in the same first-appearance order the legacy
  ``canonical()`` used — and the memoized encodings stay valid without
  any global renaming pass.

Digest equality is designed to match ``State.canonical()`` equality
exactly (the property suite in ``tests/property/test_state_engine.py``
asserts both directions); the only approximation is the Zobrist XOR,
whose 128-bit collision probability is on par with the legacy BLAKE2
digest itself.
"""

import hashlib

# -- Zobrist cell hashes ----------------------------------------------------

#: (addr, value) -> random-looking 128-bit int, derived from BLAKE2 so
#: the table needs no seeding and is stable across processes.
_CELL_HASHES = {}
#: Reset guard: a pathological run (fuzzing millions of distinct cell
#: values) must not grow the memo without bound.  Clearing is safe —
#: the hash is a pure function and simply recomputes.
_CELL_HASH_LIMIT = 4_000_000


def cell_hash(addr, value):
    """The Zobrist contribution of one non-zero memory cell."""
    key = (addr, value)
    cell = _CELL_HASHES.get(key)
    if cell is None:
        if len(_CELL_HASHES) >= _CELL_HASH_LIMIT:
            _CELL_HASHES.clear()
        cell = int.from_bytes(
            hashlib.blake2b(repr(key).encode(), digest_size=16).digest(),
            "little",
        )
        _CELL_HASHES[key] = cell
    return cell


# -- interning --------------------------------------------------------------


class Interner:
    """Dense ids for IR objects (blocks) reachable from one module.

    Keyed by ``id()``: the objects are kept alive by the ``Context``
    that owns this interner, so ids cannot be recycled mid-run.  A
    block id identifies ``(function, label)`` — block objects are never
    shared between functions — which is all the legacy canonical form
    recorded per frame.
    """

    __slots__ = ("_ids",)

    def __init__(self):
        self._ids = {}

    def id_of(self, obj):
        key = id(obj)
        dense = self._ids.get(key)
        if dense is None:
            dense = self._ids[key] = len(self._ids)
        return dense


# -- thread encoding --------------------------------------------------------

_STATUS_CODES = {
    "run": 0,
    "blocked": 1,
    "ready": 2,
    "finishing": 3,
    "finished": 4,
    "limit": 5,
}
_KIND_CODES = {"load": 0, "store": 1, "rmw": 2, "rmw_store": 3}
_RMW_CODES = {None: -1, "add": 0, "sub": 1, "or": 2, "and": 3, "xor": 4,
              "xchg": 5}

# Value tags (always emitted as a fixed-width [tag, payload] pair so
# the flat int list parses unambiguously).
_TAG_PENDING = -1
_TAG_INT = -2
_TAG_NONE = -3


def _append_value(append, token_map, value):
    """Emit one possibly-pending value as a (tag, payload) int pair."""
    if type(value) is tuple:  # ("p", token)
        token = value[1]
        norm = token_map.get(token)
        if norm is None:
            norm = token_map[token] = len(token_map)
        append(_TAG_PENDING)
        append(norm)
    elif value is None:
        append(_TAG_NONE)
        append(0)
    else:
        append(_TAG_INT)
        append(value)


def encode_thread(interner, thread):
    """Injective byte encoding of one thread's canonical content.

    Mirrors the thread part of the legacy ``State.canonical()``: status,
    stack top, per-frame (block, index, sorted env, sorted allocas) and
    the pending window, with tokens renamed to dense per-thread ids.
    Token ids are assigned in the *same order* the legacy form assigned
    them — frame envs in insertion order first, then window entries
    (token before value) — so the two forms induce the same state
    partition even for states that differ only in env insertion history.
    """
    token_map = {}
    frames = thread.frames
    window = thread.window
    # Pass 1: token numbering in the same order ``State.canonical()``
    # assigns it — frame order, sorted env keys within a frame (env
    # *insertion* order is execution-path-dependent under the env GC +
    # undo log, so numbering must follow content).  Only pending values
    # matter, and a pending value always has a matching uncommitted
    # window entry, so a windowless thread provably holds no tokens.
    if window:
        for frame in frames:
            env = frame.env
            skeys = frame._skeys
            if skeys is None:
                skeys = frame._skeys = sorted(env)
            for key in skeys:
                value = env[key]
                if type(value) is tuple:
                    token = value[1]
                    if token not in token_map:
                        token_map[token] = len(token_map)
    parts = [
        thread.tid,
        _STATUS_CODES[thread.status],
        thread.stack_top,
        len(frames),
    ]
    append = parts.append
    id_of = interner.id_of
    for frame in frames:
        append(id_of(frame.block))
        append(frame.index)
        env = frame.env
        skeys = frame._skeys
        if skeys is None:
            skeys = frame._skeys = sorted(env)
        append(len(env))
        for key in skeys:
            value = env[key]
            append(key)
            if type(value) is int:
                append(_TAG_INT)
                append(value)
            else:
                _append_value(append, token_map, value)
        allocas = frame.alloca_addrs
        salloc = frame._salloc
        if salloc is None:
            salloc = frame._salloc = sorted(allocas.items())
        append(len(allocas))
        for key, addr in salloc:
            append(key)
            append(addr)
    append(len(window))
    for entry in window:
        append(_KIND_CODES[entry.kind])
        append(entry.addr)
        append(int(entry.order))
        token = entry.token
        if token is None:
            append(-1)
        else:
            norm = token_map.get(token)
            if norm is None:
                norm = token_map[token] = len(token_map)
            append(norm)
        value = entry.value
        if type(value) is int:
            append(_TAG_INT)
            append(value)
        else:
            _append_value(append, token_map, value)
        append(_RMW_CODES[entry.rmw_op])
        for value in (entry.rmw_operand, entry.rmw_expected,
                      entry.rmw_desired):
            if value is None:
                append(_TAG_NONE)
                append(0)
            elif type(value) is int:
                append(_TAG_INT)
                append(value)
            else:
                _append_value(append, token_map, value)
    return repr(parts).encode()


def _token_positions(state):
    """token -> (tid, per-thread id) for every live token.

    Needed only when a pending value sits in memory (a private store of
    an uncommitted load) — the memory section of the digest must then
    name the token.  Every live token appears in its owner thread's
    frames or window, so one walk in encoding order recovers the same
    numbering ``encode_thread`` assigned.
    """
    positions = {}
    for tid, thread in state.threads.items():
        local = {}
        for frame in thread.frames:
            env = frame.env
            for key in sorted(env):
                value = env[key]
                if type(value) is tuple:
                    token = value[1]
                    if token not in local:
                        local[token] = len(local)
        for entry in thread.window:
            token = entry.token
            if token is not None and token not in local:
                local[token] = len(local)
            for value in (entry.value, entry.rmw_operand,
                          entry.rmw_expected, entry.rmw_desired):
                if type(value) is tuple:
                    token = value[1]
                    if token not in local:
                        local[token] = len(local)
        for token, norm in local.items():
            positions[token] = (tid, norm)
    return positions


# -- state digest -----------------------------------------------------------


def state_digest(state, interner):
    """128-bit dedup key of ``state``, using the incremental caches.

    Sections are NUL-separated (the per-section reprs are pure ASCII
    with no NUL) and the thread count is part of the header, so the
    concatenation is an injective framing of the components.
    """
    digest = hashlib.blake2b(digest_size=16)
    update = digest.update
    update(b"%d %d %d %d" % (state.next_tid, state.heap_top,
                             state.mem_hash, len(state.threads)))
    for thread in state.threads.values():
        encoded = thread._enc
        if encoded is None:
            encoded = thread._enc = encode_thread(interner, thread)
        update(b"\x00")
        update(encoded)
    update(b"\x00")
    pending = state.pending_mem
    if pending:
        positions = _token_positions(state)
        update(repr(sorted(
            (addr, positions[token]) for addr, token in pending.items()
        )).encode())
    update(b"\x00")
    if state.reservations:
        update(repr(sorted(state.reservations.items())).encode())
    return digest.digest()


def state_digest_fresh(state, interner):
    """Digest with every cache dropped and memory re-hashed from scratch.

    The verification mode used by the property suite (and the
    ``ATOMIG_DIGEST_CHECK`` debug hook): recomputes the Zobrist memory
    hash from the live memory dict and re-encodes every thread, so any
    missed invalidation or unjournalled mutation shows up as a digest
    mismatch against the incremental path.
    """
    for thread in state.threads.values():
        thread._enc = None
        for frame in thread.frames:
            frame._skeys = None
            frame._salloc = None
    mem_hash = 0
    pending = {}
    for addr, value in state.memory.items():
        if type(value) is tuple:
            pending[addr] = value[1]
        elif value != 0:
            mem_hash ^= cell_hash(addr, value)
    if mem_hash != state.mem_hash or pending != state.pending_mem:
        raise AssertionError(
            "incremental memory hash diverged from the memory image: "
            f"hash {state.mem_hash:#x} vs fresh {mem_hash:#x}, "
            f"pending {state.pending_mem} vs fresh {pending}"
        )
    return state_digest(state, interner)
