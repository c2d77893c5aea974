"""Compact state encoding and incremental digests for the explorer.

The legacy dedup path built a deeply nested ``State.canonical()`` tuple,
``repr()``-ed the whole nesting and BLAKE2-hashed the text — an
O(state size) rebuild for every quiescent state, which BENCH_mc.json
showed capping the explorer at ~8k states/s.  This module replaces that
path for the undo-log explorer with three ideas (DESIGN.md §6f):

- **Per-thread hashes, memoized on the thread.**  Each thread's
  canonical content (status, frames, environments, allocas, pending
  window) is built in one pass as nested tuples of ints and ``None``,
  serialized with ``marshal`` and hashed to 128 bits.  The hash (and
  the thread's token numbering) is cached on the ``Thread`` and
  invalidated only when the machine mutates that thread, so a thread
  that did not move between two digests is never re-encoded.
- **Zobrist state keys.**  The shared-memory image contributes a
  128-bit XOR of per-``(addr, value)`` cell hashes, maintained
  *incrementally* by the ``State.mem_write``/``mem_del`` helpers: a
  store updates the digest in O(1) no matter how large memory is.  The
  state key XORs that with the thread hashes and with cell hashes of
  the remaining components (allocation counters, pending memory cells,
  reservations).  XOR composition is order-independent, which is
  exactly the sorted semantics of the legacy canonical form, and every
  component is keyed by a distinct address or thread id in its own
  hash domain, so no two components of one state can cancel.
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
asserts both directions); the only approximation is the 128-bit
hashing, whose collision probability is on par with a BLAKE2 digest of
the whole canonical form.
"""

import hashlib
import marshal

# -- Zobrist cell hashes ----------------------------------------------------

#: (slot, value) -> random-looking 128-bit int, derived from BLAKE2 so
#: the table needs no seeding and is stable across processes.
_CELL_HASHES = {}
#: Reset guard: a pathological run (fuzzing millions of distinct cell
#: values) must not grow the memo without bound.  Clearing is safe —
#: the hash is a pure function and simply recomputes.
_CELL_HASH_LIMIT = 4_000_000


def cell_hash(slot, value):
    """The 128-bit Zobrist hash of one state component.

    A memory cell is ``(addr, value)``.  Every other component passes
    a string tag as ``slot`` (``"top"``, ``"pending"``, ``"reserved"``)
    and its fields as ``value``, so distinct components never share a
    preimage.
    """
    key = (slot, value)
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
#: BLAKE2 personalization of thread hashes: a hash domain of its own,
#: apart from the Zobrist cell hashes the thread hashes are XORed with.
_THREAD_PERSON = b"atomig.thread"
#: Marshal format 2: no object references (added in format 3), so equal
#: content always serializes to equal bytes.
_MARSHAL_VERSION = 2


def entry_code(kind, addr, order, rmw_op, operand, expected, desired):
    """The token-free part of a window entry's encoding.

    ``WindowEntry`` computes it once, at construction (entries are
    immutable); ``encode_thread`` pairs it with the entry's token and
    value, which are numbered per thread.
    """
    return (_KIND_CODES[kind], addr, int(order), _RMW_CODES[rmw_op],
            operand, expected, desired)


def encode_thread(interner, thread):
    """``(hash, tokens)`` of one thread's canonical content.

    Mirrors the thread part of the legacy ``State.canonical()``: status,
    stack top, per-frame (block, index, sorted env, sorted allocas) and
    the pending window, with each pending value replaced by a 1-tuple
    holding its dense per-thread token id.  ``tokens`` maps the
    thread's live tokens to those ids.  Ids are assigned in the *same
    order* the legacy form assigned them — frame order, sorted env keys
    within a frame (env *insertion* order is execution-path-dependent
    under the env GC + undo log, so numbering must follow content),
    then window entries (token before value) — so the two forms induce
    the same state partition.
    """
    tokens = {}
    window = thread.window
    id_of = interner.id_of
    frames = []
    for frame in thread.frames:
        env = frame.env
        skeys = frame._skeys
        if skeys is None:
            skeys = frame._skeys = sorted(env)
        values = [env[key] for key in skeys]
        if window:
            # A pending value always has a matching uncommitted window
            # entry, so a windowless thread provably holds no tokens.
            for index, value in enumerate(values):
                if type(value) is tuple:
                    token = value[1]
                    norm = tokens.get(token)
                    if norm is None:
                        norm = tokens[token] = len(tokens)
                    values[index] = (norm,)
        salloc = frame._salloc
        if salloc is None:
            salloc = frame._salloc = sorted(frame.alloca_addrs.items())
        frames.append((id_of(frame.block), frame.index, skeys, values,
                       salloc))
    entries = []
    for entry in window:
        token = entry.token
        if token is not None:
            norm = tokens.get(token)
            if norm is None:
                norm = tokens[token] = len(tokens)
            token = norm
        value = entry.value
        if type(value) is tuple:
            norm = tokens.get(value[1])
            if norm is None:
                norm = tokens[value[1]] = len(tokens)
            value = (norm,)
        entries.append((entry.code, token, value))
    content = (thread.tid, _STATUS_CODES[thread.status], thread.stack_top,
               frames, entries)
    digest = hashlib.blake2b(marshal.dumps(content, _MARSHAL_VERSION),
                             digest_size=16, person=_THREAD_PERSON)
    return int.from_bytes(digest.digest(), "little"), tokens


# -- state digest -----------------------------------------------------------


def state_digest(state, interner):
    """128-bit dedup key of ``state``, using the incremental caches.

    The XOR of the Zobrist memory hash, a cell hash of the allocation
    counters, every thread's memoized hash, and a cell hash per pending
    memory cell (naming the owner thread's token id) and per
    reservation.
    """
    key = state.mem_hash ^ cell_hash("top", (state.next_tid, state.heap_top))
    threads = state.threads
    for thread in threads.values():
        encoded = thread._enc
        if encoded is None:
            encoded = thread._enc = encode_thread(interner, thread)
        key ^= encoded[0]
    for addr, token in state.pending_mem.items():
        for tid, thread in threads.items():
            norm = thread._enc[1].get(token)
            if norm is not None:
                key ^= cell_hash("pending", (addr, tid, norm))
                break
        else:
            raise AssertionError(
                f"pending memory cell {addr} holds token {token}, "
                f"which no thread owns"
            )
    for addr, tid in state.reservations.items():
        key ^= cell_hash("reserved", (addr, tid))
    return key


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
