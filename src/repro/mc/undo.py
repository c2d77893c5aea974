"""Undo-log journal for the exploration engine.

Rather than copy the whole object graph per transition, the explorer
mutates one ``State`` and *reverts*.  Every mutating site in
:mod:`repro.mc.machine` appends a typed record to a flat journal list
**before** mutating (when ``Machine.journal`` is active), and
:func:`revert` pops records back to a mark, restoring the state
bit-identically — including the incremental-digest caches:

- ``OP_ENC`` snapshots a thread's memoized encoding (its hash and token
  ids) the first time the thread is touched after a digest, so
  reverting restores not just the content but the cache (the parent
  state never re-encodes).
- ``OP_MEM`` records are replayed through ``State._mem_restore`` so the
  Zobrist memory hash and the pending-cell index roll back with the
  memory image.
- ``OP_FRAME`` snapshots a frame's block, index, env (copied once) and
  sorted-key cache at the frame's first mutation in an action
  (:func:`snapshot_frame`): one record restores every env write,
  env-GC delete, index bump and branch of that action, and revert
  rebinds ``frame.env`` to the copy, which nothing else holds.

Records are plain tuples ``(opcode, ...)`` with interned int opcodes;
the revert loop is a frequency-ordered compare chain.  The protocol is
append-only between marks — ``mark = len(journal)`` before applying an
action, ``revert(state, journal, mark)`` afterwards — which is exactly
the DFS discipline (LIFO) of the explorer.
"""

# Opcodes, ordered by frequency (records reverted over a corpus pass).
OP_MEM = 0      # (op, addr, had, old)                   memory cell
OP_TRACE = 1    # (op,)                                  trace append
OP_WDEL = 2     # (op, thread, index, entry)             window delete
OP_ENC = 3      # (op, thread, old_enc)                  digest-cache snapshot
OP_WADD = 4     # (op, thread)                           window append
OP_FRAME = 5    # (op, thread, frame, block, index, env, skeys, fepoch)
                #                                        frame snapshot
OP_SSET = 6     # (op, attr, old)                        State scalar attr
OP_STEPS = 7    # (op, thread, old_steps)                step budget
OP_RES = 8      # (op, addr, had, old)                   reservation
OP_STACK = 9    # (op, thread, old_stack_top)            stack bump
OP_ALLOC = 10   # (op, thread, frame, key)               alloca registered
OP_WSET = 11    # (op, thread, index, old_entry)         window replace
OP_FPOP = 12    # (op, thread, frame, owned)             frame pop (ret)
OP_STATUS = 13  # (op, thread, old_status)               status change
OP_FPUSH = 14   # (op, thread)                           frame push (call)
OP_TNEW = 15    # (op, tid)                              thread spawned
OP_OUT = 16     # (op,)                                  output append
OP_FSWAP = 17   # (op, thread, index, old_frame)         COW frame clone
OP_CLK = 18     # (op, key, had, old)                    DPOR clock entry


def revert(state, journal, mark):
    """Pop journal records back to ``mark``, undoing each mutation.

    Thread-content handlers drop the thread's cached encoding (it
    described the *mutated* content); the matching ``OP_ENC`` record —
    always appended before the content records of its epoch, hence
    popped after them — then reinstates the pre-mutation cache.
    """
    while len(journal) > mark:
        record = journal.pop()
        op = record[0]
        if op == OP_MEM:
            state._mem_restore(record[1], record[2], record[3])
        elif op == OP_TRACE:
            state.trace_tail = state.trace_tail[0]
            state.trace_len -= 1
        elif op == OP_WDEL:
            _, thread, index, entry = record
            thread.window.insert(index, entry)
            thread._enc = None
        elif op == OP_ENC:
            record[1]._enc = record[2]
        elif op == OP_WADD:
            thread = record[1]
            thread.window.pop()
            thread._enc = None
        elif op == OP_FRAME:
            _, thread, frame, block, index, env, skeys, fepoch = record
            frame.block = block
            frame.index = index
            frame.env = env  # the snapshot's own copy: nothing else holds it
            frame._skeys = skeys
            frame._fepoch = fepoch
            thread._enc = None
        elif op == OP_SSET:
            setattr(state, record[1], record[2])
        elif op == OP_STEPS:
            record[1].steps = record[2]
        elif op == OP_RES:
            _, addr, had, old = record
            if had:
                state.reservations[addr] = old
            else:
                state.reservations.pop(addr, None)
        elif op == OP_STACK:
            thread = record[1]
            thread.stack_top = record[2]
            thread._enc = None
        elif op == OP_ALLOC:
            _, thread, frame, key = record
            del frame.alloca_addrs[key]
            frame._salloc = None  # key set changed
            thread._enc = None
        elif op == OP_WSET:
            _, thread, index, old_entry = record
            thread.window[index] = old_entry
            thread._enc = None
        elif op == OP_FPOP:
            _, thread, frame, owned = record
            thread.frames.append(frame)
            thread.owned.append(owned)
            thread._enc = None
        elif op == OP_STATUS:
            thread = record[1]
            thread.status = record[2]
            thread._enc = None
            # May leave or re-enter FINISHED/LIMIT: joins waiting on
            # this thread must be re-probed either way.
            state.probe_epoch += 1
        elif op == OP_FPUSH:
            thread = record[1]
            thread.frames.pop()
            thread.owned.pop()
            thread._enc = None
        elif op == OP_TNEW:
            del state.threads[record[1]]
        elif op == OP_OUT:
            state.output.pop()
        elif op == OP_FSWAP:
            # The COW clone is content-identical to the original frame,
            # so the cached encoding (if any) stays valid.
            _, thread, index, old_frame = record
            thread.frames[index] = old_frame
            thread.owned[index] = False
        elif op == OP_CLK:
            # DPOR happens-before bookkeeping (repro.mc.dpor): the
            # values are immutable (ints / tuples), so reinstating the
            # old binding restores the clock table bit-identically.
            _, key, had, old = record
            if had:
                state.clocks[key] = old
            else:
                state.clocks.pop(key, None)
        else:  # pragma: no cover - opcode set is closed
            raise AssertionError(f"unknown journal opcode {op}")


def snapshot_frame(journal, thread, frame, epoch):
    """Journal ``frame`` once for action ``epoch``, before its first
    block, index or env mutation in that action.

    Callers test ``frame._fepoch != epoch`` first.  The record holds a
    copy of the env, so the frame keeps mutating its own dict; revert
    rebinds the copy and restores the block, index, sorted-key cache
    and ``_fepoch`` with it.  Between two epoch bumps the explorer
    takes no revert mark, so one record per (frame, epoch) restores
    every mutation of the action.
    """
    journal.append((OP_FRAME, thread, frame, frame.block, frame.index,
                    dict(frame.env), frame._skeys, frame._fepoch))
    frame._fepoch = epoch


def touch(journal, thread):
    """Invalidate ``thread``'s cached encoding, snapshotting it first.

    Called by every machine path about to mutate thread content.  The
    snapshot makes revert restore the cache along with the content; when
    the cache is already invalid this is a single attribute test.

    Also drops the thread's blocked-probe memo (``Thread._bepoch``):
    the memoized "still stuck" verdict is conditioned on the thread's
    own content being unchanged since the failed probe.
    """
    thread._bepoch = -1
    enc = thread._enc
    if enc is not None:
        thread._enc = None
        if journal is not None:
            journal.append((OP_ENC, thread, enc))
