"""Memory-model rule objects used by the operational machine.

A model decides three things:

- whether a shared load / store / RMW executes *immediately* at issue or
  enters the thread's pending window;
- which pending window entries may commit, given everything earlier in
  program order;
- which instructions must wait for an empty window (fences, TSO-locked
  operations).
"""


class MemoryModel:
    """Base class; behaves like sequential consistency."""

    name = "sc"
    #: Maximum pending entries per thread (SC keeps none).
    window_limit = 0

    def buffers_stores(self):
        return False

    def buffers_loads(self):
        return False

    def rmw_requires_drain(self):
        return True

    def store_requires_drain(self, order):
        return False

    def may_commit(self, window, index):
        """May ``window[index]`` commit given earlier pending entries?"""
        raise NotImplementedError


class SCModel(MemoryModel):
    """Sequential consistency: program order is commit order."""

    name = "sc"

    def may_commit(self, window, index):
        return index == 0


class TSOModel(MemoryModel):
    """x86-TSO: stores queue FIFO; loads execute immediately (with
    forwarding from the thread's own buffer)."""

    name = "tso"
    window_limit = 8

    def buffers_stores(self):
        return True

    def store_requires_drain(self, order):
        # SC stores compile to locked instructions on x86: they drain
        # the buffer and execute in place.
        from repro.ir.instructions import MemoryOrder

        return order is MemoryOrder.SEQ_CST

    def may_commit(self, window, index):
        return index == 0  # FIFO


class WMMModel(MemoryModel):
    """Armv8-like weak memory model (see DESIGN.md §6).

    Both loads and stores enter the window and may commit out of order,
    constrained by: per-location program order (coherence), acquire
    entries (nothing later commits first), release entries (commit only
    once everything earlier has), SC-SC program order, and RMW
    reservations (handled by the machine).
    """

    name = "wmm"
    window_limit = 8

    def buffers_stores(self):
        return True

    def buffers_loads(self):
        return True

    def rmw_requires_drain(self):
        return False

    def may_commit(self, window, index):
        entry = window[index]
        if entry.kind == "store" and entry.value_pending():
            return False  # the stored value comes from an uncommitted load
        if index and entry.rel:
            return False  # release: waits for everything earlier
        addr = entry.addr
        sc = entry.sc
        for earlier in window[:index]:
            if earlier.addr == addr:
                return False  # coherence: same-location program order
            if earlier.acq:
                return False  # acquire: later ops wait
            if sc and earlier.sc:
                return False  # SC total order respects program order
        return True


MEMORY_MODELS = {
    "sc": SCModel,
    "tso": TSOModel,
    "wmm": WMMModel,
}


def get_model(name):
    try:
        return MEMORY_MODELS[name]()
    except KeyError:
        raise ValueError(
            f"unknown memory model {name!r}; pick one of {sorted(MEMORY_MODELS)}"
        ) from None
