"""Memory-model rule objects used by the operational machine.

A model decides three things:

- whether a shared load / store / RMW executes *immediately* at issue or
  enters the thread's pending window;
- which pending window entries may commit now, given everything earlier
  in program order (``committable``, one walk over the window);
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

    def committable(self, window):
        """Indices of the entries of ``window`` that may commit now.

        Program order is commit order unless a model says otherwise:
        only the head may commit.
        """
        return [0] if window else []


class SCModel(MemoryModel):
    """Sequential consistency: program order is commit order."""

    name = "sc"


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

    def committable(self, window):
        """One walk, tracking the earlier entries' addresses and whether
        one of them was SC; it stops after the first acquire entry,
        which nothing later may overtake."""
        indices = []
        earlier = set()
        earlier_sc = False
        for index, entry in enumerate(window):
            addr = entry.addr
            if not (
                addr in earlier  # coherence: same-location program order
                or (entry.sc and earlier_sc)  # SC-SC program order
                or (index and entry.rel)  # release: waits for everything
                # The stored value comes from an uncommitted load.
                or (entry.kind == "store" and type(entry.value) is tuple)
            ):
                indices.append(index)
            if entry.acq:
                break  # acquire: later ops wait
            earlier.add(addr)
            earlier_sc = earlier_sc or entry.sc
        return indices


MEMORY_MODELS = {
    "sc": SCModel,
    "tso": TSOModel,
    "wmm": WMMModel,
}

#: The models a module can fail to be robust under: what robustness
#: analysis and fence repair target.
WEAK_MODELS = tuple(name for name in MEMORY_MODELS if name != "sc")


def get_model(name):
    try:
        return MEMORY_MODELS[name]()
    except KeyError:
        raise ValueError(
            f"unknown memory model {name!r}; pick one of {sorted(MEMORY_MODELS)}"
        ) from None
