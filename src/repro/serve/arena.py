"""Refcounted arena registry for the placement daemon.

The serve daemon runs indefinitely over an unbounded stream of designs,
so unlike :class:`~repro.runtime.shm.ArenaStore` (whose lifetime is one
batch) its arena exports need a lifecycle: each queued job holds one
reference on its design's arena from admission until the job reaches a
terminal state.  A design no job references is not torn down at once:
its compiled arena and live segment wait in a least-recently-used list
bounded by :func:`~repro.runtime.shm.arena_budget` (64 MiB, or a
quarter of the free ``/dev/shm`` when that is less), so the next job
for it neither recompiles nor re-exports.  Designs the cache-key
probe compiled (a cache hit takes no reference) wait in the same list.
Past the budget the least recently used are evicted: segment unlinked,
compile forgotten.  A later job for an evicted design re-exports from
scratch — replay-safe, because references are re-acquired when the
journal re-admits jobs on restart.

The registry is an :class:`~repro.runtime.shm.ArenaProvider`, handed to
every per-job :class:`~repro.runtime.executor.BatchExecutor` the
:class:`~repro.serve.workers.WorkerBridge` creates, so pool workers
attach the daemon-owned segments instead of each batch exporting its
own copy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import ReproError
from ..runtime import shm
from ..runtime.shm import ArenaStore, Shipment

__all__ = ["ArenaRegistry"]


class ArenaRegistry:
    """Per-design refcounts over a shared :class:`ArenaStore`, with an
    LRU of unreferenced designs kept under the arena byte budget.

    Thread-safe: the asyncio event loop acquires/releases on admission
    and terminal transitions while worker threads request shipments
    concurrently.
    """

    def __init__(self) -> None:
        self._store = ArenaStore()
        self._refs: dict[str, int] = {}
        #: unreferenced designs, least recently used first -> bytes
        self._idle: OrderedDict[str, int] = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def acquire(self, design: str) -> bool:
        """Take one reference on ``design``'s arena.

        Compiles lazily unless the design is compiled already (then it
        leaves the LRU).  Returns False (holding no reference) when the
        design cannot be compiled — the job still runs via the rebuild
        transport and reports its error through the normal path.
        """
        with self._lock:
            count = self._refs.get(design)
            if count is not None:
                self._refs[design] = count + 1
                return True
        try:
            self._store.arena(design)
        except ReproError:
            return False
        with self._lock:
            self._refs[design] = self._refs.get(design, 0) + 1
            self._idle.pop(design, None)
        return True

    def release(self, design: str) -> None:
        """Drop one reference; the last one parks the design in the LRU."""
        with self._lock:
            count = self._refs.get(design)
            if count is None:
                return
            if count > 1:
                self._refs[design] = count - 1
                return
            del self._refs[design]
        self._retain(design)

    def _retain(self, design: str) -> None:
        """Mark an unreferenced design most recently used, then evict
        the least recently used until the rest fit the budget (a design
        larger than the whole budget is dropped at once instead)."""
        nbytes = self._store.footprint(design)
        budget = shm.arena_budget()
        with self._lock:
            if design in self._refs:
                return
            for name in shm.lru_admit(self._idle, design, nbytes, budget):
                # under the lock: an acquire cannot revive it midway
                self._store.drop(name)

    # ------------------------------------------------------------------
    def digest(self, design: str) -> str:
        """Netlist fingerprint for ``design`` (compiling if needed).

        Takes no reference: an unreferenced design's compile is kept
        only as long as the LRU budget allows.
        """
        digest = self._store.digest(design)
        self._retain(design)
        return digest

    def shipment(self, design: str) -> Shipment | None:
        """ArenaProvider hook used by per-job executors."""
        return self._store.shipment(design)

    def close(self) -> None:
        """Unlink every live segment (daemon shutdown)."""
        with self._lock:
            self._refs.clear()
            self._idle.clear()
        self._store.close()

    def stats(self) -> dict[str, int]:
        """Store counters/gauges plus the live reference count and the
        LRU's size."""
        out = self._store.stats()
        with self._lock:
            out["arena.referenced_designs"] = len(self._refs)
            out["arena.references"] = sum(self._refs.values())
            out["arena.retained_designs"] = len(self._idle)
            out["arena.retained_bytes"] = sum(self._idle.values())
        return out
