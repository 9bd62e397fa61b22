"""Shared-memory arena dispatch and cross-process cancel tokens.

This module owns the *transport* side of the netlist-arena subsystem
(:mod:`repro.netlist.arena` owns the data layout):

- :class:`ArenaStore` — parent-side compile/export memo.  The first job
  for a design compiles its arena and exports the serialized blob into
  one ``multiprocessing.shared_memory`` segment; every later job over
  the same design ships only an :class:`ArenaRef` (digest + segment
  name, ~200 bytes pickled) instead of the Python netlist graph.
- :func:`attach_shipment` — worker-side attach with a per-process cache
  keyed by digest, so a worker maps each design's segment once per
  lifetime no matter how many jobs it executes.
- :class:`CancelBoard` — one shared byte per batch, the executor's
  cancel token mirrored where pool workers can poll it mid-iteration
  (the graceful counterpart to ``BatchExecutor.interrupt()``'s
  SIGTERM).

Transports, in fallback order:

``"shm"``
    the arena blob lives in ``/dev/shm``; jobs carry an ``ArenaRef``.
``"pickle"``
    shared memory is unavailable (or fault-injected away): the blob is
    pickled into every job submission — still skips the per-job
    generator rebuild, but pays per-job transfer.
``"rebuild"``
    the arena compile itself failed (or shm dispatch is disabled): the
    worker rebuilds the design from its generator, exactly as before
    this subsystem existed.

Resource-tracker note: on CPython < 3.13 *attaching* to a segment also
registers it with a resource tracker.  Under ``fork`` (the Linux pool
default) children inherit the parent's tracker, so the extra
registration dedups harmlessly and MUST NOT be unregistered — doing so
would strip the parent's crash-cleanup entry.  Under ``spawn`` each
child runs its own tracker, which would unlink the parent's segments
when the worker exits; there (and only there) the attach helpers
unregister their handle.  The creating process always owns the
``unlink``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Protocol

from ..errors import ReproError, ValidationError
from ..netlist.arena import NetlistArena
from ..robust.faults import fault_fires

__all__ = [
    "ArenaRef",
    "Shipment",
    "ArenaStore",
    "ArenaProvider",
    "attach_shipment",
    "CancelBoard",
    "CancelBoardRef",
]


@dataclass(frozen=True)
class ArenaRef:
    """Pointer to an exported arena segment (what shm jobs carry)."""

    digest: str
    segment: str
    nbytes: int
    design: str
    creator_pid: int = 0


@dataclass(frozen=True)
class Shipment:
    """Per-design dispatch decision made by the parent process.

    Exactly one of ``ref`` (transport ``"shm"``) or ``arena_blob``
    (transport ``"pickle"``) is set; ``bytes_per_job`` is the payload
    each job submission carries for telemetry.
    """

    transport: str
    design: str
    digest: str
    ref: ArenaRef | None = None
    arena_blob: bytes | None = None
    bytes_per_job: int = 0


class ArenaProvider(Protocol):
    """Anything that can produce shipments for job designs."""

    def shipment(self, design: str) -> Shipment | None:
        """Return the dispatch decision for ``design``.

        ``None`` means the arena could not be compiled and the job
        should fall back to the legacy rebuild-in-worker transport.
        """


def _segment_name(digest: str, seq: int) -> str:
    # deterministic per (process, sequence): no RNG in the name, the
    # pid+seq pair already guarantees uniqueness on one host
    return f"repro-arena-{digest[:12]}-{os.getpid()}-{seq}"


class ArenaStore:
    """Parent-side arena compiler and shared-memory exporter.

    Thread-safe; both :class:`~repro.runtime.executor.BatchExecutor`
    (which owns a store per batch when none is injected) and the serve
    daemon's refcounting registry wrap one.  Counters (``arena.*``) are
    folded into the caller's tracer after the batch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._arenas: dict[str, NetlistArena] = {}
        self._shipments: dict[str, Shipment | None] = {}
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._seq = 0
        self.counters: dict[str, int] = {}

    def _incr(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    # ------------------------------------------------------------------
    def arena(self, design: str) -> NetlistArena:
        """Compile (or return the memoized) arena for ``design``.

        Raises:
            ReproError: the design is unknown or violates an arena
                invariant (callers catch this and fall back).
        """
        with self._lock:
            arena = self._arenas.get(design)
        if arena is not None:
            return arena
        from ..gen.suites import build_design
        from ..netlist.arena import NetlistArena as _Arena
        compiled = _Arena.compile(build_design(design))
        with self._lock:
            # a racing thread may have compiled too; first one wins so
            # every consumer shares one object
            arena = self._arenas.setdefault(design, compiled)
        return arena

    def digest(self, design: str) -> str:
        """Netlist fingerprint for ``design`` (compiling if needed)."""
        return self.arena(design).digest

    def shipment(self, design: str) -> Shipment | None:
        """Export ``design`` and return its dispatch decision.

        Returns ``None`` (transport "rebuild") when the arena cannot be
        compiled — the per-job error surfaces in the worker exactly as
        it did before arenas existed.
        """
        with self._lock:
            if design in self._shipments:
                return self._shipments[design]
        try:
            arena = self.arena(design)
        except ReproError:
            # unknown design / invariant violation: let the worker
            # rebuild and report the error through the normal job path
            with self._lock:
                self._shipments[design] = None
            self._incr("arena.fallback_rebuild")
            return None
        shipment = self._export(design, arena)
        with self._lock:
            existing = self._shipments.setdefault(design, shipment)
        if existing is not shipment and shipment.ref is not None:
            # lost a race: release the segment we just created
            self._release_segment(shipment.ref.segment)
        return existing

    def _export(self, design: str, arena: NetlistArena) -> Shipment:
        blob = arena.to_bytes()
        if not fault_fires("shm_unavailable"):
            try:
                with self._lock:
                    self._seq += 1
                    seq = self._seq
                shm = shared_memory.SharedMemory(
                    name=_segment_name(arena.digest, seq),
                    create=True, size=len(blob))
            except OSError:
                pass  # /dev/shm missing, full, or name exhausted
            else:
                try:
                    shm.buf[:len(blob)] = blob
                    with self._lock:
                        self._segments[shm.name] = shm
                except BaseException:
                    # nothing owns the segment yet: unlink before the
                    # exception propagates or /dev/shm keeps it forever
                    shm.close()
                    shm.unlink()
                    raise
                ref = ArenaRef(digest=arena.digest, segment=shm.name,
                               nbytes=len(blob), design=design,
                               creator_pid=os.getpid())
                self._incr("arena.exports")
                return Shipment(
                    transport="shm", design=design, digest=arena.digest,
                    ref=ref,
                    bytes_per_job=len(pickle.dumps(
                        ref, protocol=pickle.HIGHEST_PROTOCOL)))
        self._incr("arena.fallback_pickle")
        return Shipment(transport="pickle", design=design,
                        digest=arena.digest, arena_blob=blob,
                        bytes_per_job=len(blob))

    # ------------------------------------------------------------------
    def _release_segment(self, name: str) -> None:
        with self._lock:
            shm = self._segments.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except OSError:  # repro-lint: disable=NUM03
            pass  # already gone (e.g. external cleanup); nothing to leak

    def drop(self, design: str) -> None:
        """Forget ``design`` and unlink its segment, if any."""
        with self._lock:
            self._arenas.pop(design, None)
            shipment = self._shipments.pop(design, None)
        if shipment is not None and shipment.ref is not None:
            self._release_segment(shipment.ref.segment)

    def close(self) -> None:
        """Unlink every exported segment and clear the memo."""
        with self._lock:
            names = list(self._segments)
            self._arenas.clear()
            self._shipments.clear()
        for name in names:
            self._release_segment(name)

    def stats(self) -> dict[str, int]:
        """Counter snapshot plus live segment/arena gauges."""
        with self._lock:
            out = dict(self.counters)
            out["arena.designs"] = len(self._arenas)
            out["arena.segments"] = len(self._segments)
            out["arena.segment_bytes"] = sum(
                s.size for s in self._segments.values())
        return out


# ----------------------------------------------------------------------
# worker-side attach
# ----------------------------------------------------------------------

#: per-process attach cache: digest -> (arena, segment handle or None).
#: Entries live for the worker's lifetime; pool workers are recycled
#: wholesale, so there is no eviction.
_ATTACH_CACHE: dict[str, tuple[NetlistArena, shared_memory.SharedMemory | None]] = {}


def _untrack(shm: shared_memory.SharedMemory, creator_pid: int) -> None:
    """Undo an attach-side tracker registration when it is unsafe.

    Only ``spawn`` children run their own tracker; leaving the
    registration there would unlink the creator's segment at worker
    exit.  ``fork`` children share the creator's tracker, where the
    attach registration dedups and must stay (it is the creator's
    crash-cleanup entry).
    """
    if creator_pid == os.getpid():
        return  # same process: the create-side registration stands
    try:
        if multiprocessing.get_start_method(allow_none=True) != "spawn":
            return
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]  # noqa: SLF001
    except Exception:  # repro-lint: disable=NUM03
        pass  # 3.13+ track=False semantics or no tracker: nothing to undo


def attach_shipment(shipment: Shipment) -> NetlistArena:
    """Materialize a shipment's arena in this (worker) process.

    shm shipments map the parent's segment read-only, zero-copy, and
    cache the mapping by digest; pickle shipments deserialize the blob
    (also cached, so retries of the same design stay cheap).

    Raises:
        OSError: the segment vanished (parent died or unlinked early).
        ReproError: the blob does not parse as an arena.
    """
    cached = _ATTACH_CACHE.get(shipment.digest)
    if cached is not None:
        return cached[0]
    if shipment.transport == "shm" and shipment.ref is not None:
        shm = shared_memory.SharedMemory(name=shipment.ref.segment)
        _untrack(shm, shipment.ref.creator_pid)
        arena = NetlistArena.from_buffer(
            shm.buf[:shipment.ref.nbytes])
        # the handle must outlive the zero-copy views; it is never
        # closed here — the OS reclaims the mapping at process exit and
        # the creating process owns the unlink
        _ATTACH_CACHE[shipment.digest] = (arena, shm)
        return arena
    if shipment.arena_blob is None:
        raise ValidationError(
            "shipment carries neither a segment nor a blob")
    arena = NetlistArena.from_buffer(shipment.arena_blob)
    _ATTACH_CACHE[shipment.digest] = (arena, None)
    return arena


def _clear_attach_cache() -> None:
    """Test hook: drop this process's attach cache (closing handles)."""
    for _, shm in _ATTACH_CACHE.values():
        if shm is not None:
            try:
                shm.close()
            except (OSError, BufferError):  # repro-lint: disable=NUM03
                # BufferError: zero-copy arena views are still alive;
                # the mapping is reclaimed by gc once they die
                pass
    _ATTACH_CACHE.clear()


# ----------------------------------------------------------------------
# cancel board
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CancelBoardRef:
    """Pointer to a cancel board's segment (what jobs carry)."""

    segment: str
    creator_pid: int = 0


class CancelBoard:
    """One shared byte per batch: the cross-process cancel flag.

    The executor creates the board (zeroed) and mirrors its cancel
    token onto it with :meth:`set`; pool workers attach and poll
    :meth:`is_set` from the per-iteration job hook, which forces a
    final checkpoint save and raises ``JobCancelledError`` — graceful,
    unlike the SIGTERM backstop.
    """

    _SEQ = 0
    _SEQ_LOCK = threading.Lock()

    def __init__(self) -> None:
        with CancelBoard._SEQ_LOCK:
            CancelBoard._SEQ += 1
            seq = CancelBoard._SEQ
        self._owner = True
        self._shm = shared_memory.SharedMemory(
            name=f"repro-cancel-{os.getpid()}-{seq}", create=True, size=1)
        self._shm.buf[0] = 0

    @classmethod
    def attach(cls, ref: CancelBoardRef) -> "CancelBoard":
        """Worker-side attach (does not own the unlink)."""
        board = cls.__new__(cls)
        board._owner = False
        board._shm = shared_memory.SharedMemory(name=ref.segment)
        _untrack(board._shm, ref.creator_pid)
        return board

    def ref(self) -> CancelBoardRef:
        return CancelBoardRef(segment=self._shm.name,
                              creator_pid=os.getpid())

    def set(self) -> None:
        self._shm.buf[0] = 1

    def is_set(self) -> bool:
        return bool(self._shm.buf[0])

    def close(self, unlink: bool = False) -> None:
        try:
            self._shm.close()
            if unlink and self._owner:
                self._shm.unlink()
        except OSError:  # repro-lint: disable=NUM03
            pass  # segment already reclaimed
