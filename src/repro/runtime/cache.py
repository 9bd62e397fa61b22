"""Content-addressed on-disk artifact cache for placement results.

A cache key is the SHA-256 of (canonicalized netlist, canonicalized
placer options, placer name, seed, code version, numpy version, cache
schema).  Identical inputs — same design, same knobs, same code — therefore
land on the same key across sessions and processes, so warm reruns of the
T2/T3 benches skip placement entirely.  Any change to options, seed,
package version or numpy build produces a new key (invalidation by
construction; nothing is ever overwritten in place).

Artifacts are JSON: a positions *snapshot* plus scalar outcome/report
metrics and slice membership.  Callers re-apply the snapshot to a freshly
built design (:func:`apply_positions`), so no two consumers ever share
live mutable cell objects — the aliasing hazard the old in-session dict
cache had.  JSON float round-tripping is exact (shortest-repr), so a
cache hit reproduces positions bit-identically.

Every stored record embeds a SHA-256 digest of its payload;
:meth:`ArtifactCache.get` verifies it on read and treats a corrupt or
truncated entry as a *miss* — the entry is evicted and recomputed, never
allowed to propagate an unpickling/decoding exception or silently serve
damaged positions.  :meth:`ArtifactCache.load_verified` exposes the
strict variant that raises :class:`~repro.errors.CacheCorruptionError`
for diagnostics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core import PlacerOptions
from ..errors import CacheCorruptionError, OptionsError
from ..netlist import Netlist
from ..robust.faults import fault_fires
from .telemetry import Tracer

# Bumped to 5 when numpy's version replaced the array-backend identity in
# the key material: positions computed by one numpy build must not be
# served for a job that would run on another — floating-point results are
# only bit-reproducible within a single numpy build.
# (4: array backend name + version; 3: multilevel options joined the
# canonical option dict.)
CACHE_SCHEMA = 5


def _code_version() -> str:
    # lazy import: repro/__init__ re-exports this package, so a module
    # level "from .. import __version__" would be circular
    import repro
    return repro.__version__


def canonical_options(options: PlacerOptions) -> dict:
    """Placer options as a stable, JSON-serializable nested dict."""
    return dataclasses.asdict(options)


def netlist_fingerprint(netlist: Netlist) -> str:
    """SHA-256 over the canonicalized netlist structure.

    Covers everything placement reads: cell masters and sizes, fixed
    flags and fixed positions (pads), net weights, and pin connectivity.
    Movable-cell start positions and free-form attributes are excluded —
    placement derives its own start and must not read ground truth.
    """
    h = hashlib.sha256()
    h.update(netlist.name.encode())
    for cell in sorted(netlist.cells, key=lambda c: c.name):
        h.update(f"|c:{cell.name}:{cell.cell_type.name}"
                 f":{cell.width!r}:{cell.height!r}:{int(cell.fixed)}"
                 .encode())
        if cell.fixed:
            h.update(f":{cell.x!r}:{cell.y!r}".encode())
    for net in sorted(netlist.nets, key=lambda n: n.name):
        pins = sorted((ref.cell.name, ref.pin.name) for ref in net.pins)
        h.update(f"|n:{net.name}:{net.weight!r}:{pins!r}".encode())
    return h.hexdigest()


def job_key_from_digest(digest: str, placer: str,
                        options: PlacerOptions | None, seed: int) -> str:
    """Content-addressed key from a precomputed netlist fingerprint.

    Identical by construction to :func:`job_key` on the netlist the
    digest was taken from — arena consumers (which carry the digest and
    never rebuild the Python netlist) and :func:`job_key` share this
    one payload assembly.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "code_version": _code_version(),
        "netlist": digest,
        "placer": placer,
        "options": canonical_options(options or PlacerOptions()),
        "numpy": np.__version__,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def job_key(netlist: Netlist, placer: str,
            options: PlacerOptions | None, seed: int) -> str:
    """Content-addressed key for one (design, placer, options, seed) run."""
    return job_key_from_digest(
        netlist_fingerprint(netlist), placer, options, seed)


def snapshot_positions(netlist: Netlist) -> dict[str, list[float]]:
    """Movable-cell positions as a plain JSON-ready mapping."""
    return {c.name: [c.x, c.y] for c in netlist.movable_cells()}


def apply_positions(netlist: Netlist,
                    positions: dict[str, list[float]]) -> int:
    """Write a positions snapshot onto a (freshly built) netlist.

    Returns the number of cells moved.  Unknown names are an error —
    a snapshot only ever matches the design it was taken from.
    """
    moved = 0
    for name, (x, y) in positions.items():
        cell = netlist.cell(name)
        cell.x = float(x)
        cell.y = float(y)
        moved += 1
    return moved


def _artifact_digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class ArtifactCache:
    """Durable key → JSON-artifact store, safe for concurrent writers.

    Writes go through a per-process temp file and :func:`Path.replace`
    (atomic on POSIX), so parallel workers racing on the same key at
    worst do redundant work — never corrupt an artifact.  Reads verify
    the embedded payload digest; a failed check evicts the entry and
    reports a miss (counted as ``cache.corrupt`` when a tracer is
    supplied).

    With ``max_bytes`` set, the whole cache holds at most that many
    bytes: a :meth:`put` over budget evicts least-recently-used entries,
    oldest first, but never the entry it just wrote.  A hit refreshes
    recency and touches the file's mtime, and the LRU order is rebuilt
    from mtimes, so it survives restarts.  Without a budget none of
    this bookkeeping runs.
    """

    def __init__(self, root: str | Path, *,
                 max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise OptionsError(
                f"max_bytes must be positive when set, got {max_bytes}",
                option="max_bytes")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self._lock = threading.RLock()
        # key -> size, least recently used first; built lazily from the
        # directory (budgeted caches only)
        self._lru: OrderedDict[str, int] | None = None

    def path(self, key: str) -> Path:
        # two-level fanout keeps directories small for big suites
        return self.root / key[:2] / f"{key}.json"

    def spec(self) -> dict:
        """Picklable recipe for rebuilding this cache in a pool worker."""
        return {"root": str(self.root), "max_bytes": self.max_bytes}

    def get(self, key: str, *, tracer: Tracer | None = None) -> dict | None:
        """The stored artifact payload, or None on miss.

        Corrupt, truncated, or legacy-format entries are evicted and
        reported as a miss — the job recomputes instead of crashing on a
        decoding error or consuming damaged positions.
        """
        try:
            payload = self.load_verified(key)
        except CacheCorruptionError as exc:
            self.corrupt += 1
            self.evict(key)
            if tracer is not None:
                tracer.incr("cache.corrupt")
                tracer.incr("cache.eviction")
                tracer.error(exc, key=key)
            return None
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
            if self.max_bytes is not None:
                self._touch(key)
        return payload

    def load_verified(self, key: str) -> dict | None:
        """Strict read: the payload, None on miss, or raises
        :class:`CacheCorruptionError` on a failed digest/format check."""
        path = self.path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return None
        if fault_fires("cache_corrupt"):
            raw = raw[:max(len(raw) // 2, 1)]  # simulated truncation
        try:
            record = json.loads(raw)
            schema = record.get("schema")
            payload = record["payload"]
            stored = record["digest"]
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError
                ) as exc:
            raise CacheCorruptionError(
                f"unreadable cache entry for key {key[:12]}…: "
                f"{type(exc).__name__}", key=key) from exc
        if schema != CACHE_SCHEMA:
            # stale on-disk format: evict-as-miss, checked before the
            # digest so a legacy record never gets its payload consumed
            raise CacheCorruptionError(
                f"cache entry for key {key[:12]}… has schema "
                f"{schema!r}, expected {CACHE_SCHEMA}", key=key)
        if not isinstance(payload, dict) \
                or stored != _artifact_digest(payload):
            raise CacheCorruptionError(
                f"artifact digest mismatch for key {key[:12]}…",
                key=key)
        return payload

    def put(self, key: str, artifact: dict) -> Path:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"schema": CACHE_SCHEMA,
                  "digest": _artifact_digest(artifact),
                  "payload": artifact}
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(record, sort_keys=True),
                       encoding="utf-8")
        tmp.replace(path)
        if self.max_bytes is not None:
            self._admit(key, path, self.max_bytes)
        return path

    def evict(self, key: str) -> None:
        """Drop one entry (corrupt reads, LRU); missing is fine."""
        try:
            self.path(key).unlink()
            self.evictions += 1
        except (FileNotFoundError, OSError):
            pass
        if self._lru is not None:
            with self._lock:
                self._lru.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def _artifact_paths(self) -> Iterator[Path]:
        """Every stored artifact file."""
        if self.root.exists():
            yield from self.root.glob("*/*.json")

    # -- LRU budget ----------------------------------------------------
    def _lru_index(self) -> OrderedDict[str, int]:
        if self._lru is None:
            stamped = []
            for path in self._artifact_paths():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                stamped.append((stat.st_mtime, path.stem, stat.st_size))
            self._lru = OrderedDict(
                (key, size) for _, key, size in sorted(stamped))
        return self._lru

    def _touch(self, key: str) -> None:
        """Refresh a key's recency (index order + file mtime)."""
        with self._lock:
            lru = self._lru_index()
            if key in lru:
                lru.move_to_end(key)
        try:
            os.utime(self.path(key))
        except OSError:
            pass

    def _admit(self, key: str, path: Path, budget: int) -> None:
        """Index a fresh entry, then evict LRU entries over budget."""
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        with self._lock:
            lru = self._lru_index()
            lru[key] = size
            lru.move_to_end(key)
            total = sum(lru.values())
            # the fresh entry sits last, so it is never evicted
            while total > budget and len(lru) > 1:
                oldest, oldest_size = next(iter(lru.items()))
                self.evict(oldest)  # also drops it from the index
                total -= oldest_size

    def stats(self) -> dict:
        """Instance counters plus on-disk usage, JSON-ready.

        ``hits``/``misses``/``evictions``/``corrupt`` count this
        instance's activity; ``entries``/``bytes`` scan the directory so
        they reflect every writer that shares the path.
        """
        entries = 0
        total = 0
        for path in self._artifact_paths():
            try:
                total += path.stat().st_size
                entries += 1
            except OSError:
                continue
        return {"entries": entries, "bytes": total, "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "corrupt": self.corrupt}

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        for path in self._artifact_paths():
            path.unlink()
            removed += 1
        return removed


def cache_from_spec(spec: dict | None) -> ArtifactCache | None:
    """Rebuild a cache from :meth:`ArtifactCache.spec` (pool workers)."""
    if spec is None:
        return None
    return ArtifactCache(spec["root"], max_bytes=spec.get("max_bytes"))
