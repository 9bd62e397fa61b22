"""Checkpoint/resume for global placement.

A :class:`CheckpointStore` persists periodic position snapshots taken
during the global-placement loop, keyed by the same content-addressed
job key the artifact cache uses.  A timed-out or crashed job that is
retried loads the last snapshot and re-enters the loop at the recorded
iteration instead of cold-starting — the expensive early spreading
iterations are never repeated.

Checkpoints are JSON with an embedded SHA-256 digest (same discipline as
:class:`~repro.runtime.cache.ArtifactCache`): a truncated or corrupted
snapshot is detected on load and treated as "no checkpoint", never as
garbage positions.  Writes are atomic (temp file + rename), so a job
killed mid-save leaves the previous snapshot intact.

:class:`CheckpointRecorder` is the one per-iteration job hook: the
engines call it once per global-placement iteration, and it renews the
job's lease, turns a set cancel flag into
:class:`~repro.errors.JobCancelledError`, and saves periodic snapshots
when a store is given.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import CacheCorruptionError, JobCancelledError

CHECKPOINT_SCHEMA = 1

#: signature of the per-iteration job hook the engines call:
#: ``checkpoint(iteration, x, y)``.
CheckpointHook = Callable[[int, np.ndarray, np.ndarray], None]


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class Checkpoint:
    """One resumable global-placement snapshot."""

    iteration: int
    x: np.ndarray
    y: np.ndarray
    stage: str = "global_place"

    def matches(self, num_cells: int) -> bool:
        """True when the snapshot shape fits the design being resumed."""
        return self.x.shape == (num_cells,) and self.y.shape == (num_cells,)


class CheckpointRecorder:
    """The per-iteration job hook the engines call: ``hook(iteration, x, y)``.

    Each call does three things, in order:

    - renews the job's lease when a ``heartbeat`` is given;
    - polls ``cancel``; a set flag forces a final snapshot (so a later
      resume continues where the cancel landed) and raises
      :class:`~repro.errors.JobCancelledError`;
    - saves a snapshot every ``store.interval`` iterations, only when a
      ``store`` is given.

    Saving never raises — a full disk must degrade to "no checkpoint",
    not sink the placement run.
    """

    def __init__(self, store: "CheckpointStore | None", key: str, *,
                 cancel: Callable[[], bool] | None = None,
                 heartbeat: Callable[[], None] | None = None) -> None:
        self.store = store
        self.key = key
        self.cancel = cancel
        self.heartbeat = heartbeat

    def __call__(self, iteration: int, x: np.ndarray, y: np.ndarray,
                 stage: str = "global_place") -> None:
        if self.heartbeat is not None:
            self.heartbeat()
        if self.cancel is not None and self.cancel():
            self._save(iteration, x, y, stage)
            raise JobCancelledError(
                f"job cancelled at {stage} iteration {iteration}")
        if self.store is not None and iteration % self.store.interval == 0:
            self._save(iteration, x, y, stage)

    def without_snapshots(self) -> "CheckpointRecorder":
        """The cancel-and-heartbeat part of this hook, saving nothing."""
        return CheckpointRecorder(None, self.key, cancel=self.cancel,
                                  heartbeat=self.heartbeat)

    def _save(self, iteration: int, x: np.ndarray, y: np.ndarray,
              stage: str) -> None:
        if self.store is None:
            return
        try:
            self.store.save(self.key, iteration, x, y, stage=stage)
        except OSError:
            pass


class CheckpointStore:
    """Durable key -> checkpoint JSON store with digest verification."""

    def __init__(self, root: str | Path, *, interval: int = 5) -> None:
        self.root = Path(root)
        self.interval = max(interval, 1)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.ckpt.json"

    # ------------------------------------------------------------------
    def save(self, key: str, iteration: int, x: np.ndarray, y: np.ndarray,
             *, stage: str = "global_place") -> Path:
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "iteration": int(iteration),
            "stage": stage,
            "x": np.asarray(x, dtype=float).tolist(),
            "y": np.asarray(y, dtype=float).tolist(),
        }
        record = {"digest": _digest(payload), "payload": payload}
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(record), encoding="utf-8")
        tmp.replace(path)
        return path

    def load(self, key: str) -> Checkpoint | None:
        """The last snapshot for ``key``, or None (missing or corrupt).

        Corrupt/truncated snapshots are evicted and reported as None —
        resuming from garbage would be worse than a cold start.
        """
        try:
            checkpoint = self.load_verified(key)
        except CacheCorruptionError:
            self.clear(key)
            return None
        return checkpoint

    def load_verified(self, key: str) -> Checkpoint | None:
        """Like :meth:`load` but raises on corruption instead of evicting."""
        path = self.path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return None
        try:
            record = json.loads(raw)
            payload = record["payload"]
            if record["digest"] != _digest(payload) \
                    or payload["schema"] != CHECKPOINT_SCHEMA:
                raise KeyError("digest")
            return Checkpoint(
                iteration=int(payload["iteration"]),
                x=np.asarray(payload["x"], dtype=float),
                y=np.asarray(payload["y"], dtype=float),
                stage=payload.get("stage", "global_place"))
        except (json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise CacheCorruptionError(
                f"corrupt checkpoint for key {key[:12]}…: {exc}",
                key=key) from exc

    def clear(self, key: str) -> None:
        """Drop the snapshot for ``key`` (after a successful run)."""
        try:
            self.path(key).unlink()
        except (FileNotFoundError, OSError):
            pass
