"""Shared plumbing: run results, seed derivation, digests, metadata."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

#: the seed that reproduces the designs of the existing benches
DEFAULT_SEED = 0

#: scratch space of a run, relative to the repository root (the run's
#: working directory); ignored by git
RUNS_DIR = Path("perfbench") / ".runs"


@dataclass
class RunResult:
    """What one workload run produced, before printing."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: layers expected on this workload that no wrapper saw
    missing: list[str] = field(default_factory=list)
    #: stage -> (program phase s, wrapped s, relative gap)
    stage_table: dict[str, tuple[float, float, float]] = \
        field(default_factory=dict)


def derive_seed(seed: int, label: str, default: int) -> int:
    """``default`` for the default seed, else a stable hash of both."""
    if seed == DEFAULT_SEED:
        return default
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2 ** 31 - 1) + 1


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_fingerprint() -> str:
    """Content hash of the program sources under ``src/``."""
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Placement digests remembered across runs of one checkout.

    Keys include the program's source fingerprint, so a changed program
    starts a fresh record instead of tripping the comparison.
    """

    def __init__(self, path: Path, fingerprint: str) -> None:
        self.path = path
        self.prefix = fingerprint
        self.data: dict[str, str] = {}
        if path.exists():
            try:
                self.data = json.loads(path.read_text())
            except (OSError, ValueError):
                self.data = {}
        self.dirty = False

    def check(self, key: str, value: str) -> bool:
        """Record ``value``; False when it differs from an earlier one."""
        key = f"{self.prefix}/{key}"
        known = self.data.get(key)
        if known is None:
            self.data[key] = value
            self.dirty = True
            return True
        return known == value

    def save(self) -> None:
        if not self.dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        tmp.replace(self.path)


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True,
                             timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") \
        if commit else None
    return {
        "git_commit": commit or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "source_fingerprint": source_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }
