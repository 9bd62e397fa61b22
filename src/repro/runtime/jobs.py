"""Job and result records for the batch-placement runtime.

A :class:`PlacementJob` names everything needed to reproduce one
placement run — suite design × placer × options × seed — in *value* form,
so it pickles cleanly across the process-pool boundary and hashes stably
into a cache key.  A :class:`JobResult` is the flattened, serializable
outcome: scalar metrics, a positions snapshot, slice membership (names
only, never live cells), telemetry events, and error/retry accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import PlacerOptions
from ..errors import OptionsError

PLACER_NAMES = ("baseline", "structure")


@dataclass(frozen=True)
class PlacementJob:
    """One reproducible placement run.

    Attributes:
        design: named suite design (rebuilt deterministically in the
            worker via :func:`repro.gen.build_design`).
        placer: ``"baseline"`` or ``"structure"``.
        options: placer options; defaults applied lazily so the common
            case stays hashable and tiny.
        seed: run seed; part of the job's cache key.
    """

    design: str
    placer: str = "structure"
    options: PlacerOptions | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.placer not in PLACER_NAMES:
            raise OptionsError(
                f"unknown placer {self.placer!r}; expected one of "
                f"{PLACER_NAMES}")

    @property
    def label(self) -> str:
        return f"{self.design}:{self.placer}:s{self.seed}"

    def resolved_options(self) -> PlacerOptions:
        """The job's options, defaults applied."""
        return self.options or PlacerOptions()


@dataclass
class JobResult:
    """Everything one job produced, in process-portable form.

    ``cached`` records whether the artifact came from the durable cache;
    ``attempts`` counts executions including retries; ``error`` is the
    repr of the terminal exception when the job ultimately failed and
    ``error_kind`` its taxonomy code (``parse``/``validation``/
    ``numerical``/``legalization``/``timeout``/``crash``/``other``) —
    the CLI maps it to the documented exit code.  ``degradation`` is the
    :class:`~repro.robust.fallback.DegradationReport` dict when the
    fallback ladder ran.
    ``queue_wait_s`` is the submit→start latency the executor (or the
    serve daemon) measured for this job — execution time is in
    ``runtime_s``, so total latency is their sum.  ``transport`` records
    how the design reached the worker (``"shm"`` — shared-memory arena
    ref, ``"pickle"`` — pickled arena blob, ``"rebuild"`` — legacy
    generator rebuild; ``None`` for serial in-process execution) and
    ``bytes_shipped`` the per-job payload that transport carried.
    """

    job: PlacementJob
    status: str = "ok"                      # "ok" | "error"
    cached: bool = False
    attempts: int = 1
    error: str | None = None
    error_kind: str | None = None
    degradation: dict | None = None
    queue_wait_s: float = 0.0
    transport: str | None = None
    bytes_shipped: int = 0
    key: str | None = None
    placer_name: str = ""                   # display name, e.g. "baseline"
    hpwl_gp: float = 0.0
    hpwl_legal: float = 0.0
    hpwl_final: float = 0.0
    runtime_s: float = 0.0
    extract_s: float = 0.0
    gp_s: float = 0.0
    legalize_s: float = 0.0
    detailed_s: float = 0.0
    violations: int = 0
    metrics: dict[str, float | bool] = field(default_factory=dict)
    slices: list[list[str]] = field(default_factory=list)
    positions: dict[str, list[float]] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def legal(self) -> bool:
        return self.violations == 0

    def row(self) -> dict[str, object]:
        """One deterministic result-table row."""
        row: dict[str, object] = {
            "design": self.job.design,
            "placer": self.placer_name or self.job.placer,
            "seed": self.job.seed,
        }
        if not self.ok:
            row.update({"status": "error", "error": self.error or "",
                        "error_kind": self.error_kind or "other"})
            return row
        row.update({
            "hpwl": round(self.hpwl_final, 1),
            "steiner": round(float(self.metrics.get("steiner", 0.0)), 1),
            "rudy_max": round(float(self.metrics.get("rudy_max", 0.0)), 3),
            "legal": self.legal,
            "time_s": round(self.runtime_s, 2),
            "cached": self.cached,
        })
        if self.degradation and self.degradation.get("degraded"):
            row["rung"] = self.degradation.get("succeeded")
        if self.transport is not None:
            # parallel dispatch only: serial rows keep their old shape
            row["transport"] = self.transport
            row["bytes_shipped"] = self.bytes_shipped
        return row

    @property
    def degraded(self) -> bool:
        return bool(self.degradation) and \
            bool(self.degradation.get("degraded"))

    def to_artifact(self) -> dict:
        """The JSON-cacheable subset (no events; traces are per-run)."""
        return {
            "job": {"design": self.job.design, "placer": self.job.placer,
                    "seed": self.job.seed},
            "key": self.key,
            "placer_name": self.placer_name,
            "outcome": {
                "hpwl_gp": self.hpwl_gp,
                "hpwl_legal": self.hpwl_legal,
                "hpwl_final": self.hpwl_final,
                "runtime_s": self.runtime_s,
                "extract_s": self.extract_s,
                "gp_s": self.gp_s,
                "legalize_s": self.legalize_s,
                "detailed_s": self.detailed_s,
                "violations": self.violations,
            },
            "metrics": self.metrics,
            "slices": self.slices,
            "positions": self.positions,
            "degradation": self.degradation,
        }

    @classmethod
    def from_artifact(cls, job: PlacementJob, artifact: dict,
                      *, cached: bool = True) -> "JobResult":
        outcome = artifact["outcome"]
        return cls(
            job=job,
            cached=cached,
            key=artifact.get("key"),
            placer_name=artifact.get("placer_name", job.placer),
            hpwl_gp=outcome["hpwl_gp"],
            hpwl_legal=outcome["hpwl_legal"],
            hpwl_final=outcome["hpwl_final"],
            runtime_s=outcome["runtime_s"],
            extract_s=outcome["extract_s"],
            gp_s=outcome["gp_s"],
            legalize_s=outcome["legalize_s"],
            detailed_s=outcome["detailed_s"],
            violations=outcome["violations"],
            metrics=dict(artifact.get("metrics", {})),
            slices=[list(s) for s in artifact.get("slices", [])],
            positions={k: list(v)
                       for k, v in artifact.get("positions", {}).items()},
            degradation=artifact.get("degradation"),
        )
