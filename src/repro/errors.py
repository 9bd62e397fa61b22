"""Structured exception taxonomy for the placement pipeline.

Every failure the pipeline can diagnose is raised as a
:class:`ReproError` subclass carrying the *stage* that failed, the
*design* being placed, and a free-form diagnostic *payload* — so callers
(the degradation ladder, the batch executor, the CLI) can react to the
failure class instead of pattern-matching message strings.

Each class owns a short machine-readable ``code`` (threaded into
telemetry events and :class:`~repro.runtime.jobs.JobResult.error_kind`)
and a process ``exit_code`` (the CLI contract documented in README):

====================  ==========  =========
class                 code        exit code
====================  ==========  =========
ReproError            error       1
ParseError            parse       3
ValidationError       validation  4
OptionsError          options     1
NumericalError        numerical   5
LegalizationError     legalization 6
(job timeout)         timeout     7
CacheCorruptionError  cache       8
JobCancelledError     cancelled   9
ProtocolError         protocol    1
(job quarantined)     quarantined 10
(admission shed)      shed        11
====================  ==========  =========

Exit code 2 stays reserved for argparse usage errors.  Timeouts are not
an exception class — the executor reports them in the job record — but
they share the same code→exit mapping via :func:`exit_code_for`.
"""

from __future__ import annotations

from typing import Any

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2  # argparse's own convention; never assigned to a class


class ReproError(Exception):
    """Base class for every diagnosed pipeline failure.

    Args:
        message: human-readable description.
        stage: pipeline stage that failed (``parse``, ``global_place``,
            ``legalize``, ...).
        design: name of the design being processed, when known.
        **payload: arbitrary JSON-serializable diagnostic details.

    All keyword arguments are optional so instances survive pickling
    across the process-pool boundary (exceptions unpickle via
    ``cls(*args)`` plus ``__dict__`` state).
    """

    code = "error"
    exit_code = EXIT_FAILURE

    def __init__(self, message: str, *, stage: str | None = None,
                 design: str | None = None, **payload: Any) -> None:
        super().__init__(message)
        self.message = message
        self.stage = stage
        self.design = design
        self.payload = payload

    def __str__(self) -> str:
        prefix = []
        if self.design:
            prefix.append(self.design)
        if self.stage:
            prefix.append(self.stage)
        head = f"[{'/'.join(prefix)}] " if prefix else ""
        return f"{head}{self.message}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record for telemetry and job results."""
        return {
            "code": self.code,
            "message": self.message,
            "stage": self.stage,
            "design": self.design,
            "payload": self.payload,
        }


class ParseError(ReproError, ValueError):
    """A Bookshelf (or other input) file could not be parsed.

    ``path`` and ``line`` pinpoint the offending location when known.
    Also a :class:`ValueError` so pre-taxonomy callers keep working.
    """

    code = "parse"
    exit_code = 3

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "parse"),
                         **kwargs)
        self.path = path
        self.line = line
        if path is not None:
            self.payload["path"] = str(path)
        if line is not None:
            self.payload["line"] = line

    def __str__(self) -> str:
        loc = ""
        if self.path is not None:
            loc = f"{self.path}:{self.line}: " if self.line is not None \
                else f"{self.path}: "
        return f"{loc}{self.message}"


class ValidationError(ReproError, ValueError):
    """A netlist failed structural validation.

    ``violations`` carries the stringified
    :class:`~repro.netlist.validate.Violation` records.
    Also a :class:`ValueError` so pre-taxonomy callers keep working.
    """

    code = "validation"
    exit_code = 4

    def __init__(self, message: str, *,
                 violations: list[str] | None = None, **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "validate"),
                         **kwargs)
        self.violations = violations or []
        if violations:
            self.payload["violations"] = list(violations)


class OptionsError(ReproError, ValueError):
    """A pipeline API was called with invalid options or arguments.

    This is the taxonomy home for caller bugs (bad knob values, unknown
    design/placer names, malformed generator parameters) as opposed to
    data-dependent pipeline failures.  Also a :class:`ValueError` so
    callers (and tests) using the builtin contract keep working.
    """

    code = "options"
    exit_code = EXIT_FAILURE

    def __init__(self, message: str, *, option: str | None = None,
                 **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "options"),
                         **kwargs)
        self.option = option
        if option is not None:
            self.payload["option"] = option


class NumericalError(ReproError):
    """A solver produced garbage: NaN/Inf, blowup, or divergence.

    ``reason`` is one of ``nan``, ``blowup``, ``stall``;
    ``iteration`` the iterate that tripped the guard; ``history`` the
    last recorded iterate statistics (what the guard saw on the way in).
    """

    code = "numerical"
    exit_code = 5

    def __init__(self, message: str, *, reason: str | None = None,
                 iteration: int | None = None,
                 history: list[dict] | None = None, **kwargs: Any) -> None:
        super().__init__(message, **kwargs)
        self.reason = reason
        self.iteration = iteration
        self.history = history or []
        if reason is not None:
            self.payload["reason"] = reason
        if iteration is not None:
            self.payload["iteration"] = iteration
        if history:
            self.payload["history"] = list(history)


class LegalizationError(ReproError):
    """Legalization could not produce a legal placement.

    ``cells`` samples the cells that could not be placed.
    """

    code = "legalization"
    exit_code = 6

    def __init__(self, message: str, *, cells: list[str] | None = None,
                 **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "legalize"),
                         **kwargs)
        self.cells = cells or []
        if cells:
            self.payload["cells"] = list(cells)[:20]


class CacheCorruptionError(ReproError):
    """A durable cache artifact failed its digest check."""

    code = "cache"
    exit_code = 8

    def __init__(self, message: str, *, key: str | None = None,
                 **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "cache"),
                         **kwargs)
        self.key = key
        if key is not None:
            self.payload["key"] = key


class JobCancelledError(ReproError):
    """A job was cancelled while queued or mid-placement.

    Raised at two sites only: :func:`~repro.runtime.executor.execute_job`
    before a job starts, and the job hook
    (:class:`~repro.robust.jobhook.JobHook`) on any rung of the
    degradation ladder, per global-placement iteration or at a stage
    boundary.  Nothing of the cancelled run is kept: a resubmitted job
    starts cold.  Cancellation is terminal: the batch executor never
    retries it, and the degradation ladder never falls through it to a
    lower rung.
    """

    code = "cancelled"
    exit_code = 9

    def __init__(self, message: str, **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "cancel"),
                         **kwargs)


class ProtocolError(ReproError):
    """A serve-protocol request was malformed or violated framing.

    Raised by the daemon's request decoder (oversized line, invalid
    JSON, unknown op, missing/mistyped fields) and by the client when a
    response cannot be decoded.  Protocol errors never kill the
    connection's peer jobs — they turn into ``ok: false`` responses.
    """

    code = "protocol"
    exit_code = EXIT_FAILURE

    def __init__(self, message: str, *, op: str | None = None,
                 **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "protocol"),
                         **kwargs)
        self.op = op
        if op is not None:
            self.payload["op"] = op


#: code string -> process exit code, including non-exception kinds the
#: executor reports (``timeout``, worker ``crash``).
EXIT_CODES: dict[str, int] = {
    "ok": EXIT_OK,
    "error": EXIT_FAILURE,
    "crash": EXIT_FAILURE,
    "other": EXIT_FAILURE,
    ParseError.code: ParseError.exit_code,
    ValidationError.code: ValidationError.exit_code,
    OptionsError.code: OptionsError.exit_code,
    NumericalError.code: NumericalError.exit_code,
    LegalizationError.code: LegalizationError.exit_code,
    "timeout": 7,
    CacheCorruptionError.code: CacheCorruptionError.exit_code,
    JobCancelledError.code: JobCancelledError.exit_code,
    ProtocolError.code: ProtocolError.exit_code,
    # supervision outcomes (repro.serve.supervise): a poison job parked
    # in quarantine, and a submission shed by the tripped breaker
    "quarantined": 10,
    "shed": 11,
    # a watchdog-interrupted execution (the job itself is requeued or
    # quarantined; "interrupted" only ever labels the dead attempt)
    "interrupted": EXIT_FAILURE,
}


def exit_code_for(kind: str | None) -> int:
    """Process exit code for a failure kind (unknown kinds -> 1)."""
    if kind is None:
        return EXIT_OK
    return EXIT_CODES.get(kind, EXIT_FAILURE)


def error_kind(exc: BaseException) -> str:
    """Failure-kind string for any exception (taxonomy-aware)."""
    return getattr(exc, "code", "other")
