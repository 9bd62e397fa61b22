"""Wire protocol for the placement daemon: newline-delimited JSON.

One request per line, one response per line, over a local stream
socket.  Requests are JSON objects with an ``op`` field::

    {"op": "submit", "design": "dp_add8", "placer": "structure",
     "seed": 0, "priority": 5}
    {"op": "status", "job_id": "j000001"}
    {"op": "result", "job_id": "j000001", "wait": true, "timeout": 60}
    {"op": "cancel", "job_id": "j000001"}
    {"op": "requeue", "job_id": "j000001"}
    {"op": "stats"}
    {"op": "shutdown", "mode": "drain"}
    {"op": "ping"}

Responses always carry ``ok``; failures add ``error`` (message) and
``error_kind`` (the taxonomy code the CLI maps to an exit code).
Framing keeps every message on one line so any log tool can tail the
conversation; :data:`MAX_LINE_BYTES` bounds what the daemon will buffer
for one request (oversized requests are a :class:`ProtocolError`,
never an allocation).

Job lifecycle states (``state`` in status/result responses)::

    queued -> running -> done | failed | cancelled | quarantined
                  ^          |
                  +- requeue-+   (watchdog stall / crash, with backoff)

A warm-cache submission skips the queue entirely and is born ``done``
with ``cached: true``.  ``quarantined`` is where poison jobs park: a
job whose cross-restart attempt count exceeds the daemon's
``--max-attempts`` stops crash-looping and waits for an explicit
``{"op": "requeue", "job_id": ...}`` to revive it with a fresh attempt
budget.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from ..errors import ProtocolError
from ..runtime.jobs import PLACER_NAMES

PROTOCOL_VERSION = 1

#: upper bound for one request/response line (framing guard).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: every operation the daemon answers.
OPS = ("submit", "status", "result", "cancel", "requeue", "stats",
       "shutdown", "ping")

#: job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
QUARANTINED = "quarantined"
TERMINAL_STATES = (DONE, FAILED, CANCELLED, QUARANTINED)

#: shutdown modes: drain finishes all accepted work; "now" stops after
#: the in-flight jobs checkpoint (queued work is journaled for restart).
SHUTDOWN_MODES = ("drain", "now")


def encode(message: dict) -> bytes:
    """One protocol message as a single JSON line."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one line into a message dict.

    Raises:
        ProtocolError: not valid JSON, not an object, or oversized.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"message of {len(line)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte frame limit")
        text = line.decode("utf-8", errors="replace")
    else:
        text = line
    try:
        message = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol messages are JSON objects, got "
            f"{type(message).__name__}")
    return message


def _require(message: dict, field_name: str, types: tuple, op: str) -> Any:
    value = message.get(field_name)
    if not isinstance(value, types):
        expected = "/".join(t.__name__ for t in types)
        raise ProtocolError(
            f"{op!r} needs {field_name!r} of type {expected}, got "
            f"{type(value).__name__}", op=op)
    return value


def validate_request(message: dict) -> str:
    """Check a request's shape; returns the validated op.

    Field-level validation only — semantic checks (unknown design,
    unknown job id) belong to the handlers, which answer with taxonomy
    errors of their own.
    """
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {OPS}", op=str(op))
    if op == "submit":
        _require(message, "design", (str,), op)
        placer = message.get("placer", "structure")
        if placer not in PLACER_NAMES:
            raise ProtocolError(
                f"unknown placer {placer!r}; expected one of "
                f"{PLACER_NAMES}", op=op)
        if not isinstance(message.get("seed", 0), int):
            raise ProtocolError("'seed' must be an integer", op=op)
        if not isinstance(message.get("priority", 0), int):
            raise ProtocolError("'priority' must be an integer", op=op)
        options = message.get("options")
        if options is not None and not isinstance(options, dict):
            raise ProtocolError("'options' must be an object", op=op)
    elif op in ("status", "result", "cancel", "requeue"):
        _require(message, "job_id", (str,), op)
    elif op == "shutdown":
        mode = message.get("mode", "drain")
        if mode not in SHUTDOWN_MODES:
            raise ProtocolError(
                f"unknown shutdown mode {mode!r}; expected one of "
                f"{SHUTDOWN_MODES}", op=op)
    return op


def ok_response(**fields: Any) -> dict:
    response = {"ok": True}
    response.update(fields)
    return response


def error_response(exc: BaseException, **fields: Any) -> dict:
    response: dict[str, Any] = {
        "ok": False,
        "error": str(exc) or repr(exc),
        "error_kind": getattr(exc, "code", "other"),
    }
    response.update(fields)
    return response


def options_from_dict(payload: dict | None) -> Any:
    """Rebuild :class:`~repro.core.PlacerOptions` from a JSON payload.

    Accepts the same nested shape :func:`~repro.runtime.cache
    .canonical_options` emits; unknown keys raise — a typo'd knob must
    not silently place with defaults.  Dict values recurse into the
    matching sub-options dataclass.  Every leaf must have its default's
    type (an int may stand for a float; a bool never stands for a
    number), so a malformed payload is a :class:`ProtocolError` at
    submit, not a failed job.
    """
    from ..core import PlacerOptions
    if payload is None:
        return None
    return _hydrate(PlacerOptions, payload, path="options")


def _hydrate(cls: type, payload: dict, *, path: str) -> Any:
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ProtocolError(
            f"unknown {path} field(s): {', '.join(unknown)}", op="submit")
    kwargs: dict[str, Any] = {}
    defaults = cls()
    for name, value in payload.items():
        current = getattr(defaults, name)
        where = f"{path}.{name}"
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise ProtocolError(
                    f"{where} must be an object, got "
                    f"{type(value).__name__}", op="submit")
            kwargs[name] = _hydrate(type(current), value, path=where)
        elif not _leaf_type_ok(value, current):
            raise ProtocolError(
                f"{where} must be {type(current).__name__}, got "
                f"{type(value).__name__}", op="submit")
        else:
            kwargs[name] = value
    return cls(**kwargs)


def _leaf_type_ok(value: Any, default: Any) -> bool:
    """True when ``value`` may stand in for an option leaf ``default``."""
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return type(value) is type(default)
