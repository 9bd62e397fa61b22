"""Synchronous client for the placement daemon's unix socket.

:class:`ServeClient` is what ``repro-place submit`` (and the tests)
speak through: one blocking socket, one JSON line per request, one per
response.  Responses with ``ok: false`` raise :class:`ServeError`
carrying the daemon's taxonomy ``error_kind`` so the CLI can map it
straight to the documented exit code.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any, Callable

from ..errors import EXIT_CODES, EXIT_FAILURE, ReproError
from . import protocol


class ServeError(ReproError):
    """A daemon response with ``ok: false``, re-raised client-side.

    The daemon's ``error_kind`` becomes this error's ``code`` so
    :func:`exit_code_for` resolves it exactly as if the failure had
    happened in-process.
    """

    def __init__(self, message: str, *, kind: str = "other",
                 **kwargs: Any) -> None:
        super().__init__(message, stage=kwargs.pop("stage", "serve"),
                         **kwargs)
        self.code = kind
        self.exit_code = EXIT_CODES.get(kind, EXIT_FAILURE)


class ServeClient:
    """Blocking NDJSON client over a unix-domain socket.

    Args:
        socket_path: the daemon's listening socket.
        timeout_s: per-request socket timeout (None blocks forever —
            required for long ``result --wait`` calls).
    """

    def __init__(self, socket_path: str | Path, *,
                 timeout_s: float | None = 60.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._rfile = None

    # -- connection ----------------------------------------------------
    def connect(self) -> "ServeClient":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout_s)
            sock.connect(self.socket_path)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._rfile = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- request plumbing ----------------------------------------------
    def request(self, message: dict) -> dict:
        """One round-trip; raises :class:`ServeError` on ``ok: false``."""
        if self._sock is None or self._rfile is None:
            self.connect()
        assert self._sock is not None and self._rfile is not None
        self._sock.sendall(protocol.encode(message))
        line = self._rfile.readline(protocol.MAX_LINE_BYTES + 1)
        if not line:
            raise ServeError("daemon closed the connection",
                             kind="protocol")
        response = protocol.decode(line)
        if not response.get("ok"):
            raise ServeError(response.get("error", "daemon error"),
                             kind=response.get("error_kind", "other"))
        return response

    # -- operations ----------------------------------------------------
    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def submit(self, design: str, *, placer: str = "structure",
               seed: int = 0, priority: int = 0,
               options: dict | None = None) -> dict:
        message: dict[str, Any] = {"op": "submit", "design": design,
                                   "placer": placer, "seed": seed,
                                   "priority": priority}
        if options is not None:
            message["options"] = options
        return self.request(message)

    def status(self, job_id: str) -> dict:
        return self.request({"op": "status", "job_id": job_id})

    def result(self, job_id: str, *, wait: bool = False,
               timeout: float | None = None,
               positions: bool = False) -> dict:
        message: dict[str, Any] = {"op": "result", "job_id": job_id}
        if wait:
            message["wait"] = True
        if timeout is not None:
            message["timeout"] = timeout
        if positions:
            message["positions"] = True
        return self.request(message)

    def cancel(self, job_id: str) -> dict:
        return self.request({"op": "cancel", "job_id": job_id})

    def requeue(self, job_id: str) -> dict:
        """Revive a quarantined job with a fresh attempt budget."""
        return self.request({"op": "requeue", "job_id": job_id})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def shutdown(self, mode: str = "drain") -> dict:
        return self.request({"op": "shutdown", "mode": mode})


def wait_ready(socket_path: str | Path, *, timeout_s: float = 10.0,
               sleep: Callable[[float], None] = time.sleep,
               clock: Callable[[], float] = time.monotonic) -> bool:
    """Poll until a daemon answers ``ping`` on ``socket_path``.

    Used by ``repro-place submit`` right after spawning a daemon and by
    the tests; returns False if the deadline passes without a pong.
    """
    deadline = clock() + timeout_s
    while clock() < deadline:
        try:
            with ServeClient(socket_path, timeout_s=2.0) as client:
                if client.ping().get("pong"):
                    return True
        except (OSError, ReproError):
            pass
        sleep(0.05)
    return False
