"""The job hook: lease heartbeat and cancel poll, during a placement.

The engines call an :data:`IterationHook` once per global-placement
iteration, on every V-cycle level; the placers also poll the runtime's
:class:`JobHook` at their stage boundaries.  Each call renews the job's
lease and turns a set cancel flag into
:class:`~repro.errors.JobCancelledError`.

The hook sees no positions and keeps no state, so a retried or
resubmitted job always starts cold and places exactly as an
uninterrupted run does.
"""

from __future__ import annotations

from typing import Callable

from ..errors import JobCancelledError

#: signature of the per-iteration job hook the engines call:
#: ``hook(iteration)``.
IterationHook = Callable[[int], None]


class JobHook:
    """The runtime's job hook: ``hook(iteration)`` during global
    placement, ``hook.before(stage)`` at a stage boundary.

    Each call renews the job's lease when a ``heartbeat`` is given, then
    polls ``cancel``: a set flag raises
    :class:`~repro.errors.JobCancelledError` naming where the job was.
    """

    def __init__(self, cancel: Callable[[], bool] | None = None,
                 heartbeat: Callable[[], None] | None = None) -> None:
        self.cancel = cancel
        self.heartbeat = heartbeat

    def __call__(self, iteration: int) -> None:
        self._poll(f"at global_place iteration {iteration}")

    def before(self, stage: str) -> None:
        """Poll at a stage boundary, just before ``stage`` starts."""
        self._poll(f"before {stage}")

    def _poll(self, where: str) -> None:
        if self.heartbeat is not None:
            self.heartbeat()
        if self.cancel is not None and self.cancel():
            raise JobCancelledError(f"job cancelled {where}")
