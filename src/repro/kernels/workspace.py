"""Reusable scratch arrays for the allocation-heavy kernels."""

from __future__ import annotations

from typing import Any

import numpy as np


class Workspace:
    """Named, reusable scratch arrays.

    The density-bell and B2B-assembly kernels allocate multi-megabyte
    scratch arrays on every call; a per-design workspace amortises the
    allocator traffic: :meth:`take` hands back the same capacity-grown
    buffer (sliced to the requested shape) on every call with the same
    tag.  Buffers are *dirty* by default — callers that need zeros pass
    ``zero=True`` and pay exactly the fill, not the allocation.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, tag: str, shape: tuple[int, ...], dtype: Any = None,
             *, zero: bool = False) -> np.ndarray:
        """A scratch array of ``shape`` under ``tag``, reused when the
        cached capacity suffices (each dimension grows monotonically)."""
        dtype = dtype or np.float64
        buf = self._bufs.get(tag)
        if (buf is None or buf.dtype != dtype or buf.ndim != len(shape)
                or any(c < s for c, s in zip(buf.shape, shape))):
            grown = shape if buf is None else tuple(
                max(c, s) for c, s in zip(buf.shape, shape))
            buf = np.empty(grown, dtype=dtype)
            self._bufs[tag] = buf
        view = buf[tuple(slice(0, s) for s in shape)]
        if zero:
            view[...] = 0
        return view
