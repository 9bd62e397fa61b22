"""CSR compaction for arena-direct placement array construction.

:class:`~repro.netlist.arena.NetlistArena` carries the *full* hypergraph
(every net, including degree-0/1 and zero-weight ones) so reconstruction
is lossless.  Placement math wants the filtered view — nets below
``min_degree``, above ``max_degree``, or with zero weight dropped — and
:func:`compact_csr` produces it directly from the flat arrays, without
re-walking Python ``Net``/``PinRef`` objects.  The per-pin mask it
returns compacts *any* per-pin array by fancy indexing, so callers
filter cell indices and offsets in the same pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["compact_csr"]


def compact_csr(net_start: np.ndarray, keep: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Compact CSR offsets to the nets selected by a boolean mask.

    Args:
        net_start: (M+1,) CSR offsets over all nets.
        keep: (M,) boolean mask of nets to retain.

    Returns:
        ``(new_start, pin_keep)`` — the (K+1,) offsets of the kept nets
        (K = ``keep.sum()``) and the (P,) per-pin boolean mask selecting
        their pins in the original flat order.
    """
    degrees = np.diff(net_start)
    pin_keep = np.repeat(keep, degrees)
    new_start = np.concatenate(
        [np.zeros(1, dtype=net_start.dtype),
         np.cumsum(degrees[keep])])
    return new_start, pin_keep
