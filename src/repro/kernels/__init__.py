"""Vectorized compute kernels shared by every placement engine.

This package is the single home of the hot inner loops: every engine
(`repro.place`, `repro.core`, `repro.eval`) calls these kernels instead
of open-coding Python loops over nets, pins, or bins.  Each kernel has a
retained slow reference implementation in :mod:`repro.kernels.reference`
used by the equivalence tests and the perf-regression harness
(``benchmarks/bench_kernels.py``) — the vectorized and reference paths
must agree to 1e-9 relative tolerance or CI fails.

The kernels call numpy directly.  The allocation-heavy ones (bell
density, B2B pair enumeration) accept an optional
:class:`~repro.kernels.workspace.Workspace` that reuses their scratch
arrays across calls without changing a bit of the result.

Kernel inventory:

- :mod:`~repro.kernels.segment` — per-net (CSR segment) reductions via
  ``ufunc.reduceat``: HPWL, per-net HPWL, net bounds, pin→net
  expansion.  Subsumes the former ``_segment_reduce`` helper of
  ``repro.place.wirelength``.
- :mod:`~repro.kernels.density` — rasterized density accumulation and
  the NTUplace bell potential (value + gradient gather) via
  clipped-overlap vectorization and ``np.add.at`` scatter.
- :mod:`~repro.kernels.incremental` — :class:`IncrementalHPWL`:
  per-net cached bounds with touched-net invalidation, so detailed
  placement rescores only affected nets per move.
- :mod:`~repro.kernels.b2b` — bound-to-bound boundary-pin selection,
  pair/system assembly for the quadratic engine, and the direct pair
  gradient (:func:`b2b_grad`) for the electrostatic engine.
- :mod:`~repro.kernels.arena` — CSR net-filter compaction so the
  placement array builder consumes shared-memory arenas directly.
"""

from .arena import compact_csr
from .b2b import assemble_pairs, b2b_grad, b2b_pairs, boundary_pins
from .density import bell_value_grad, rasterize_overlap
from .incremental import IncrementalHPWL
from .segment import (expand_pin_net, hpwl_kernel, hpwl_per_net_kernel,
                      net_bounds, segment_reduce)
from .workspace import Workspace

__all__ = [
    "IncrementalHPWL",
    "Workspace",
    "assemble_pairs",
    "b2b_grad",
    "b2b_pairs",
    "bell_value_grad",
    "boundary_pins",
    "compact_csr",
    "expand_pin_net",
    "hpwl_kernel",
    "hpwl_per_net_kernel",
    "net_bounds",
    "rasterize_overlap",
    "segment_reduce",
]
