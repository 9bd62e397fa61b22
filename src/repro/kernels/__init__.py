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
  expansion.
- :mod:`~repro.kernels.density` — rasterized density accumulation and
  the NTUplace bell potential (value + gradient gather) via
  clipped-overlap vectorization and ``np.add.at`` scatter.  No engine
  calls the bell kernel; it stays for the kernel benchmark and
  perfbench's ``kernels.density`` layer.
- :mod:`~repro.kernels.incremental` — :class:`IncrementalHPWL`:
  per-net cached bounds with touched-net invalidation, so detailed
  placement rescores only affected nets per move; built from the
  compaction of the netlist's flat view.
- :mod:`~repro.kernels.b2b` — bound-to-bound boundary-pin selection and
  pair/system assembly for the quadratic engine; the per-pin gradient
  (:func:`b2b_pin_grad` over a per-design :class:`NetSplit`: 2-pin nets
  in one closed-form expression, larger nets reduced per net) for the
  electrostatic engine's Nesterov loop; and the pair-list gradient
  (:func:`b2b_grad`) for the structure-alignment pairs.

No kernel flattens a netlist: the CSR arrays they read come from the
netlist's one flat view and its net compaction
(:mod:`repro.netlist.flat`).
"""

from .b2b import (NetSplit, assemble_pairs, b2b_grad, b2b_pairs,
                  b2b_pin_grad, boundary_pins, split_nets)
from .density import bell_value_grad, rasterize_overlap
from .incremental import IncrementalHPWL
from .segment import (expand_pin_net, hpwl_kernel, hpwl_per_net_kernel,
                      net_bounds, segment_reduce)
from .workspace import Workspace

__all__ = [
    "IncrementalHPWL",
    "NetSplit",
    "Workspace",
    "assemble_pairs",
    "b2b_grad",
    "b2b_pairs",
    "b2b_pin_grad",
    "bell_value_grad",
    "boundary_pins",
    "expand_pin_net",
    "hpwl_kernel",
    "hpwl_per_net_kernel",
    "net_bounds",
    "rasterize_overlap",
    "segment_reduce",
    "split_nets",
]
