"""Max-flow / min-cut substrate for the exact DDS algorithms.

The paper's exact algorithms repeatedly solve a minimum st-cut on a
"decision network" derived from the (core-pruned) graph. No flow solver
is available offline, so this subpackage implements one from scratch:

- :mod:`repro.flow.dinic` — Dinic's blocking-flow algorithm with an
  s-side min-cut extractor.
- :mod:`repro.flow.network` — the DDS vertex network for a fixed ratio
  ``a = i/j`` and exact rational level ``λ = p/q``.
"""
from repro.flow.dinic import Dinic
from repro.flow.network import DDSNetwork, build_dds_network, solve_level

__all__ = ["Dinic", "DDSNetwork", "build_dds_network", "solve_level"]
