"""Routing: negotiated-congestion (PathFinder) routing on the RRG.

* :mod:`repro.route.router` — the connection-based PathFinder engine.
  It is *mode-aware*: occupancy is tracked per mode, so wires may be
  shared by different modes (their configuration bits become Boolean
  functions of the mode) while conflicts within one mode are negotiated
  away.  Routing a single-mode workload reduces it to the conventional
  VPR router used by the MDR baseline.  One core routes everything
  (numpy-priced heap searches); ``ScalarPathFinderRouter`` is the
  pure-Python reference the tests hold it to, decision for decision.
* :mod:`repro.route.searchkernel` — the search loops of both.
* :mod:`repro.route.troute` — TRoute: builds the tunable-connection
  workload of a merged multi-mode circuit, routes it, and extracts the
  per-mode configurations and parameterised-bit counts.
"""

from repro.route.router import (
    PathFinderRouter,
    RouteRequest,
    RoutingResult,
    ScalarPathFinderRouter,
)
from repro.route.troute import route_lut_circuit, route_tunable_circuit

__all__ = [
    "PathFinderRouter",
    "RouteRequest",
    "RoutingResult",
    "ScalarPathFinderRouter",
    "route_lut_circuit",
    "route_tunable_circuit",
]
