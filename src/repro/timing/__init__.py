"""Timing analysis: one criticality model for every flow layer.

All timing in the flow speaks the units of one shared
:class:`DelayModel` (LUT = 1.0) and runs on one longest-path engine,
:class:`CriticalityAnalyzer`.  Two modules build on it:

* :mod:`repro.timing.criticality` — the engine itself: slack-based
  connection criticalities over placement-level delay estimates
  (:func:`placed_arc_delays`).  This is what *drives* the
  timing-driven placer and router: criticality-weighted delay in every
  annealing cost, ``crit*delay + (1-crit)*congestion`` pricing in
  PathFinder.
* :mod:`repro.timing.sta` — arc delays over the *actual routed
  paths*, so detours the router takes (congestion avoidance,
  cross-mode wire sharing) show up in the clock estimate.  This is
  what *checks* the result: per-mode Fmax and the MDR:DCS frequency
  ratios behind the abstract's "without significant performance
  penalties" claim.

Exports:

* :class:`DelayModel` — per-resource delays (LUT, pin, wire segment,
  programmable switch) plus the pre-route connection-delay estimate;
* :class:`CriticalityConfig` / :class:`CriticalityAnalyzer` — the
  criticality subsystem's knobs and STA engine;
* :func:`placed_arc_delays` — the pre-route estimate of every arc;
* :func:`net_delay_tree` / :func:`connection_delays_for_mode` — signal
  arrival along the routed route trees;
* :func:`mdr_arc_delays` / :func:`dcs_arc_delays` — map routed delays
  back onto logical connections of a mode circuit;
* :func:`routed_critical_path` — longest register-to-register or
  IO-to-IO path under routed or placed arc delays, with the cell
  trace of the worst path;
* :func:`timing_comparison` — per-mode MDR vs DCS critical-path ratio.
"""

from repro.timing.criticality import (
    CriticalityAnalyzer,
    CriticalityConfig,
    CriticalityReport,
    lut_connection_criticalities,
    placed_arc_delays,
    sharpen,
    tunable_connection_criticalities,
)
from repro.timing.delay import DelayModel
from repro.timing.sta import (
    StaReport,
    connection_delays_for_mode,
    dcs_arc_delays,
    mdr_arc_delays,
    net_delay_tree,
    routed_critical_path,
    timing_comparison,
)

__all__ = [
    "CriticalityAnalyzer",
    "CriticalityConfig",
    "CriticalityReport",
    "DelayModel",
    "StaReport",
    "connection_delays_for_mode",
    "dcs_arc_delays",
    "lut_connection_criticalities",
    "mdr_arc_delays",
    "net_delay_tree",
    "placed_arc_delays",
    "routed_critical_path",
    "sharpen",
    "timing_comparison",
    "tunable_connection_criticalities",
]
