"""VPR-style simulated-annealing placement.

* :mod:`repro.place.annealing` — the adaptive annealing engine
  (temperature schedule, range limiting, acceptance statistics) shared
  by the conventional placer and the paper's combined placer.
* :mod:`repro.place.cost` — bounding-box wire-length estimation with
  VPR's fanout correction factors.
* :mod:`repro.place.state` — the integer annealing state (sites,
  cells, nets, per-move cost bookkeeping) shared by all three
  placement problems.
* :mod:`repro.place.placer` — the conventional single-circuit placer
  used by the MDR baseline.
"""

from repro.place.annealing import AnnealingSchedule, anneal
from repro.place.cost import net_bounding_box_cost, q_factor
from repro.place.placer import Placement, place_circuit
from repro.place.timing import TimingReport, critical_path

__all__ = [
    "AnnealingSchedule",
    "anneal",
    "net_bounding_box_cost",
    "q_factor",
    "Placement",
    "place_circuit",
    "TimingReport",
    "critical_path",
]
