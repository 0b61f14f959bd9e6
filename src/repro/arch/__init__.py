"""Island-style FPGA architecture model.

Models the paper's target device (VPR's ``4lut_sanitized.arch``): a
square grid of logic blocks — each one K-input LUT plus one flip-flop —
surrounded by IO pads, with unit-length wire segments in the routing
channels.

* :mod:`repro.arch.architecture` — grid geometry, placement sites,
  sizing rules (the paper sizes area and channel width 20% above the
  minimum).
* :mod:`repro.arch.rrg` — the routing-resource graph: wires, pins and
  programmable switches, each switch owning one configuration bit.
* :mod:`repro.arch.frames` — frame-based configuration memory: how
  many frames a mode switch rewrites, and the allocator that packs the
  parameterised bits into few frames.

Reconfiguration-time accounting in bits lives in
:mod:`repro.core.reconfig`.
"""

from repro.arch.architecture import FpgaArchitecture, Site, size_for_circuits
from repro.arch.frames import FrameAllocator, FrameLayout, build_frame_layout
from repro.arch.rrg import RoutingResourceGraph, build_rrg

__all__ = [
    "FpgaArchitecture",
    "Site",
    "size_for_circuits",
    "RoutingResourceGraph",
    "build_rrg",
    "FrameAllocator",
    "FrameLayout",
    "build_frame_layout",
]
