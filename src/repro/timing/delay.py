"""Delay model for routing-resource-graph paths.

Delays are in arbitrary units chosen so that one LUT evaluation costs
1.0.  A routed connection's delay is the sum of

* one ``pin_delay`` per OPIN/IPIN crossed,
* one ``wire_delay`` per unit-length channel segment crossed,
* one ``switch_delay`` per programmable switch traversed (edges that
  carry a configuration bit; the internal IPIN-to-SINK hop is free).

:meth:`DelayModel.connection_delay` is the *pre-route* estimate of the
same quantity — one OPIN and one IPIN crossing plus one unit wire
behind one switch per Manhattan tile — so the placed estimate and the
timing-driven placer and router (:mod:`repro.timing.criticality`) and
the routed STA (:mod:`repro.timing.sta`) all speak the same units:
one model, every layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.arch.rrg import IPIN, OPIN, SINK, WIRE, RoutingResourceGraph


@dataclass(frozen=True)
class DelayModel:
    """Per-resource delays (arbitrary units, LUT = 1.0)."""

    lut_delay: float = 1.0
    pin_delay: float = 0.05
    wire_delay: float = 0.3
    switch_delay: float = 0.15

    def node_delay(self, rrg: RoutingResourceGraph, node: int) -> float:
        """Intrinsic delay of entering *node*."""
        kind = rrg.node_kind[node]
        if kind == WIRE:
            return self.wire_delay
        if kind in (OPIN, IPIN):
            return self.pin_delay
        return 0.0  # SINK is a logical aggregation point

    def edge_delay(
        self, rrg: RoutingResourceGraph, dst: int, bit: int
    ) -> float:
        """Delay of taking one RRG edge into *dst*.

        Programmable switches (``bit >= 0``) add ``switch_delay``;
        internal edges are free.  The destination node's intrinsic
        delay is included, so summing ``edge_delay`` along a path plus
        the source node's delay gives the full path delay.
        """
        delay = self.node_delay(rrg, dst)
        if bit >= 0:
            delay += self.switch_delay
        return delay

    def connection_delay(self, distance: float) -> float:
        """Pre-route estimate of a routed connection's delay.

        A connection whose endpoints are *distance* tiles apart
        (Manhattan) crosses one OPIN and one IPIN plus, per tile, one
        unit-length channel segment behind one programmable switch.
        The router can only add detours on top of this, so the
        estimate is a lower bound of the routed
        :meth:`path_delay` — which is what makes pre-route and
        post-route STA comparable.
        """
        return 2.0 * self.pin_delay + distance * (
            self.wire_delay + self.switch_delay
        )

    def path_delay(
        self,
        rrg: RoutingResourceGraph,
        edges: Sequence[Tuple[int, int, int]],
    ) -> float:
        """Delay of a routed edge list, including the source node."""
        if not edges:
            return 0.0
        total = self.node_delay(rrg, edges[0][0])
        for _u, v, bit in edges:
            total += self.edge_delay(rrg, v, bit)
        return total

    def validate(self) -> None:
        """Reject non-physical (negative) delays."""
        for name in ("lut_delay", "pin_delay", "wire_delay",
                     "switch_delay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
