"""In-memory span tracer and the wrappers that feed it.

The tracer records spans (name, parent, start, end, counters) in
memory and writes them as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open directly.

:func:`instrumented` wraps, for the duration of a ``with`` block, the
public functions :mod:`repro.core.flow` calls into each layer — RRG
construction, MDR placement and routing, merge, combined placement,
TPlace, TRoute, result unpacking, the stage cache and the criticality
entry points of :mod:`repro.timing.criticality`.  Nothing under
``src/`` changes: the wrappers replace module and class attributes
and put the originals back on exit.  Routers receive a
:class:`~repro.route.searchkernel.RouterStats` through their public
``stats=`` keyword; anneal counts come from the stats the placers
return.  Counters are read after a span closes, so reading them is
never charged to the layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import repro.core.flow as flow
import repro.timing.criticality as criticality
from repro.exec.cache import StageCache
from repro.route.searchkernel import RouterStats

#: Spans opened by the benchmark itself rather than around a layer.
FRAME_SPANS = ("pass", "flow", "check")


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        span = Span(name, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def subtree(self, root: int) -> List[int]:
        """Indices of *root* and every span opened beneath it."""
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index].parent in inside:
                inside.add(index)
        return sorted(inside)

    def self_seconds(self, indices: List[int]) -> Dict[int, float]:
        """Each span's duration minus the time its children cover."""
        own = {i: self.spans[i].seconds for i in indices}
        for i in indices:
            parent = self.spans[i].parent
            if parent in own:
                own[parent] -= self.spans[i].seconds
        return own

    def write_chrome(self, path: str) -> None:
        """Write every span as a Chrome trace-event ("X") record."""
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "args": dict(span.counters, span_id=i, parent=span.parent),
            }
            for i, span in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


# -- counters read from a layer's return value ------------------------------

def _rrg_counters(span, result, args, kwargs) -> None:
    span.counters["nodes"] = result.n_nodes


def _anneal_counters(span, stats) -> None:
    if stats is not None:
        span.counters["moves"] = stats.n_moves
        span.counters["accepted"] = stats.n_accepted


def _placement_counters(span, result, args, kwargs) -> None:
    _anneal_counters(span, result.stats)


def _combined_counters(span, result, args, kwargs) -> None:
    _anneal_counters(span, result[1].stats)


def _tplace_counters(span, result, args, kwargs) -> None:
    _anneal_counters(span, result)


def _route_counters(span, result, args, kwargs) -> None:
    stats = kwargs["stats"]
    span.counters.update(
        searches=stats.searches, pops=stats.pops, settled=stats.settled,
        iterations=result.iterations, connections=len(result.routes),
    )


def _wrap(tracer: Tracer, fn: Callable, layer: str,
          counters: Optional[Callable] = None,
          router: bool = False) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if router and kwargs.get("stats") is None:
            kwargs["stats"] = RouterStats()
        with tracer.span(layer) as span:
            result = fn(*args, **kwargs)
        if counters is not None:
            counters(span, result, args, kwargs)
        return result

    return traced


def _wrap_get(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(self, stage, key):
        errors = self.stats.errors
        with tracer.span("exec.cache_get") as span:
            hit, value = fn(self, stage, key)
        span.counters.update(hit=int(hit),
                             errors=self.stats.errors - errors)
        return hit, value

    return traced


def _wrap_put(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(self, stage, key, value):
        errors = self.stats.errors
        with tracer.span("exec.cache_put") as span:
            fn(self, stage, key, value)
        written = 0
        if self.enabled:
            try:
                written = os.path.getsize(self.path(stage, key))
            except OSError:
                pass
        span.counters.update(bytes=written,
                             errors=self.stats.errors - errors)

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Route every layer call of the flow through *tracer*."""
    timing_cost = criticality.PlacementTimingCost
    patches = [
        (flow, "build_rrg",
         _wrap(tracer, flow.build_rrg, "arch.rrg", _rrg_counters)),
        (flow, "place_circuit",
         _wrap(tracer, flow.place_circuit, "place.mdr",
               _placement_counters)),
        (flow, "route_lut_circuit",
         _wrap(tracer, flow.route_lut_circuit, "route.mdr",
               _route_counters, router=True)),
        (flow, "merge_with_combined_placement",
         _wrap(tracer, flow.merge_with_combined_placement,
               "core.combined", _combined_counters)),
        (flow, "merge_by_index",
         _wrap(tracer, flow.merge_by_index, "core.combined")),
        (flow, "tplace",
         _wrap(tracer, flow.tplace, "core.tplace", _tplace_counters)),
        (flow, "route_tunable_circuit",
         _wrap(tracer, flow.route_tunable_circuit, "route.troute",
               _route_counters, router=True)),
        (flow, "unpack_result",
         _wrap(tracer, flow.unpack_result, "core.unpack")),
        (criticality, "lut_connection_criticalities",
         _wrap(tracer, criticality.lut_connection_criticalities,
               "timing.criticality")),
        (criticality, "tunable_connection_criticalities",
         _wrap(tracer, criticality.tunable_connection_criticalities,
               "timing.criticality")),
        (timing_cost, "add_circuit",
         _wrap(tracer, timing_cost.add_circuit, "timing.criticality")),
        (timing_cost, "refresh_criticalities",
         _wrap(tracer, timing_cost.refresh_criticalities,
               "timing.criticality")),
        (StageCache, "key",
         staticmethod(_wrap(tracer, StageCache.key, "exec.cache_key"))),
        (StageCache, "get", _wrap_get(tracer, StageCache.get)),
        (StageCache, "put", _wrap_put(tracer, StageCache.put)),
    ]
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
