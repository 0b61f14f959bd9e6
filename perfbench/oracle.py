"""Output checks, QoR extraction and digests of finished flows.

The checks are independent of the flow's own accounting:

* every MDR and DCS routing must pass
  :func:`repro.route.router.validate_routing`;
* the parameterised routing bits are recounted here from the routed
  edge lists and must equal ``DcsResult.cost.routing_bits``;
* every ``tunable.specialize(m)`` must simulate equivalently to the
  original mode circuit (:func:`repro.netlist.simulate.equivalent`,
  seeded).

The digest hashes every deterministic output — routed edges, bit
counts, wirelengths, Fmax — and never a time, so equal digests mean
bit-identical results.
"""

from __future__ import annotations

import hashlib
import json
import random
from statistics import fmean
from typing import Dict, List, Sequence

from repro.netlist.simulate import equivalent
from repro.route.router import validate_routing

#: Seed of the random stimuli of the equivalence check.
SIMULATION_SEED = 0x5EED


def recount_param_bits(routing) -> int:
    """Bits on in some modes and off in others, from the edge lists."""
    per_mode = [set() for _ in range(routing.n_modes)]
    for route in routing.routes.values():
        bits = {bit for _u, _v, bit in route.edges if bit >= 0}
        for mode in route.request.modes:
            per_mode[mode] |= bits
    return len(set.union(*per_mode) - set.intersection(*per_mode))


def check_flow(result, modes: Sequence) -> List[str]:
    """Problems found in one flow's result; empty when it is right."""
    problems = []
    routings = [(f"mdr mode {impl.mode}", impl.routing)
                for impl in result.mdr.implementations]
    routings += [(f"dcs {s.value}", d.routing)
                 for s, d in sorted(result.dcs.items(),
                                    key=lambda item: item[0].value)]
    for label, routing in routings:
        try:
            validate_routing(routing)
        except AssertionError as error:
            problems.append(f"{label}: illegal routing: {error}")
    for strategy, dcs in sorted(result.dcs.items(),
                                key=lambda item: item[0].value):
        recount = recount_param_bits(dcs.routing)
        if recount != dcs.cost.routing_bits:
            problems.append(
                f"dcs {strategy.value}: {dcs.cost.routing_bits} "
                f"parameterised bits reported, {recount} recounted"
            )
        for mode, circuit in enumerate(modes):
            rng = random.Random(SIMULATION_SEED)
            try:
                same = equivalent(dcs.tunable.specialize(mode), circuit,
                                  rng=rng)
            except ValueError as error:  # differing port names
                problems.append(
                    f"dcs {strategy.value} mode {mode}: {error}")
                continue
            if not same:
                problems.append(
                    f"dcs {strategy.value} mode {mode}: specialised "
                    "circuit differs from the mode circuit"
                )
    return problems


def flow_qor(result) -> Dict[str, object]:
    """The paper's quality figures of one flow (deterministic)."""
    strategies = sorted(result.dcs, key=lambda s: s.value)
    mdr_fmax = result.mdr.per_mode_fmax()
    per_strategy = {}
    for strategy in strategies:
        dcs = result.dcs[strategy]
        per_strategy[strategy.value] = {
            "param_bits": dcs.cost.routing_bits,
            "speedup": result.speedup(strategy),
            "wirelength_ratio": result.wirelength_ratio(strategy),
            "wirelength": dcs.per_mode_wirelength(),
            "fmax": dcs.per_mode_fmax(),
            "fmax_ratio": result.mean_frequency_ratio(strategy),
            "tunable_connections": dcs.tunable.n_tunable_connections(),
            "shared_connections": dcs.tunable.n_shared_connections(),
        }
    return {
        "channel_width": result.arch.channel_width,
        "rrg_nodes": result.mdr.implementations[0].routing.rrg.n_nodes,
        "mdr_bits": result.mdr.cost.total,
        "mdr_wirelength": result.mdr.per_mode_wirelength(),
        "mdr_fmax": mdr_fmax,
        "dcs": per_strategy,
    }


def aggregate_qor(qors: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """End-to-end QoR metrics over the flows of one pass."""
    if not qors:
        return {}
    strategies = [s for q in qors for s in q["dcs"].values()]
    return {
        "param_bits": float(sum(s["param_bits"] for s in strategies)),
        "reconfig_speedup": fmean(s["speedup"] for s in strategies),
        "wirelength_ratio": fmean(
            s["wirelength_ratio"] for s in strategies),
        "mdr_wirelength": float(sum(sum(q["mdr_wirelength"])
                                    for q in qors)),
        "dcs_fmax": fmean(f for s in strategies for f in s["fmax"]),
        "fmax_ratio": fmean(s["fmax_ratio"] for s in strategies),
    }


def flow_digest(result, qor: Dict[str, object]) -> str:
    """SHA-256 over every routed edge, placement site and QoR figure."""
    h = hashlib.sha256()
    h.update(json.dumps(qor, sort_keys=True).encode())
    routings = [impl.routing for impl in result.mdr.implementations]
    routings += [result.dcs[s].routing
                 for s in sorted(result.dcs, key=lambda s: s.value)]
    for routing in routings:
        for conn_id in sorted(routing.routes):
            route = routing.routes[conn_id]
            h.update(repr((conn_id, route.request.net,
                           sorted(route.request.modes),
                           route.edges)).encode())
    for impl in result.mdr.implementations:
        h.update(repr(sorted(
            (cell, site.kind, site.x, site.y, site.slot)
            for cell, site in impl.placement.sites.items()
        )).encode())
    return h.hexdigest()


def combine(digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()
