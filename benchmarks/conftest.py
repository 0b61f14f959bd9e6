"""Shared fixtures for the benchmark suite.

The heavy part of every figure benchmark is the flow itself (placement
+ routing of multi-mode circuits).  It runs once per pytest session in
the ``experiment`` fixture — the first pair of each paper suite of the
``paper-quick`` campaign preset, turned into run records by the
campaign worker's own record builder — and the individual benchmarks
time the table functions of :mod:`repro.bench.harness` on top of the
``records`` while asserting the paper's qualitative shape.

``repro experiments --effort paper`` runs the full sweep (all 10 pairs
per suite).
"""

from dataclasses import dataclass, replace
from typing import Dict, List

import pytest

from repro.bench.campaign import PRESETS, campaign_runs, extract_payload
from repro.core.flow import MultiModeResult, implement_multi_mode
from repro.core.merge import MergeStrategy
from repro.gen.spec import build_circuit
from repro.netlist.lutcircuit import LutCircuit

#: One pair per paper suite, so the benchmark session stays in the
#: minutes range while exercising the full pipeline.
SPEC = replace(PRESETS["paper-quick"], pairs_per_suite=1)

_LABELS = {"regexp": "RegExp", "fir": "FIR", "mcnc": "MCNC"}


@dataclass
class PairRun:
    """One implemented pair: its circuits, result and run record."""

    name: str
    modes: List[LutCircuit]
    result: MultiModeResult
    record: Dict[str, object]


@pytest.fixture(scope="session")
def spec():
    return SPEC


@pytest.fixture(scope="session")
def experiment() -> Dict[str, List[PairRun]]:
    """All suites implemented once; shared by the figure benchmarks."""
    runs: Dict[str, List[PairRun]] = {}
    for suite, name, specs, variant, seed in campaign_runs(SPEC):
        options = SPEC.flow_options(variant, seed)
        strategies = tuple(MergeStrategy(v) for v in variant.strategies)
        modes = [build_circuit(s) for s in specs]
        result = implement_multi_mode(
            name, modes, options, strategies=strategies
        )
        record = {"suite": suite, "pair": name}
        record.update(
            extract_payload(specs, modes, result, options, strategies)
        )
        runs.setdefault(_LABELS[suite], []).append(
            PairRun(name, modes, result, record)
        )
    return runs


@pytest.fixture(scope="session")
def records(experiment):
    """The run records of ``experiment``, in campaign grid order."""
    return [run.record for runs in experiment.values() for run in runs]
