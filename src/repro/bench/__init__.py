"""Benchmark circuit generators and the experiment harness.

The paper evaluates on three application suites; each has a generator
here that produces the same class of LUT circuits from scratch:

* :mod:`repro.bench.regex` — regular-expression matching engines
  (regex -> Thompson NFA -> one-hot hardware matcher), standing in for
  the VHDL generator of Sourdis et al.
* :mod:`repro.bench.fir` — constant-coefficient FIR filters with all
  constants propagated into shift-add networks (experiment 2).
* :mod:`repro.bench.mcnc` — MCNC-class random logic circuits in the
  paper's size window (experiment 3); real MCNC ``.blif`` files can be
  substituted through :mod:`repro.netlist.blif`.
* :mod:`repro.bench.harness` — every table and figure of the
  evaluation section as a function of campaign records, plus its
  printer (``repro experiments``).
* :mod:`repro.bench.campaign` — declarative sweeps (suites x flow
  variants x seeds) over the workload registry (:mod:`repro.gen`),
  with resumable JSONL record checkpoints, a summary JSON and the CI
  QoR gate.
* :mod:`repro.bench.trend` — the nightly QoR trend database: ingest
  campaign records into append-only SQLite and gate drift against a
  rolling window of previous runs.

Workloads themselves are described by
:class:`repro.gen.spec.WorkloadSpec` and materialised through the
suite registry (:mod:`repro.gen.suites`); the classic generators
above are registered there alongside the parameterized families
(datapath, fsm, xbar, klut).
"""

from repro.bench.fir import generate_fir_circuit
from repro.bench.mcnc import generate_mcnc_circuit
from repro.bench.regex import compile_regex_circuit

__all__ = [
    "compile_regex_circuit",
    "generate_fir_circuit",
    "generate_mcnc_circuit",
]
