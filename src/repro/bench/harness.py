"""The paper's tables and figures as pure functions of campaign records.

``repro experiments`` runs the evaluation sweep as a campaign
(:func:`experiment_spec` maps an effort level to its preset) and prints
every artefact of the evaluation section from the run records:

* **Table I** — min/avg/max LUT counts per suite (:func:`table1`).
* **Fig. 5** — reconfiguration speed-up of DCS (edge matching / wire
  length) over MDR, averaged per suite with min/max error bars
  (:func:`figure5`).
* **Fig. 6** — relative contribution of LUT and routing bits for
  RegExp-MDR / RegExp-Diff / RegExp-DCS (:func:`figure6`).
* **Fig. 7** — per-mode wire usage relative to MDR (:func:`figure7`).
* **Section IV-C area paragraph** — area of the multi-mode
  implementation relative to static implementations
  (:func:`area_table`).
* Two extensions: the routed critical-path penalty
  (:func:`sta_table`) and per-mode Fmax (:func:`fmax_table`).

Table I and the area table describe circuits, not runs: they rebuild
the suites from the workload registry (:mod:`repro.gen.suites`).
Every other table reads only record fields, so each number traces back
to a JSONL record.  The record functions expect the records of one
variant and seed, in campaign grid order (suite, then pair).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.campaign import PRESETS, CampaignSpec, CampaignVariant
from repro.bench.fir import generate_fir_circuit
from repro.core.merge import MergeStrategy
from repro.gen.spec import build_circuit
from repro.gen.suites import SUITE_ALIASES, suite_pair_specs, suite_pairs

SUITES = ("RegExp", "FIR", "MCNC")

#: ``repro experiments --effort`` -> the campaign preset it runs.
EFFORT_PRESETS = {
    "quick": "paper-quick",
    "default": "paper-default",
    "paper": "paper",
}

_LABELS = {name: label for label, name in SUITE_ALIASES.items()}

_STRATEGIES = (
    (MergeStrategy.EDGE_MATCHING, "DCS-Edge matching"),
    (MergeStrategy.WIRE_LENGTH, "DCS-Wire length"),
)

Record = Dict[str, object]


def experiment_spec(
    effort: str,
    seed: int = 0,
    timing_driven: bool = False,
    criticality_exponent: float = 1.0,
    timing_tradeoff: float = 0.5,
) -> CampaignSpec:
    """The campaign ``repro experiments --effort`` runs.

    The effort's preset with one seed and one variant: ``wirelength``,
    or ``timing`` when *timing_driven*.
    """
    if effort not in EFFORT_PRESETS:
        raise ValueError(
            f"effort must be one of {sorted(EFFORT_PRESETS)}"
        )
    variant = CampaignVariant(
        "timing" if timing_driven else "wirelength",
        timing_driven=timing_driven,
        criticality_exponent=criticality_exponent,
        timing_tradeoff=timing_tradeoff,
    )
    return replace(
        PRESETS[EFFORT_PRESETS[effort]],
        seeds=(seed,), variants=(variant,),
    )


def _aggregate(values: Sequence[float]) -> Tuple[float, float, float]:
    """(min, mean, max) of a non-empty sequence."""
    return (min(values), sum(values) / len(values), max(values))


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _label(suite: str) -> str:
    """The paper's spelling of a registry suite name."""
    return _LABELS.get(suite, suite)


def _by_suite(records: Sequence[Record]) -> Dict[str, List[Record]]:
    """Records grouped by suite, in first-appearance order."""
    groups: Dict[str, List[Record]] = {}
    for record in records:
        groups.setdefault(record["suite"], []).append(record)
    return groups


def _spread_rows(
    records: Sequence[Record], metric
) -> List[Dict[str, object]]:
    """min/mean/max of ``metric(record, strategy)`` per suite and
    merge strategy (the Fig. 5 / Fig. 7 / STA row shape)."""
    rows = []
    for suite, runs in _by_suite(records).items():
        for strategy, label in _STRATEGIES:
            low, mean, high = _aggregate(
                [metric(r, strategy.value) for r in runs]
            )
            rows.append({
                "suite": _label(suite),
                "variant": label,
                "min": low,
                "mean": mean,
                "max": high,
            })
    return rows


# -- Table I ------------------------------------------------------------------


def table1(seed: int, k: int, scale: str) -> List[Dict[str, object]]:
    """Size of the LUT circuits used in the experiments.

    Every mode circuit of each suite counts, not only the pairs a
    campaign truncates to.
    """
    rows = []
    for suite in SUITES:
        specs = dict.fromkeys(
            spec
            for _name, pair in suite_pair_specs(
                suite, seed=seed, k=k, scale=scale
            )
            for spec in pair
        )
        sizes = [float(build_circuit(s).n_luts()) for s in specs]
        low, mean, high = _aggregate(sizes)
        rows.append({
            "suite": suite,
            "minimum": int(low),
            "average": round(mean),
            "maximum": int(high),
        })
    return rows


def print_table1(rows: Sequence[Dict[str, object]]) -> str:
    lines = ["TABLE I: Size of the LUT circuits (4-LUT count)",
             f"{'':8s} {'Minimum':>8s} {'Average':>8s} "
             f"{'Maximum':>8s}"]
    for row in rows:
        lines.append(
            f"{row['suite']:8s} {row['minimum']:8d} "
            f"{row['average']:8d} {row['maximum']:8d}"
        )
    return "\n".join(lines)


# -- Fig. 5 -------------------------------------------------------------------


def figure5(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Reconfiguration speed-up of DCS relative to MDR."""
    return _spread_rows(
        records,
        lambda r, s: r["mdr"]["total_bits"] / r["dcs"][s]["total_bits"],
    )


def print_figure5(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        "Fig. 5: Reconfiguration speed up of DCS compared to MDR",
        f"{'suite':8s} {'variant':20s} "
        f"{'mean':>6s} {'min':>6s} {'max':>6s}",
        f"{'(all)':8s} {'MDR (base)':20s} "
        f"{1.0:6.2f} {1.0:6.2f} {1.0:6.2f}",
    ]
    for row in rows:
        lines.append(
            f"{row['suite']:8s} {row['variant']:20s} "
            f"{row['mean']:6.2f} {row['min']:6.2f} "
            f"{row['max']:6.2f}"
        )
    return "\n".join(lines)


# -- Fig. 6 -------------------------------------------------------------------


def figure6(records: Sequence[Record]) -> List[Dict[str, object]]:
    """LUT/routing breakdown for RegExp-MDR / -Diff / -DCS.

    Bits are averaged over the RegExp records and normalised to the
    MDR total (the MDR bar is 100%).
    """
    runs = [r for r in records if r["suite"] == "regexp"]
    mdr_lut = _mean(
        [r["mdr"]["total_bits"] - r["mdr"]["routing_bits"] for r in runs]
    )
    mdr_route = _mean([r["mdr"]["routing_bits"] for r in runs])
    diff_route = _mean([r["mdr"]["diff_routing_bits"] for r in runs])
    dcs_route = _mean(
        [r["dcs"]["wire_length"]["routing_bits"] for r in runs]
    )
    total = mdr_lut + mdr_route
    rows = []
    for bar, lut, route in (
        ("MDR", mdr_lut, mdr_route),
        ("Diff", mdr_lut, diff_route),
        ("DCS", mdr_lut, dcs_route),
    ):
        rows.append({
            "label": f"RegExp-{bar}",
            "lut_bits": lut,
            "routing_bits": route,
            "lut_pct_of_mdr": 100.0 * lut / total,
            "routing_pct_of_mdr": 100.0 * route / total,
        })
    return rows


def print_figure6(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        "Fig. 6: Relative contribution of LUTs and routing in "
        "reconfiguration time (MDR total = 100%)",
        f"{'variant':14s} {'LUT %':>8s} {'routing %':>10s}",
    ]
    for row in rows:
        lines.append(
            f"{row['label']:14s} {row['lut_pct_of_mdr']:8.1f} "
            f"{row['routing_pct_of_mdr']:10.1f}"
        )
    mdr_route = rows[0]["routing_pct_of_mdr"]
    diff_route = rows[1]["routing_pct_of_mdr"]
    dcs_route = rows[2]["routing_pct_of_mdr"]
    if dcs_route > 0 and diff_route > 0:
        lines.append(
            "routing reduction: region effect "
            f"{mdr_route / diff_route:.1f}x, merge effect "
            f"{diff_route / dcs_route:.1f}x, combined "
            f"{mdr_route / dcs_route:.1f}x"
        )
    return "\n".join(lines)


# -- Fig. 7 -------------------------------------------------------------------


def _wirelength_ratio(record: Record, strategy: str) -> float:
    """``MultiModeResult.wirelength_ratio`` from a record's per-mode
    wire counts (same expression, so the same float)."""
    mdr = record["mdr"]["wirelength"]
    dcs = record["dcs"][strategy]["wirelength"]
    return (sum(dcs) / len(dcs)) / (sum(mdr) / len(mdr))


def figure7(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Per-mode wire usage relative to MDR (percent)."""
    return _spread_rows(
        records, lambda r, s: 100.0 * _wirelength_ratio(r, s)
    )


def print_figure7(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        "Fig. 7: Number of wires relative to MDR (percent)",
        f"{'suite':8s} {'variant':20s} "
        f"{'mean':>7s} {'min':>7s} {'max':>7s}",
        f"{'(all)':8s} {'MDR (base)':20s} "
        f"{100.0:7.1f} {100.0:7.1f} {100.0:7.1f}",
    ]
    for row in rows:
        lines.append(
            f"{row['suite']:8s} {row['variant']:20s} "
            f"{row['mean']:7.1f} {row['min']:7.1f} "
            f"{row['max']:7.1f}"
        )
    return "\n".join(lines)


# -- Section IV-C: area -------------------------------------------------------


def area_table(
    seed: int, k: int, scale: str, limit: Optional[int]
) -> List[Dict[str, object]]:
    """Area of the multi-mode region vs static implementations.

    RegExp/MCNC: the region holds the biggest mode, so area
    relative to implementing both modes statically is
    ``max(a, b) / (a + b)`` (about 50% for similar sizes).
    FIR: the specialised filters are compared against one *generic*
    FIR (the paper's 33% figure), since a generic filter can play
    both modes by reloading coefficients.  *limit* truncates every
    suite to its first pairs, like the campaign's pair limit.
    """
    def pair_sizes(suite: str) -> List[List[int]]:
        return [
            [c.n_luts() for c in modes]
            for _name, modes in suite_pairs(
                suite, seed=seed, k=k, scale=scale, limit=limit
            )
        ]

    def row(suite: str, baseline: str, ratios: List[float]):
        low, mean, high = _aggregate(ratios)
        return {
            "suite": suite,
            "baseline": baseline,
            "area_pct": 100.0 * mean,
            "min": 100.0 * low,
            "max": 100.0 * high,
        }

    rows = [
        row(suite, "static both modes",
            [max(sizes) / sum(sizes) for sizes in pair_sizes(suite)])
        for suite in ("RegExp", "MCNC")
    ]
    generic = generate_fir_circuit(
        "lowpass", seed=seed, k=k, generic=True, name="fir_generic",
    ).n_luts()
    rows.append(row(
        "FIR", "generic FIR filter",
        [max(sizes) / generic for sizes in pair_sizes("FIR")],
    ))
    return rows


def print_area_table(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        "Section IV-C: multi-mode area relative to baseline",
        f"{'suite':8s} {'baseline':22s} "
        f"{'area %':>7s} {'min':>6s} {'max':>6s}",
    ]
    for row in rows:
        lines.append(
            f"{row['suite']:8s} {row['baseline']:22s} "
            f"{row['area_pct']:7.1f} {row['min']:6.1f} "
            f"{row['max']:6.1f}"
        )
    return "\n".join(lines)


# -- extension: routed timing (abstract's performance claim) ------------------


def sta_table(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Per-mode routed critical-path penalty of DCS vs MDR.

    An extension beyond the paper's wire-length argument: static
    timing analysis on the actual routed paths of both flows
    ("without significant performance penalties", checked).  Reads
    the records' per-mode MDR:DCS frequency ratios (6 decimals).
    """
    return _spread_rows(
        records,
        lambda r, s: _mean(r["dcs"][s]["frequency_ratios"]),
    )


def print_sta_table(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        "Extension: routed critical-path delay relative to MDR "
        "(1.00 = no penalty)",
        f"{'suite':8s} {'variant':20s} "
        f"{'mean':>6s} {'min':>6s} {'max':>6s}",
    ]
    for row in rows:
        lines.append(
            f"{row['suite']:8s} {row['variant']:20s} "
            f"{row['mean']:6.2f} {row['min']:6.2f} "
            f"{row['max']:6.2f}"
        )
    return "\n".join(lines)


# -- extension: per-mode Fmax (the paper's speed comparison) ------------------


def fmax_table(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Per-mode Fmax of both flows and the MDR:DCS frequency ratio.

    The paper's headline comparison is achievable clock frequency;
    this reports, per suite and merge strategy, the mean per-mode
    Fmax of the separate (MDR) and merged (DCS) implementations
    plus min/mean/max of the per-mode MDR:DCS frequency ratio
    (1.0 = the merged circuit clocks exactly as fast).
    """
    rows = []
    for suite, runs in _by_suite(records).items():
        for strategy, label in _STRATEGIES:
            dcs = [r["dcs"][strategy.value] for r in runs]
            low, mean, high = _aggregate(
                [ratio for d in dcs for ratio in d["frequency_ratios"]]
            )
            rows.append({
                "suite": _label(suite),
                "variant": label,
                "mdr_fmax": _mean(
                    [f for r in runs for f in r["mdr"]["fmax"]]
                ),
                "dcs_fmax": _mean([f for d in dcs for f in d["fmax"]]),
                "ratio_min": low,
                "ratio_mean": mean,
                "ratio_max": high,
            })
    return rows


def print_fmax_table(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        "Extension: per-mode Fmax and MDR:DCS frequency ratio "
        "(1.00 = merged circuit clocks as fast)",
        f"{'suite':8s} {'variant':20s} "
        f"{'MDR Fmax':>9s} {'DCS Fmax':>9s} "
        f"{'ratio':>6s} {'min':>6s} {'max':>6s}",
    ]
    for row in rows:
        lines.append(
            f"{row['suite']:8s} {row['variant']:20s} "
            f"{row['mdr_fmax']:9.4f} {row['dcs_fmax']:9.4f} "
            f"{row['ratio_mean']:6.2f} {row['ratio_min']:6.2f} "
            f"{row['ratio_max']:6.2f}"
        )
    return "\n".join(lines)
