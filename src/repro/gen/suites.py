"""Suite registry: named workload families -> multi-mode pairs.

A *suite* is a named recipe producing the multi-mode circuits (mode
pairs) of one workload family at a given scale.  The classic paper
suites (``regexp``, ``fir``, ``mcnc``) and the generator families of
:mod:`repro.gen` (``datapath``, ``fsm``, ``xbar``, ``klut``) register
here behind one interface, so the campaign runner (and with it
``repro experiments``), the paper's Table I and ``bench-exec`` all
draw workloads from the same registry:

* :func:`suite_pair_specs` — the pairs as ``WorkloadSpec`` tuples
  (cheap; what campaign records and cache keys embed);
* :func:`suite_pairs` — the pairs materialised into
  :class:`~repro.netlist.lutcircuit.LutCircuit`\\ s (specs shared by
  several pairs build once);
* :func:`registered_suites` — name -> :class:`SuiteDef` for listings.

Scales trade size for runtime: ``tiny`` (seconds per pair — CI smoke
and unit tests), ``quick``/``default`` (the calibrated subsets of
``repro experiments``), ``medium`` (router-bench A/B runs: large
enough for search costs to dominate, small enough for a bench loop)
and ``paper`` (full experiment sizes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.gen.spec import (
    WorkloadSpec,
    build_circuit,
    register_generator,
)
from repro.netlist.lutcircuit import LutCircuit

SCALES = ("tiny", "quick", "default", "medium", "paper")

#: The paper's suite spellings (Table I and the figures print them).
SUITE_ALIASES = {"RegExp": "regexp", "FIR": "fir", "MCNC": "mcnc"}

PairSpecs = List[Tuple[str, Tuple[WorkloadSpec, ...]]]
PairSpecFn = Callable[[int, int, str], PairSpecs]


@dataclass(frozen=True)
class SuiteDef:
    """One registered suite: metadata plus the pair-spec builder."""

    name: str
    description: str
    pair_specs: PairSpecFn


_SUITES: Dict[str, SuiteDef] = {}


def register_suite(
    name: str, description: str
) -> Callable[[PairSpecFn], PairSpecFn]:
    def decorate(fn: PairSpecFn) -> PairSpecFn:
        if name in _SUITES:
            raise ValueError(f"suite {name!r} already registered")
        _SUITES[name] = SuiteDef(name, description, fn)
        return fn

    return decorate


def registered_suites() -> Dict[str, SuiteDef]:
    """Registered suites by canonical name (sorted)."""
    return {name: _SUITES[name] for name in sorted(_SUITES)}


def canonical_suite_name(name: str) -> str:
    """Resolve aliases/case; raises ``ValueError`` with a listing."""
    resolved = SUITE_ALIASES.get(name, name).lower()
    if resolved not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; registered suites: "
            f"{', '.join(sorted(_SUITES))}"
        )
    return resolved


def _check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise ValueError(
            f"unknown scale {scale!r}; use one of {', '.join(SCALES)}"
        )
    return scale


def suite_pair_specs(
    name: str,
    seed: int = 0,
    k: int = 4,
    scale: str = "default",
    limit: Optional[int] = None,
) -> PairSpecs:
    """The (pair name, mode specs) list of one suite."""
    suite = _SUITES[canonical_suite_name(name)]
    pairs = suite.pair_specs(seed, k, _check_scale(scale))
    if limit is not None:
        pairs = pairs[:limit]
    return pairs


def suite_pairs(
    name: str,
    seed: int = 0,
    k: int = 4,
    scale: str = "default",
    limit: Optional[int] = None,
) -> List[Tuple[str, List[LutCircuit]]]:
    """The pairs with circuits built (shared specs build once)."""
    built: Dict[WorkloadSpec, LutCircuit] = {}

    def build(spec: WorkloadSpec) -> LutCircuit:
        if spec not in built:
            built[spec] = build_circuit(spec)
        return built[spec]

    return [
        (pair_name, [build(spec) for spec in specs])
        for pair_name, specs in suite_pair_specs(
            name, seed=seed, k=k, scale=scale, limit=limit
        )
    ]


# ---------------------------------------------------------------------------
# Classic suites (the paper's three experiments) behind the interface
# ---------------------------------------------------------------------------


@register_generator("regexp")
def _generate_regexp(spec: WorkloadSpec) -> LutCircuit:
    from repro.bench.regex import compile_regex_circuit

    return compile_regex_circuit(
        str(spec.param("pattern")), name=spec.name, k=spec.k
    )


@register_generator("fir")
def _generate_fir(spec: WorkloadSpec) -> LutCircuit:
    from repro.bench.fir import generate_fir_circuit

    return generate_fir_circuit(
        str(spec.param("filter", "lowpass")),
        seed=spec.seed,
        n_taps=int(spec.param("n_taps", 8)),
        n_nonzero=int(spec.param("n_nonzero", 5)),
        k=spec.k,
        generic=bool(spec.param("generic", False)),
        name=spec.name,
    )


@register_generator("mcnc")
def _generate_mcnc(spec: WorkloadSpec) -> LutCircuit:
    from repro.bench.mcnc import DEFAULT_PROFILES, generate_mcnc_circuit

    wanted = spec.param("profile")
    for profile in DEFAULT_PROFILES:
        if profile.name == wanted:
            return generate_mcnc_circuit(profile, k=spec.k)
    raise ValueError(
        f"unknown MCNC profile {wanted!r}; known: "
        f"{', '.join(p.name for p in DEFAULT_PROFILES)}"
    )


def _all_pairs(names_specs: List[Tuple[str, WorkloadSpec]],
               pair_prefix: str) -> PairSpecs:
    """All C(n, 2) combinations, named ``{prefix}_{i}{j}``."""
    return [
        (f"{pair_prefix}_{i}{j}",
         (names_specs[i][1], names_specs[j][1]))
        for i, j in itertools.combinations(range(len(names_specs)), 2)
    ]


@register_suite(
    "regexp",
    "regex matching engines (Thompson NFA, one-hot), all pairings",
)
def _regexp_pairs(seed: int, k: int, scale: str) -> PairSpecs:
    from repro.bench.regex import DEFAULT_PATTERNS

    patterns = DEFAULT_PATTERNS[:3] if scale == "tiny" else (
        DEFAULT_PATTERNS
    )
    specs = [
        (f"regexp{i}",
         WorkloadSpec.create(
             "regexp", f"regexp{i}", seed=seed, k=k, pattern=p
         ))
        for i, p in enumerate(patterns)
    ]
    return _all_pairs(specs, "regexp")


@register_suite(
    "fir",
    "constant-folded FIR filter banks, low-pass i paired with "
    "high-pass i",
)
def _fir_pairs(seed: int, k: int, scale: str) -> PairSpecs:
    n = {
        "tiny": 2, "quick": 2, "default": 4, "medium": 6, "paper": 10,
    }[scale]
    n_taps = 4 if scale == "tiny" else 8
    n_nonzero = 3 if scale == "tiny" else 5
    pairs: PairSpecs = []
    for i in range(n):
        lp = WorkloadSpec.create(
            "fir", f"fir_lp{i}", seed=seed + i, k=k,
            filter="lowpass", n_taps=n_taps, n_nonzero=n_nonzero,
        )
        hp = WorkloadSpec.create(
            "fir", f"fir_hp{i}", seed=seed + i, k=k,
            filter="highpass", n_taps=n_taps, n_nonzero=n_nonzero,
        )
        pairs.append((f"fir_{i}", (lp, hp)))
    return pairs


@register_suite(
    "mcnc",
    "MCNC-class random-logic stand-ins (Table I sizes), all pairings",
)
def _mcnc_pairs(seed: int, k: int, scale: str) -> PairSpecs:
    from repro.bench.mcnc import DEFAULT_PROFILES

    specs = [
        (profile.name,
         WorkloadSpec.create(
             "mcnc", profile.name, seed=profile.seed, k=k,
             profile=profile.name,
         ))
        for profile in DEFAULT_PROFILES
    ]
    return _all_pairs(specs, "mcnc")


# ---------------------------------------------------------------------------
# Generator-family suites: same-shape, different-seed mode pairs
# ---------------------------------------------------------------------------


def _seeded_pairs(kind: str, prefix: str, seed: int, k: int,
                  n_pairs: int, params_for: Callable[[int], dict]
                  ) -> PairSpecs:
    """Pair two same-shape instances with distinct derived seeds."""
    pairs: PairSpecs = []
    for i in range(n_pairs):
        params = params_for(i)
        a = WorkloadSpec.create(
            kind, f"{prefix}{i}a", seed=seed + 2 * i, k=k, **params
        )
        b = WorkloadSpec.create(
            kind, f"{prefix}{i}b", seed=seed + 2 * i + 1, k=k, **params
        )
        pairs.append((f"{prefix}_{i}", (a, b)))
    return pairs


_N_PAIRS = {
    "tiny": 2, "quick": 2, "default": 4, "medium": 6, "paper": 10,
}


@register_suite(
    "datapath",
    "constant-folded MAC/DSP pipelines (seeded coefficient sets)",
)
def _datapath_pairs(seed: int, k: int, scale: str) -> PairSpecs:
    shape = {
        "tiny": dict(width=4, n_terms=2, coeff_width=4),
        "quick": dict(width=6, n_terms=3, coeff_width=5),
        "default": dict(width=8, n_terms=4, coeff_width=6),
        "medium": dict(width=9, n_terms=5, coeff_width=6),
        "paper": dict(width=10, n_terms=6, coeff_width=6),
    }[scale]
    return _seeded_pairs(
        "datapath", "dp", seed, k, _N_PAIRS[scale], lambda i: shape
    )


@register_suite(
    "fsm",
    "banks of one-hot Moore controllers on a shared command bus",
)
def _fsm_pairs(seed: int, k: int, scale: str) -> PairSpecs:
    shape = {
        "tiny": dict(n_states=5, n_controllers=1, in_bits=3,
                     out_bits=3),
        "quick": dict(n_states=6, n_controllers=2, in_bits=4,
                      out_bits=4),
        "default": dict(n_states=8, n_controllers=2, in_bits=4,
                        out_bits=4),
        "medium": dict(n_states=9, n_controllers=3, in_bits=5,
                       out_bits=5),
        "paper": dict(n_states=10, n_controllers=3, in_bits=5,
                      out_bits=6),
    }[scale]
    return _seeded_pairs(
        "fsm", "fsm", seed, k, _N_PAIRS[scale], lambda i: shape
    )


@register_suite(
    "xbar",
    "word-wide crossbars (mux trees, wiring-dominated)",
)
def _xbar_pairs(seed: int, k: int, scale: str) -> PairSpecs:
    shape = {
        "tiny": dict(n_ports=2, width=3),
        "quick": dict(n_ports=4, width=2),
        "default": dict(n_ports=4, width=3),
        "medium": dict(n_ports=6, width=3),
        "paper": dict(n_ports=8, width=4),
    }[scale]
    return _seeded_pairs(
        "xbar", "xbar", seed, k, _N_PAIRS[scale], lambda i: shape
    )


@register_suite(
    "klut",
    "random k-LUT networks (tunable Rent exponent, register density)",
)
def _klut_pairs(seed: int, k: int, scale: str) -> PairSpecs:
    shape = {
        "tiny": dict(n_luts=30, n_inputs=8, n_outputs=6),
        "quick": dict(n_luts=60, n_inputs=10, n_outputs=8),
        "default": dict(n_luts=120, n_inputs=14, n_outputs=10),
        "medium": dict(n_luts=180, n_inputs=16, n_outputs=10),
        "paper": dict(n_luts=300, n_inputs=18, n_outputs=12),
    }[scale]
    rents = (0.55, 0.7, 0.85)
    densities = (0.0, 0.1, 0.2)

    def params_for(i: int) -> dict:
        return dict(
            shape,
            rent=rents[i % len(rents)],
            reg_density=densities[i % len(densities)],
        )

    return _seeded_pairs(
        "klut", "klut", seed, k, _N_PAIRS[scale], params_for
    )
