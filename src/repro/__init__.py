"""repro — multi-mode circuit tool flow with Dynamic Circuit Specialization.

Reproduction of *"An automatic tool flow for the combined implementation
of multi-mode circuits"* (Al Farisi, Bruneel, Cardoso, Stroobandt — DATE
2013).

The package is organised as a conventional FPGA CAD stack plus the
paper's contribution on top:

``repro.netlist``
    Logic networks, truth tables, LUT circuits, BLIF I/O, simulation.
``repro.synth``
    Synthesis (expression to gates, optimisation) and cut-based K-LUT
    technology mapping.
``repro.arch``
    Island-style FPGA architecture model, routing-resource graph and
    frame-based configuration memory.
``repro.place`` / ``repro.route``
    VPR-style simulated-annealing placement and PathFinder routing.
``repro.core``
    The paper's contribution: mode encodings, Tunable circuits, the
    merge step, combined placement and the end-to-end MDR / DCS flows.
``repro.timing``
    Timing analysis: the RRG delay model, connection criticalities and
    placed or routed critical paths, all on one longest-path engine.
``repro.interop``
    VPR file formats: architecture files, ``.net``, ``.place``,
    ``.route`` readers and writers.
``repro.viz``
    ASCII floorplans, channel heat maps, SVG renders, Markdown
    implementation reports.
``repro.bench``
    Benchmark generators (RegExp matchers, constant-coefficient FIR
    filters, MCNC-like circuits) and the experiment harness that
    regenerates every table and figure of the paper.
"""

__version__ = "1.1.0"

__all__ = [
    "DcsFlow",
    "FlowOptions",
    "MdrFlow",
    "MultiModeResult",
    "MergeStrategy",
    "LutCircuit",
    "implement",
    "run_campaign",
    "submit_flow",
    "__version__",
]

# The stable facade lives in repro.api; the package root re-exports
# it so `import repro; repro.implement(...)` is the canonical path.
_LAZY = {
    "DcsFlow": ("repro.core.flow", "DcsFlow"),
    "FlowOptions": ("repro.core.flow", "FlowOptions"),
    "MdrFlow": ("repro.core.flow", "MdrFlow"),
    "MultiModeResult": ("repro.core.flow", "MultiModeResult"),
    "MergeStrategy": ("repro.core.merge", "MergeStrategy"),
    "LutCircuit": ("repro.netlist.lutcircuit", "LutCircuit"),
    "implement": ("repro.api", "implement"),
    "run_campaign": ("repro.api", "run_campaign"),
    "submit_flow": ("repro.api", "submit_flow"),
}


def __getattr__(name):
    """Lazy re-exports so importing a substrate never pulls the stack."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
