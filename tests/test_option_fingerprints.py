"""Fingerprint coverage of FlowOptions over the stage cache keys.

Every dataclass field of :class:`FlowOptions` must be declared in
``OPTION_STAGE_COVERAGE``, and perturbing it must change exactly the
stage keys the declaration names.  Two failure modes are locked out:

* a newly added knob nobody classified (the totality check fails, so
  the author must decide which stage keys it belongs to — a knob
  absent from every per-stage key would silently alias stale cache
  entries);
* a knob leaking into a stage key it should not touch (the exactness
  check fails — e.g. router options must not orphan cached
  placements, which is what makes partial stage reuse work).
"""

import dataclasses

import pytest

from repro.arch.architecture import FpgaArchitecture
from repro.core.flow import (
    OPTION_STAGE_COVERAGE,
    FlowOptions,
    dcs_stage_inputs,
    multimode_stage_inputs,
    place_stage_inputs,
    route_lut_stage_inputs,
)
from repro.bench.campaign import campaign_stage_inputs
from repro.core.merge import MergeStrategy
from repro.exec.fingerprint import fingerprint
from repro.gen.spec import WorkloadSpec
from repro.place.placer import place_circuit

from tests.test_exec import tiny_circuit

STAGES = ("place", "route_lut", "dcs", "multimode", "campaign")

#: A perturbed (non-default) value per field; fields added to
#: FlowOptions must gain an entry here too (the totality assertion
#: below will say so).
PERTURBED = {
    "seed": 7,
    "k": 5,
    "slack": 1.4,
    "io_rat": 3,
    "fc_in": 0.75,
    "fc_out": 0.75,
    "channel_width": 12,
    "inner_num": 0.8,
    "tplace_refine": False,
    "max_width_retries": 9,
    "router_max_iterations": 17,
    "net_affinity": 0.9,
    "bit_affinity": 0.7,
    "sharing_passes": 5,
    "sizing": "search",
    "timing_driven": True,
    "criticality_exponent": 4.0,
    "timing_tradeoff": 0.25,
}


@pytest.fixture(scope="module")
def stage_context():
    """Fixed non-option inputs shared by every key computation."""
    circuit = tiny_circuit("t")
    arch = FpgaArchitecture(nx=4, ny=4, channel_width=8)
    placement = place_circuit(circuit, arch, seed=0)
    return circuit, arch, placement


def stage_keys(options, context):
    """The stage cache keys under *options* (fixed other inputs)."""
    circuit, arch, placement = context
    return {
        "place": fingerprint(
            *place_stage_inputs(circuit, arch, options, mode=0)
        ),
        "route_lut": fingerprint(
            *route_lut_stage_inputs(
                circuit, placement, arch, options
            )
        ),
        "dcs": fingerprint(
            *dcs_stage_inputs(
                "t", (circuit,), arch,
                MergeStrategy.WIRE_LENGTH, options,
            )
        ),
        "multimode": fingerprint(
            *multimode_stage_inputs(
                "t", (circuit,), options,
                (MergeStrategy.WIRE_LENGTH,),
            )
        ),
        # Campaign records embed the whole options object, so (like
        # "multimode") every FlowOptions field must perturb this key.
        "campaign": fingerprint(
            *campaign_stage_inputs(
                (WorkloadSpec.create("klut", "t", n_luts=4),),
                options,
                (MergeStrategy.WIRE_LENGTH,),
            )
        ),
    }


class TestOptionCoverage:
    @pytest.mark.smoke
    def test_every_field_is_classified(self):
        """Totality: each FlowOptions field must be declared (and the
        declaration must not name phantom fields)."""
        fields = {f.name for f in dataclasses.fields(FlowOptions)}
        assert fields == set(OPTION_STAGE_COVERAGE), (
            "every FlowOptions field needs an OPTION_STAGE_COVERAGE "
            "entry (and a PERTURBED value in this test)"
        )
        assert fields == set(PERTURBED)
        for field, stages in OPTION_STAGE_COVERAGE.items():
            assert stages <= set(STAGES), field
            assert "multimode" in stages, (
                f"{field}: the whole-result key embeds the options "
                "object, so every field perturbs it"
            )

    def test_perturbed_values_differ_from_defaults(self):
        defaults = FlowOptions()
        for field, value in PERTURBED.items():
            assert getattr(defaults, field) != value, field

    def test_each_field_perturbs_exactly_its_stages(
        self, stage_context
    ):
        baseline = stage_keys(FlowOptions(), stage_context)
        for field, value in PERTURBED.items():
            perturbed = stage_keys(
                dataclasses.replace(
                    FlowOptions(), **{field: value}
                ),
                stage_context,
            )
            expected = OPTION_STAGE_COVERAGE[field]
            for stage in STAGES:
                changed = perturbed[stage] != baseline[stage]
                assert changed == (stage in expected), (
                    f"{field}: expected to perturb {sorted(expected)}"
                    f", but {stage} key "
                    f"{'changed' if changed else 'did not change'}"
                )

    def test_timing_knobs_never_alias(self, stage_context):
        """Wirelength- and timing-driven runs get distinct keys for
        every per-stage cache, not only the whole-result one."""
        base = stage_keys(FlowOptions(), stage_context)
        timed = stage_keys(
            FlowOptions(timing_driven=True), stage_context
        )
        for stage in STAGES:
            assert base[stage] != timed[stage], stage
