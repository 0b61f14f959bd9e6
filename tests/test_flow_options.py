"""FlowOptions wire contract: to_dict/from_dict round-trip + validation.

The HTTP API (``repro.serve``) dedups submissions by stage-cache
fingerprint, so the wire boundary must be exact: every knob survives a
JSON round trip with its canonical type, unknown keys and out-of-range
values fail loudly, and the declared knob typing stays in lock-step
with the dataclass fields and ``OPTION_STAGE_COVERAGE``.
"""

import dataclasses
import json

import pytest

from repro.core.flow import OPTION_STAGE_COVERAGE, FlowOptions
from repro.exec.fingerprint import fingerprint


class TestRoundTrip:
    @pytest.mark.smoke
    def test_defaults_survive_json_round_trip(self):
        options = FlowOptions()
        wire = json.loads(json.dumps(options.to_dict()))
        assert FlowOptions.from_dict(wire) == options

    def test_non_default_values_survive(self):
        options = FlowOptions(
            seed=3, k=5, slack=1.4, channel_width=11, inner_num=0.2,
            tplace_refine=False, sizing="search", timing_driven=True,
            criticality_exponent=2.0, timing_tradeoff=0.25,
        )
        wire = json.loads(json.dumps(options.to_dict()))
        rebuilt = FlowOptions.from_dict(wire)
        assert rebuilt == options
        assert fingerprint(rebuilt) == fingerprint(options)

    def test_partial_payload_fills_defaults(self):
        assert FlowOptions.from_dict({"seed": 7}) == FlowOptions(seed=7)
        assert FlowOptions.from_dict({}) == FlowOptions()

    def test_int_literals_coerce_to_canonical_floats(self):
        # JSON clients may send 1 where the knob is a float; the
        # fingerprint distinguishes 1 from 1.0, so from_dict must
        # canonicalise or identical submissions would not dedup.
        a = FlowOptions.from_dict({"inner_num": 1})
        b = FlowOptions.from_dict({"inner_num": 1.0})
        assert a == b
        assert isinstance(a.inner_num, float)
        assert fingerprint(a) == fingerprint(b)


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown FlowOptions key"):
            FlowOptions.from_dict({"sed": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            FlowOptions.from_dict(7)

    @pytest.mark.parametrize("payload,match", [
        ({"seed": 1.5}, "must be an integer"),
        ({"seed": True}, "must be an integer"),
        ({"inner_num": "fast"}, "must be a number"),
        ({"inner_num": True}, "must be a number"),
        ({"channel_width": 8.0}, "integer or null"),
        ({"timing_driven": 1}, "must be a boolean"),
        ({"sizing": "guesswork"}, "must be one of"),
    ])
    def test_wrong_wire_types_rejected(self, payload, match):
        with pytest.raises(ValueError, match=match):
            FlowOptions.from_dict(payload)

    @pytest.mark.parametrize("kwargs,knob", [
        ({"k": 1}, "k"),
        ({"slack": 0.0}, "slack"),
        ({"io_rat": 0}, "io_rat"),
        ({"fc_in": 0.0}, "fc_in"),
        ({"fc_out": 1.5}, "fc_out"),
        ({"channel_width": 0}, "channel_width"),
        ({"inner_num": -0.1}, "inner_num"),
        ({"max_width_retries": 0}, "max_width_retries"),
        ({"router_max_iterations": 0}, "router_max_iterations"),
        ({"net_affinity": 0.0}, "net_affinity"),
        ({"bit_affinity": 2.0}, "bit_affinity"),
        ({"sharing_passes": -1}, "sharing_passes"),
        ({"criticality_exponent": -1.0}, "criticality_exponent"),
        ({"timing_tradeoff": 1.5}, "timing_tradeoff"),
    ])
    def test_out_of_range_rejected_at_construction(self, kwargs, knob):
        with pytest.raises(ValueError, match=f"FlowOptions.{knob}"):
            FlowOptions(**kwargs)

    def test_boundary_values_accepted(self):
        FlowOptions(fc_in=1.0, net_affinity=1.0, bit_affinity=1.0)
        FlowOptions(sharing_passes=0, criticality_exponent=0.0)
        FlowOptions(timing_tradeoff=0.0)
        FlowOptions(timing_tradeoff=1.0)


class TestKnobTyping:
    def test_typing_partitions_the_fields_exactly(self):
        # Adding a FlowOptions field without declaring its wire type
        # (and its stage coverage) must fail here, not at runtime.
        declared = (
            set(FlowOptions._INT_KNOBS)
            | set(FlowOptions._FLOAT_KNOBS)
            | set(FlowOptions._BOOL_KNOBS)
            | set(FlowOptions._OPTIONAL_INT_KNOBS)
            | set(FlowOptions._CHOICE_KNOBS)
        )
        groups = [
            FlowOptions._INT_KNOBS, FlowOptions._FLOAT_KNOBS,
            FlowOptions._BOOL_KNOBS, FlowOptions._OPTIONAL_INT_KNOBS,
            frozenset(FlowOptions._CHOICE_KNOBS),
        ]
        assert sum(len(g) for g in groups) == len(declared)
        field_names = {f.name for f in dataclasses.fields(FlowOptions)}
        assert declared == field_names
        assert declared == set(OPTION_STAGE_COVERAGE)

    def test_to_dict_covers_every_field(self):
        wire = FlowOptions().to_dict()
        assert set(wire) == {
            f.name for f in dataclasses.fields(FlowOptions)
        }
