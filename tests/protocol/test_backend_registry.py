"""Tests for the protocol backend registry."""

import pytest

from repro.flexray.backend import FlexRayBackend
from repro.flexray.params import FlexRayParams
from repro.protocol.backend import (
    ProtocolBackend,
    available_backends,
    get_backend,
)
from repro.protocol.contracts import GeometryContract, TraceIdentity
from repro.protocol.geometry import SegmentGeometry
from repro.ttethernet.backend import TTEthernetBackend
from repro.ttethernet.params import TTEthernetParams


class TestRegistry:
    def test_both_backends_are_registered(self):
        assert available_backends() == ("flexray", "ttethernet")

    def test_get_backend_resolves_flexray(self):
        backend = get_backend("flexray")
        assert isinstance(backend, FlexRayBackend)
        assert backend.name == "flexray"

    def test_get_backend_resolves_ttethernet(self):
        backend = get_backend("ttethernet")
        assert isinstance(backend, TTEthernetBackend)
        assert backend.name == "ttethernet"

    def test_instances_are_cached(self):
        assert get_backend("flexray") is get_backend("flexray")

    def test_unknown_backend_names_the_choices(self):
        with pytest.raises(ValueError, match="flexray"):
            get_backend("token-ring")

    def test_passthrough_of_backend_instances(self):
        backend = get_backend("ttethernet")
        assert get_backend(backend) is backend


class TestBackendContract:
    """Every registered backend satisfies the geometry contract."""

    @pytest.fixture(params=["flexray", "ttethernet"])
    def backend(self, request):
        return get_backend(request.param)

    def test_geometry_template_is_a_segment_geometry(self, backend):
        template = backend.geometry_template()
        assert isinstance(template, SegmentGeometry)
        assert type(template).protocol == backend.name

    def test_presets_carry_the_protocol_tag(self, backend):
        for params in (backend.dynamic_preset(50),
                       backend.static_preset(20),
                       backend.scenario_geometry(static_slots=8,
                                                 minislots=16)):
            assert type(params).protocol == backend.name

    def test_scenario_geometry_realizes_the_counts(self, backend):
        params = backend.scenario_geometry(static_slots=8, minislots=16,
                                           p_latest_tx_minislot=4,
                                           channel_count=1)
        assert params.g_number_of_static_slots == 8
        assert params.g_number_of_minislots == 16
        assert params.p_latest_tx_minislot == 4
        assert params.channel_count == 1

    def test_case_study_params_build(self, backend):
        for workload in ("bbw", "acc"):
            params = backend.case_study_params(workload)
            assert type(params).protocol == backend.name
            assert params.g_number_of_minislots == 50

    def test_every_backend_is_a_protocol_backend(self, backend):
        assert isinstance(backend, ProtocolBackend)


@pytest.mark.parametrize("geometry", [FlexRayParams(), TTEthernetParams()],
                         ids=["flexray", "ttethernet"])
def test_geometries_satisfy_the_structural_contracts(geometry):
    """The runtime-checkable contracts hold for both backends' geometry."""
    assert isinstance(geometry, GeometryContract)
    assert isinstance(geometry, TraceIdentity)


class TestGeometryVocabulary:
    """The two parameter sets speak one geometry vocabulary."""

    def test_flexray_defaults(self):
        params = FlexRayParams()
        assert params.bit_rate_mbps == 10.0
        assert params.frame_overhead_bits == 64
        assert params.max_payload_bits == 254 * 8

    def test_ttethernet_defaults(self):
        params = TTEthernetParams()
        assert params.bit_rate_mbps == 100.0
        assert params.frame_overhead_bits == 304
        assert params.max_payload_bits == 1500 * 8

    def test_capacity_uses_backend_rates(self):
        # TTEthernet's window is less than half the FlexRay slot, yet
        # the order-of-magnitude faster wire still moves more payload
        # per window (even after the larger Ethernet framing overhead).
        flexray = FlexRayParams()
        tte = TTEthernetParams()
        assert tte.gd_static_slot_mt < flexray.gd_static_slot_mt
        assert tte.static_slot_capacity_bits \
            > flexray.static_slot_capacity_bits
