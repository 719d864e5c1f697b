"""Tests for the network model and topology cost models."""

import numpy as np
import pytest

from repro.comm.cost_model import (
    CommunicationCostModel,
    allgather_bits_seconds,
    ps_sync_seconds,
    ring_allreduce_seconds,
    tree_allreduce_seconds,
)
from repro.comm.network import NetworkModel


class TestNetworkModel:
    def test_bytes_per_second_from_gbps(self):
        net = NetworkModel(bandwidth_gbps=8.0, latency_s=0.0, per_message_overhead_s=0.0)
        assert net.bytes_per_second == 1e9

    def test_transfer_time_scales_with_bytes(self):
        net = NetworkModel(bandwidth_gbps=1.0, latency_s=0.0, per_message_overhead_s=0.0)
        assert net.transfer_seconds(2e9) == 2 * net.transfer_seconds(1e9)

    def test_latency_added_per_message(self):
        net = NetworkModel(bandwidth_gbps=1.0, latency_s=0.01, per_message_overhead_s=0.0)
        one = net.transfer_seconds(0.0, num_messages=1)
        five = net.transfer_seconds(0.0, num_messages=5)
        np.testing.assert_allclose(five, 5 * one)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1.0)
        net = NetworkModel()
        with pytest.raises(ValueError):
            net.transfer_seconds(-10)
        with pytest.raises(ValueError):
            net.transfer_seconds(10, num_messages=0)


class TestTopologyCosts:
    net = NetworkModel(bandwidth_gbps=5.0)

    def test_single_worker_costs_nothing(self):
        for fn in (ps_sync_seconds, ring_allreduce_seconds, tree_allreduce_seconds):
            assert fn(1e8, 1, self.net) == 0.0
        assert allgather_bits_seconds(1, self.net) == 0.0

    def test_ps_cost_grows_with_workers(self):
        """PS-side contention makes synchronization more expensive at scale."""
        t4 = ps_sync_seconds(1e8, 4, self.net)
        t8 = ps_sync_seconds(1e8, 8, self.net)
        t16 = ps_sync_seconds(1e8, 16, self.net)
        assert t4 < t8 < t16

    def test_ps_contention_parameter(self):
        base = ps_sync_seconds(1e8, 16, self.net, contention=0.0)
        contended = ps_sync_seconds(1e8, 16, self.net, contention=0.1)
        assert contended > base
        with pytest.raises(ValueError):
            ps_sync_seconds(1e8, 16, self.net, contention=-0.1)

    def test_ring_cost_nearly_constant_in_workers(self):
        t4 = ring_allreduce_seconds(5e8, 4, self.net)
        t16 = ring_allreduce_seconds(5e8, 16, self.net)
        assert t16 < 1.5 * t4

    def test_ring_cheaper_than_ps_for_large_clusters(self):
        t_ps = ps_sync_seconds(5e8, 16, self.net)
        t_ring = ring_allreduce_seconds(5e8, 16, self.net)
        assert t_ring < t_ps

    def test_tree_scales_logarithmically(self):
        t4 = tree_allreduce_seconds(1e8, 4, self.net)
        t16 = tree_allreduce_seconds(1e8, 16, self.net)
        assert t16 / t4 == pytest.approx(2.0, rel=0.1)

    def test_flags_allgather_is_orders_cheaper_than_model_sync(self):
        """The paper measures the flags op at 2-4 ms vs seconds for a sync."""
        flags = allgather_bits_seconds(16, self.net)
        sync = ps_sync_seconds(170e6, 16, self.net)  # ResNet101-sized model
        assert flags < sync / 100

    def test_larger_model_costs_more(self):
        small = ps_sync_seconds(52e6, 16, self.net)   # Transformer-sized
        large = ps_sync_seconds(507e6, 16, self.net)  # VGG11-sized
        assert large > small

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            ps_sync_seconds(-1, 4, self.net)
        with pytest.raises(ValueError):
            ring_allreduce_seconds(-1, 4, self.net)


class TestCommunicationCostModel:
    def test_topology_dispatch(self):
        for topology in ("ps", "ring", "tree"):
            model = CommunicationCostModel(topology=topology)
            assert model.sync_seconds(1e8, 8) > 0

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            CommunicationCostModel(topology="mesh")

    def test_ssp_push_pull_cheaper_than_full_sync(self):
        model = CommunicationCostModel(topology="ps")
        assert model.ssp_push_pull_seconds(1e8) < model.sync_seconds(1e8, 16)

    def test_p2p_seconds_positive(self):
        model = CommunicationCostModel()
        assert model.p2p_seconds(1e6) > 0


class TestTransportDtype:
    def test_default_wire_scale_is_one(self):
        assert CommunicationCostModel().wire_scale == 1.0

    @pytest.mark.parametrize("topology", ["ps", "ring", "tree"])
    def test_float16_sync_equals_half_payload_on_float32_wire(self, topology):
        # A float16 wire must price exactly like shipping half the bytes on
        # the canonical wire — the scale applies before latency terms.
        fp32 = CommunicationCostModel(topology=topology)
        fp16 = CommunicationCostModel(topology=topology, transport_dtype="float16")
        assert fp16.wire_scale == 0.5
        np.testing.assert_allclose(
            fp16.sync_seconds(1e8, 8), fp32.sync_seconds(0.5e8, 8)
        )

    def test_float64_wire_doubles_payload(self):
        fp32 = CommunicationCostModel(topology="ps")
        fp64 = CommunicationCostModel(topology="ps", transport_dtype="float64")
        np.testing.assert_allclose(
            fp64.sync_seconds(1e8, 8), fp32.sync_seconds(2e8, 8)
        )

    def test_ssp_push_pull_scales_with_transport(self):
        fp32 = CommunicationCostModel(topology="ps")
        fp16 = CommunicationCostModel(topology="ps", transport_dtype="float16")
        np.testing.assert_allclose(
            fp16.ssp_push_pull_seconds(1e8), fp32.ssp_push_pull_seconds(0.5e8)
        )

    def test_flags_and_p2p_not_scaled(self):
        # Status bits and raw point-to-point payloads are not tensor
        # payloads; the transport dtype must leave them untouched.
        fp32 = CommunicationCostModel(topology="ps")
        fp16 = CommunicationCostModel(topology="ps", transport_dtype="float16")
        assert fp16.flags_seconds(8) == fp32.flags_seconds(8)
        assert fp16.p2p_seconds(1e6) == fp32.p2p_seconds(1e6)

    def test_unknown_transport_dtype_rejected(self):
        with pytest.raises(TypeError):
            CommunicationCostModel(transport_dtype="int8")

    def test_scale_transport_false_skips_the_wire_scale(self):
        # Pre-priced payloads (the compression layer's) must charge the same
        # regardless of the configured transport dtype.
        fp32 = CommunicationCostModel(topology="ps")
        fp16 = CommunicationCostModel(topology="ps", transport_dtype="float16")
        assert fp16.sync_seconds(1e8, 8, scale_transport=False) == fp32.sync_seconds(
            1e8, 8
        )

    def test_wire_scale_follows_the_transport_registry(self):
        # Compute dtypes ship on the canonical float32 wire, while an
        # explicit transport dtype prices its native width.
        assert CommunicationCostModel().wire_scale == 1.0
        assert CommunicationCostModel(transport_dtype="float16").wire_scale == 0.5
        assert CommunicationCostModel(transport_dtype="float64").wire_scale == 2.0
