"""Tests for repro.cluster.topology."""

import itertools

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology, make_longhorn_cluster


def star_link_oracle(intra: float, uplinks, node_a: int, node_b: int) -> float:
    """Bottleneck of the star path: NVLink within a node, else the slower uplink.

    A cross-node path is ``node_a -> switch -> node_b``: one hop over each
    server's uplink.
    """
    if node_a == node_b:
        return intra
    return float(min(uplinks[node_a], uplinks[node_b]))


def star_ring_oracle(intra: float, uplinks, node_of, gpu_ids) -> float:
    """Bottleneck of the ring over the sorted servers the GPUs span."""
    nodes = sorted({int(node_of[g]) for g in gpu_ids})
    if len(nodes) == 1:
        return intra
    return min(
        star_link_oracle(intra, uplinks, a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])
    )


class TestConstruction:
    def test_longhorn_64(self):
        cluster = make_longhorn_cluster(64)
        assert cluster.num_gpus == 64
        assert cluster.num_nodes == 16
        assert cluster.gpus_per_node == 4

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            make_longhorn_cluster(10)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology(0)


class TestLayout:
    def test_node_of_vectorised(self, small_topology):
        nodes = small_topology.node_of([0, 3, 4, 7])
        assert list(nodes) == [0, 0, 1, 1]

    def test_gpus_of_node(self, small_topology):
        assert list(small_topology.gpus_of_node(1)) == [4, 5, 6, 7]

    def test_gpu_handle(self, small_topology):
        handle = small_topology.gpu(5)
        assert handle.gpu_id == 5
        assert handle.node_id == 1

    def test_gpu_out_of_range(self, small_topology):
        with pytest.raises(IndexError):
            small_topology.gpu(100)

    def test_node_out_of_range(self, small_topology):
        with pytest.raises(IndexError):
            small_topology.gpus_of_node(5)

    def test_all_gpu_ids(self, small_topology):
        assert np.array_equal(small_topology.all_gpu_ids(), np.arange(8))


class TestBandwidth:
    def test_intra_node_faster_than_inter(self, small_topology):
        intra = small_topology.link_bandwidth(0, 0)
        inter = small_topology.link_bandwidth(0, 1)
        assert intra > inter

    def test_ring_bandwidth_single_node(self, small_topology):
        bw = small_topology.ring_bandwidth([0, 1, 2, 3])
        assert bw == pytest.approx(small_topology.node_spec.intra_node_bandwidth)

    def test_ring_bandwidth_cross_node_is_bottlenecked(self, small_topology):
        bw = small_topology.ring_bandwidth([0, 1, 4, 5])
        assert bw == pytest.approx(small_topology.node_spec.inter_node_bandwidth)

    def test_ring_bandwidth_empty_raises(self, small_topology):
        with pytest.raises(ValueError):
            small_topology.ring_bandwidth([])

    def test_ring_latency_grows_cross_node(self, small_topology):
        local = small_topology.ring_latency([0, 1])
        remote = small_topology.ring_latency([0, 4])
        assert remote > local


class TestStarOracle:
    """``link_bandwidth``/``ring_bandwidth`` equal the star-path oracle exactly."""

    @staticmethod
    def _oracle_inputs(topology):
        spec = topology.node_spec
        uplinks = [spec.inter_node_bandwidth] * topology.num_nodes
        node_of = topology.node_of(topology.all_gpu_ids())
        return spec.intra_node_bandwidth, uplinks, node_of

    @pytest.mark.parametrize("num_gpus", [8, 64, 1024])
    def test_link_bandwidth_every_node_pair(self, num_gpus):
        topology = make_longhorn_cluster(num_gpus)
        intra, uplinks, _ = self._oracle_inputs(topology)
        for a, b in itertools.product(range(topology.num_nodes), repeat=2):
            assert topology.link_bandwidth(a, b) == star_link_oracle(intra, uplinks, a, b)

    @pytest.mark.parametrize("num_gpus", [8, 64, 1024])
    def test_ring_bandwidth_random_subsets(self, num_gpus):
        topology = make_longhorn_cluster(num_gpus)
        intra, uplinks, node_of = self._oracle_inputs(topology)
        rng = np.random.default_rng(num_gpus)
        for _ in range(300):
            size = int(rng.integers(1, min(num_gpus, 32) + 1))
            gpu_ids = rng.choice(num_gpus, size=size, replace=False).tolist()
            expected = star_ring_oracle(intra, uplinks, node_of, gpu_ids)
            assert topology.ring_bandwidth(gpu_ids) == expected

    def test_unequal_uplinks_bound_by_the_slower_one(self):
        topology = make_longhorn_cluster(64)
        intra, _, node_of = self._oracle_inputs(topology)
        # Only the uplink list differs from a stock cluster: give every
        # server its own bandwidth so "the slower uplink" is observable.
        uplinks = [float(10 + (7 * node) % 16) for node in range(topology.num_nodes)]
        topology._uplink = list(uplinks)
        for a, b in itertools.product(range(topology.num_nodes), repeat=2):
            assert topology.link_bandwidth(a, b) == star_link_oracle(intra, uplinks, a, b)
        rng = np.random.default_rng(7)
        for _ in range(300):
            gpu_ids = rng.choice(64, size=int(rng.integers(1, 17)), replace=False).tolist()
            expected = star_ring_oracle(intra, uplinks, node_of, gpu_ids)
            assert topology.ring_bandwidth(gpu_ids) == expected


class TestSummaries:
    def test_nodes_spanned(self, small_topology):
        assert small_topology.nodes_spanned([0, 1]) == 1
        assert small_topology.nodes_spanned([0, 4]) == 2
        assert small_topology.nodes_spanned([]) == 0

    def test_describe(self, small_topology):
        info = small_topology.describe()
        assert info["gpus"] == 8
        assert info["nodes"] == 2
        assert info["gpu"] == "V100"
