"""Tests for repro.cluster.placement."""

import pytest

from repro.cluster.placement import placement_quality


class TestPlacementQuality:
    def test_perfectly_packed(self, small_topology):
        assert placement_quality(small_topology, [0, 1, 2, 3]) == pytest.approx(1.0)

    def test_spread_is_worse(self, small_topology):
        packed = placement_quality(small_topology, [0, 1])
        spread = placement_quality(small_topology, [0, 4])
        assert spread < packed

    def test_empty_is_perfect(self, small_topology):
        assert placement_quality(small_topology, []) == 1.0
