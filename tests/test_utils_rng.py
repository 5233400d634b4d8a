"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_generator


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).integers(0, 1000, size=5)
        b = as_generator(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)


class TestSpawnGenerator:
    def test_same_name_same_stream(self):
        a = spawn_generator(5, "trace").integers(0, 10**6, size=4)
        b = spawn_generator(5, "trace").integers(0, 10**6, size=4)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        a = spawn_generator(5, "trace").integers(0, 10**6, size=8)
        b = spawn_generator(5, "evolution").integers(0, 10**6, size=8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = spawn_generator(5, "trace").integers(0, 10**6, size=8)
        b = spawn_generator(6, "trace").integers(0, 10**6, size=8)
        assert not np.array_equal(a, b)
