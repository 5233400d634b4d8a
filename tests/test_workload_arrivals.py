"""Tests for repro.workload.arrivals."""

import numpy as np
import pytest

from repro.utils.units import HOUR
from repro.workload.arrivals import (
    ArrivalConfig,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    UnknownArrivalProfileError,
)


def _gaps(times):
    """Mean and coefficient of variation of the inter-arrival gaps."""
    gaps = np.diff(np.sort(np.asarray(times, dtype=float)))
    return float(gaps.mean()), float(gaps.std() / gaps.mean())


class TestPoissonArrivals:
    def test_generates_sorted_nonnegative_times(self):
        times = PoissonArrivals(rate=0.1).generate(50, rng=0)
        assert len(times) == 50
        assert times[0] == 0.0
        assert np.all(np.diff(times) >= 0)

    def test_mean_interarrival_matches_rate(self):
        times = PoissonArrivals(rate=0.05).generate(4000, rng=1)
        assert _gaps(times)[0] == pytest.approx(20.0, rel=0.1)

    def test_deterministic_for_seed(self):
        a = PoissonArrivals(rate=0.1).generate(20, rng=3)
        b = PoissonArrivals(rate=0.1).generate(20, rng=3)
        assert np.array_equal(a, b)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)


class TestDiurnalArrivals:
    def test_rate_oscillates(self):
        process = DiurnalArrivals(base_rate=0.1, amplitude=0.8, period=24 * HOUR)
        peak = process.rate_at(6 * HOUR)    # sin peak for phase 0
        trough = process.rate_at(18 * HOUR)
        assert peak > process.base_rate > trough

    def test_generates_requested_count(self):
        times = DiurnalArrivals(base_rate=0.05).generate(100, rng=2)
        assert len(times) == 100
        assert np.all(np.diff(times) >= 0)

    def test_more_bursty_than_poisson(self):
        diurnal = DiurnalArrivals(base_rate=0.05, amplitude=0.95, period=2000.0).generate(
            3000, rng=4
        )
        poisson = PoissonArrivals(rate=0.05).generate(3000, rng=4)
        assert _gaps(diurnal)[1] > _gaps(poisson)[1] * 0.95

    def test_invalid_amplitude(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(amplitude=1.5)


class TestBurstyArrivals:
    def test_generates_requested_count(self):
        times = BurstyArrivals().generate(200, rng=5)
        assert len(times) == 200
        assert np.all(np.diff(times) >= 0)

    def test_burstier_than_poisson(self):
        bursty = BurstyArrivals(
            quiet_rate=1 / 120.0, burst_rate=1 / 3.0,
            mean_quiet_duration=900.0, mean_burst_duration=60.0,
        ).generate(2000, rng=6)
        poisson = PoissonArrivals(rate=1 / 30.0).generate(2000, rng=6)
        assert _gaps(bursty)[1] > _gaps(poisson)[1]

    def test_burst_rate_must_exceed_quiet_rate(self):
        with pytest.raises(ValueError):
            BurstyArrivals(quiet_rate=0.1, burst_rate=0.05)


class TestArrivalProfileRegistry:
    def test_builtin_profiles_registered(self):
        for name in ("poisson", "diurnal", "bursty"):
            assert len(ArrivalConfig(profile=name).generate(5)) == 5

    def test_unknown_profile_raises(self):
        with pytest.raises(UnknownArrivalProfileError):
            ArrivalConfig(profile="lunar").build_process()


class TestArrivalConfig:
    def test_generate_is_deterministic(self):
        config = ArrivalConfig(profile="diurnal", rate=1 / 60.0, seed=99)
        first = config.generate(100)
        second = config.generate(100)
        np.testing.assert_array_equal(first, second)

    def test_seed_changes_the_stream(self):
        a = ArrivalConfig(seed=1).generate(50)
        b = ArrivalConfig(seed=2).generate(50)
        assert not np.array_equal(a, b)

    def test_each_profile_generates_sorted_times(self):
        for profile in ("poisson", "diurnal", "bursty"):
            times = ArrivalConfig(profile=profile, rate=1 / 30.0, seed=11).generate(64)
            assert len(times) == 64
            assert np.all(np.diff(times) >= 0)
