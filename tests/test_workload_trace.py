"""Tests for repro.workload.trace."""

import numpy as np
import pytest

from repro.workload.trace import TraceConfig, TraceGenerator


class TestTraceConfig:
    def test_defaults_match_paper(self):
        config = TraceConfig()
        assert config.num_jobs == 50
        assert config.convergence_patience == 10

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(num_jobs=0)
        with pytest.raises(ValueError):
            TraceConfig(arrival_rate=0.0)
        with pytest.raises(ValueError):
            TraceConfig(gpu_request_choices=(1, 2), gpu_request_weights=(1.0,))
        with pytest.raises(ValueError):
            TraceConfig(gpu_request_choices=(0, 2), gpu_request_weights=(0.5, 0.5))

    def test_normalized_weights(self):
        config = TraceConfig(gpu_request_choices=(1, 2), gpu_request_weights=(3.0, 1.0))
        assert np.allclose(config.normalized_weights, [0.75, 0.25])


class TestTraceGenerator:
    def test_generates_requested_number_of_jobs(self):
        trace = TraceGenerator(TraceConfig(num_jobs=20), seed=1).generate()
        assert len(trace) == 20

    def test_unique_ids_and_sorted_arrivals(self):
        trace = TraceGenerator(TraceConfig(num_jobs=30), seed=2).generate()
        ids = [j.job_id for j in trace]
        arrivals = [j.arrival_time for j in trace]
        assert len(set(ids)) == 30
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0

    def test_deterministic_for_seed(self):
        a = TraceGenerator(TraceConfig(num_jobs=15), seed=7).generate()
        b = TraceGenerator(TraceConfig(num_jobs=15), seed=7).generate()
        assert [j.task for j in a] == [j.task for j in b]
        assert [j.arrival_time for j in a] == [j.arrival_time for j in b]

    def test_different_seeds_differ(self):
        a = TraceGenerator(TraceConfig(num_jobs=15), seed=7).generate()
        b = TraceGenerator(TraceConfig(num_jobs=15), seed=8).generate()
        assert [j.task for j in a] != [j.task for j in b]

    def test_gpu_requests_from_choices(self):
        config = TraceConfig(num_jobs=40, gpu_request_choices=(2, 4), gpu_request_weights=(0.5, 0.5))
        trace = TraceGenerator(config, seed=3).generate()
        assert set(j.requested_gpus for j in trace) <= {2, 4}

    def test_arrival_rate_controls_spacing(self):
        fast = TraceGenerator(TraceConfig(num_jobs=50, arrival_rate=1.0), seed=4).generate()
        slow = TraceGenerator(TraceConfig(num_jobs=50, arrival_rate=0.01), seed=4).generate()
        assert fast[-1].arrival_time < slow[-1].arrival_time

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            TraceGenerator(TraceConfig(num_jobs=5), catalog=[], seed=1)
