"""Tests for repro.jobs.throughput."""

import numpy as np
import pytest

from repro.jobs.model_zoo import get_model
from repro.jobs.throughput import (
    BoundedMemo,
    ThroughputModel,
    ThroughputTable,
    derive_global_batch,
    split_batch,
)


class TestSplitBatch:
    def test_even(self):
        assert split_batch(128, 4) == [32, 32, 32, 32]

    def test_uneven_gives_extra_to_first(self):
        assert split_batch(10, 3) == [4, 3, 3]

    def test_total_preserved(self):
        for total in (1, 7, 63, 1024):
            for workers in (1, 3, 8):
                assert sum(split_batch(total, workers)) == total

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_batch(8, 0)
        with pytest.raises(ValueError):
            split_batch(-1, 2)


class TestStepTime:
    def test_compute_time_scales_with_batch(self, throughput_model):
        model = get_model("resnet50")
        assert throughput_model.compute_time(model, 128) > throughput_model.compute_time(model, 16)

    def test_zero_batch_zero_time(self, throughput_model):
        assert throughput_model.compute_time(get_model("resnet50"), 0) == 0.0

    def test_single_worker_has_no_comm(self, throughput_model):
        assert throughput_model.allreduce_time(get_model("resnet50"), [0]) == 0.0

    def test_cross_node_comm_slower(self, throughput_model):
        model = get_model("vgg16")
        intra = throughput_model.allreduce_time(model, [0, 1, 2, 3])
        inter = throughput_model.allreduce_time(model, [0, 1, 4, 5])
        assert inter > intra

    def test_step_time_breakdown(self, throughput_model):
        model = get_model("resnet50")
        breakdown = throughput_model.step_time(model, [64, 64], [0, 1])
        assert breakdown.compute_time > 0
        assert breakdown.communication_time > 0
        assert breakdown.total == pytest.approx(
            breakdown.compute_time + breakdown.communication_time
        )

    def test_step_time_mismatched_lengths(self, throughput_model):
        with pytest.raises(ValueError):
            throughput_model.step_time(get_model("resnet50"), [64], [0, 1])


class TestThroughput:
    def test_positive(self, throughput_model):
        assert throughput_model.throughput(get_model("resnet50"), [64], [0]) > 0

    def test_empty_config_is_zero(self, throughput_model):
        assert throughput_model.throughput(get_model("resnet50"), [], []) == 0.0

    def test_epoch_time(self, throughput_model):
        model = get_model("resnet50")
        rate = throughput_model.throughput(model, [64], [0])
        epoch = throughput_model.epoch_time(model, 6400, [64], [0])
        assert epoch == pytest.approx(6400 / rate)

    def test_epoch_time_unplaced_is_infinite(self, throughput_model):
        assert throughput_model.epoch_time(get_model("resnet50"), 6400, [], []) == float("inf")

    def test_invalid_efficiency(self, small_topology):
        with pytest.raises(ValueError):
            ThroughputModel(small_topology, allreduce_efficiency=1.5)


class TestFigure2Shape:
    """The qualitative behaviour behind Fig. 2."""

    def test_fixed_global_batch_saturates_and_degrades(self, small_topology):
        model = ThroughputModel(small_topology)
        resnet_cifar = get_model("resnet50").scaled(0.12, "@cifar10")
        curve = model.scaling_curve(resnet_cifar, range(1, 9), global_batch=256)
        peak_at = int(np.argmax(curve)) + 1
        # The fixed-batch curve peaks within a single server and degrades
        # beyond it (Fig. 2's flattening-then-dropping curve).
        assert peak_at <= 4
        assert curve[-1] < curve.max()
        # Gains beyond 2 workers are marginal compared to the 1 -> 2 step.
        gain_1_to_2 = curve[1] / curve[0]
        gain_2_to_4 = curve[3] / curve[1]
        assert gain_2_to_4 < gain_1_to_2

    def test_elastic_batch_keeps_growing(self, small_topology):
        model = ThroughputModel(small_topology)
        resnet_cifar = get_model("resnet50").scaled(0.12, "@cifar10")
        elastic = model.scaling_curve(resnet_cifar, range(1, 9), local_batch=256)
        # Throughput keeps growing with workers; a small dip is tolerated
        # at the node boundary (4 -> 5 workers crosses onto InfiniBand).
        assert np.all(elastic >= 0.93 * np.maximum.accumulate(elastic))
        assert elastic[-1] > 4.0 * elastic[0]
        assert np.all(np.diff(elastic[:4]) > 0)
        assert np.all(np.diff(elastic[4:]) > 0)

    def test_elastic_beats_fixed_at_eight_workers(self, small_topology):
        model = ThroughputModel(small_topology)
        resnet_cifar = get_model("resnet50").scaled(0.12, "@cifar10")
        fixed = model.scaling_curve(resnet_cifar, [8], global_batch=256)[0]
        elastic = model.scaling_curve(resnet_cifar, [8], local_batch=256)[0]
        assert elastic > 2.0 * fixed

    def test_scaling_curve_requires_exactly_one_mode(self, small_topology):
        model = ThroughputModel(small_topology)
        resnet = get_model("resnet50")
        with pytest.raises(ValueError):
            model.scaling_curve(resnet, [1, 2])
        with pytest.raises(ValueError):
            model.scaling_curve(resnet, [1, 2], global_batch=256, local_batch=64)


class TestDeriveGlobalBatch:
    def test_zero_for_no_gpus(self):
        assert derive_global_batch(0, 64, 512, 4000) == 0

    def test_limited_by_memory_limit_and_dataset(self):
        # natural = count * max_local_batch caps the batch...
        assert derive_global_batch(2, 64, 512, 4000) == 128
        # ...the limit R_j caps it next...
        assert derive_global_batch(8, 64, 300, 4000) == 300
        # ...and the dataset size caps everything.
        assert derive_global_batch(8, 64, 512, 100) == 100

    def test_at_least_one_sample_per_worker(self):
        assert derive_global_batch(8, 64, 2, 4000) == 8

    def test_matches_schedule_derivation(self):
        from repro.core.schedule import IDLE, Schedule
        from tests._core_helpers import make_jobs

        jobs = make_jobs(2)
        roster = tuple(sorted(jobs))
        schedule = Schedule(
            roster=roster, genome=np.array([0, 0, 1, IDLE], dtype=np.int64)
        )
        for job_id, job in jobs.items():
            assert schedule.global_batch(job, 256) == derive_global_batch(
                schedule.gpu_count(job_id), job.spec.max_local_batch, 256,
                job.dataset_size,
            )


class TestBoundedMemo:
    def test_bounded_with_lru_eviction(self):
        memo = BoundedMemo(max_entries=3)
        for key in "abc":
            memo[key] = 1.0
        memo.get("a")  # refresh 'a' so 'b' is the least recently used
        memo["d"] = 4.0
        assert len(memo) == 3
        assert "a" in memo and "b" not in memo

    def test_hit_miss_counters(self):
        memo = BoundedMemo(max_entries=8)
        memo["k"] = 2.0
        assert memo.get("k") == 2.0
        assert memo.get("missing") is None
        assert memo.hits == 1 and memo.misses == 1

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            BoundedMemo(max_entries=0)


class TestThroughputTable:
    def _fixture(self, num_gpus=8, num_jobs=3):
        from repro.cluster.topology import make_longhorn_cluster
        from tests._core_helpers import make_jobs

        jobs = make_jobs(num_jobs)
        topology = make_longhorn_cluster(num_gpus)
        model = ThroughputModel(topology)
        limits = {job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()}
        return jobs, model, limits, num_gpus

    def test_matches_canonical_model_evaluation(self):
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        for job_id, job in jobs.items():
            for count in (1, 3, num_gpus):
                expected = model.throughput_even(
                    job.spec.model,
                    derive_global_batch(
                        count, job.spec.max_local_batch, limits[job_id],
                        job.dataset_size,
                    ),
                    range(count),
                )
                assert table.throughput(job_id, count) == expected

    def test_lazy_fill_is_bounded(self):
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        # The zero-count column of both locality planes starts filled.
        assert table.filled_entries == 2 * len(jobs)
        table.throughput("job-0", 4)
        assert table.filled_entries == 2 * len(jobs) + 1
        table.matrix()
        assert table.filled_entries == table.capacity
        assert table.capacity == len(jobs) * (num_gpus + 1) * 2

    def test_vectorised_lookup_matches_scalar(self):
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        roster = table.roster
        counts = np.array([[1, 0, 5], [2, 2, 2], [0, 0, 8]], dtype=np.int64)
        values = table.lookup(counts)
        for k in range(counts.shape[0]):
            for j, job_id in enumerate(roster):
                assert values[k, j] == table.throughput(job_id, int(counts[k, j]))

    def test_lookup_fills_missing_entries_once_in_triple_order(self, monkeypatch):
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        calls = []
        compute = table._compute
        monkeypatch.setattr(
            table, "_compute", lambda j, c, p: calls.append((j, c, p)) or compute(j, c, p)
        )
        counts = np.array([[3, 1, 5], [1, 1, 5], [3, 8, 2]], dtype=np.int64)
        crosses = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=bool)
        values = table.lookup(counts, crosses)
        missing = {
            (j, int(counts[k, j]), bool(crosses[k, j]))
            for k in range(counts.shape[0])
            for j in range(counts.shape[1])
        }
        assert calls == sorted(missing)
        for k in range(counts.shape[0]):
            for j, job_id in enumerate(table.roster):
                expected = table.throughput(job_id, int(counts[k, j]), bool(crosses[k, j]))
                assert values[k, j] == expected
        table.lookup(counts, crosses)
        assert len(calls) == len(missing)

    def test_lookup_validates_shape(self):
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        with pytest.raises(ValueError):
            table.lookup(np.zeros((2, 99), dtype=np.int64))

    def test_count_out_of_range_rejected(self):
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        with pytest.raises(ValueError):
            table.throughput("job-0", num_gpus + 1)

    def test_shared_memo_avoids_repeat_model_calls(self):
        jobs, model, limits, num_gpus = self._fixture()
        memo = BoundedMemo(max_entries=1024)
        first = ThroughputTable(model, jobs, limits, num_gpus, memo=memo)
        first.matrix()
        assert first.model_calls > 0
        second = ThroughputTable(model, jobs, limits, num_gpus, memo=memo)
        second.matrix()
        assert second.model_calls == 0  # every entry came from the memo

    def test_as_throughput_fn_adapter(self):
        from repro.core.schedule import IDLE, Schedule
        from tests._evolution_oracle import table_throughput_fn

        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        fn = table_throughput_fn(table)
        roster = table.roster
        genome = np.full(num_gpus, IDLE, dtype=np.int64)
        genome[:2] = 0
        schedule = Schedule(roster=roster, genome=genome)
        assert fn(jobs[roster[0]], schedule) == table.throughput(roster[0], 2)
        assert fn(jobs[roster[1]], schedule) == 0.0

    def test_from_matrix_is_frozen(self):
        table = ThroughputTable.from_matrix(("a", "b"), np.ones((2, 4)))
        assert table.throughput("a", 3) == 1.0
        with pytest.raises(ValueError):
            ThroughputTable.from_matrix(("a",), np.ones((2, 4)))
        sparse = np.ones((1, 4))
        sparse[0, 2] = np.nan
        frozen = ThroughputTable.from_matrix(("a",), sparse)
        with pytest.raises(RuntimeError):
            frozen.throughput("a", 2)

    def test_adapter_matches_placement_aware_model(self):
        """The locality planes restore the seed's placement sensitivity:
        the table agrees with the analytic model on ANY placement, packed
        or node-straddling, on the uniform star topology."""
        from repro.core.schedule import IDLE, Schedule
        from tests._evolution_oracle import table_throughput_fn

        jobs, model, limits, num_gpus = self._fixture(num_gpus=16, num_jobs=3)
        table = ThroughputTable(model, jobs, limits, num_gpus)
        fn = table_throughput_fn(table)
        roster = table.roster
        rng = np.random.default_rng(0)
        for _ in range(20):
            genome = rng.integers(0, len(roster), size=num_gpus).astype(np.int64)
            genome[rng.random(num_gpus) < 0.4] = IDLE
            schedule = Schedule(roster=roster, genome=genome)
            for job_id in schedule.placed_jobs():
                job = jobs[job_id]
                direct = model.throughput_even(
                    job.spec.model,
                    schedule.global_batch(job, limits[job_id]),
                    schedule.gpus_of(job_id),
                )
                assert fn(job, schedule) == pytest.approx(direct)

    def test_planes_differ_across_node_boundary(self):
        """A 2-GPU placement inside one server must beat the same count
        straddling two servers (NVLink vs InfiniBand ring)."""
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        intra = table.throughput("job-0", 2, crosses_nodes=False)
        inter = table.throughput("job-0", 2, crosses_nodes=True)
        assert intra > inter > 0
