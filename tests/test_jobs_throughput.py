"""Tests for repro.jobs.throughput."""

import numpy as np
import pytest

from repro.jobs.model_zoo import get_model
from repro.jobs.throughput import (
    BoundedMemo,
    StepTimeBreakdown,
    ThroughputModel,
    ThroughputTable,
    derive_global_batch,
    split_batch,
)
from tests._evolution_oracle import table_value


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

    @pytest.mark.parametrize(
        "global_batch, gpu_ids", [(10, [0, 1, 2]), (127, [0, 1, 4, 5, 6]), (65, [3, 4])]
    )
    def test_step_time_is_the_per_worker_max(self, throughput_model, global_batch, gpu_ids):
        model = get_model("resnet50")
        local = split_batch(global_batch, len(gpu_ids))
        assert len(set(local)) == 2  # an uneven remainder
        topology = throughput_model.topology
        expected = StepTimeBreakdown(
            compute_time=max(
                throughput_model.compute_time(model, b, topology.gpu(g).spec)
                for b, g in zip(local, gpu_ids)
            ),
            communication_time=throughput_model.allreduce_time(model, gpu_ids),
        )
        assert throughput_model.step_time(model, local, gpu_ids) == expected

    @pytest.mark.parametrize("gpu_ids", [[0, 8], [-1, 0], [0, 9, 1]])
    def test_step_time_rejects_gpus_outside_the_cluster(self, throughput_model, gpu_ids):
        with pytest.raises(IndexError, match="out of range"):
            throughput_model.step_time(get_model("resnet50"), [32] * len(gpu_ids), gpu_ids)


class TestThroughput:
    def test_positive(self, throughput_model):
        assert throughput_model.throughput(get_model("resnet50"), [64], [0]) > 0

    def test_empty_config_is_zero(self, throughput_model):
        assert throughput_model.throughput(get_model("resnet50"), [], []) == 0.0

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
        assert memo.get("a") == 1.0 and memo.get("b") is None

    def test_hit_miss_counters(self):
        memo = BoundedMemo(max_entries=8)
        memo["k"] = 2.0
        assert memo.get("k") == 2.0
        assert memo.get("missing") is None
        assert memo.hits == 1 and memo.misses == 1

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            BoundedMemo(max_entries=0)


def _fill(table: ThroughputTable) -> np.ndarray:
    """Look up every count on both locality planes: the whole table."""
    counts = np.repeat(np.arange(table.node_of.size + 1), len(table.roster)).reshape(
        -1, len(table.roster)
    )
    return np.stack([table.lookup(counts, np.full(counts.shape, plane)) for plane in (0, 1)])


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
                assert table_value(table, job_id, count) == expected

    def test_lazy_fill_is_bounded(self):
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        # The zero-count column of both locality planes starts filled.
        table_value(table, "job-0", 4)
        assert table.model_calls == 1
        _fill(table)
        assert table.model_calls == len(jobs) * num_gpus * 2
        _fill(table)
        assert table.model_calls == len(jobs) * num_gpus * 2

    def test_vectorised_lookup_matches_scalar(self):
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        roster = table.roster
        counts = np.array([[1, 0, 5], [2, 2, 2], [0, 0, 8]], dtype=np.int64)
        values = table.lookup(counts)
        for k in range(counts.shape[0]):
            for j, job_id in enumerate(roster):
                fresh = ThroughputTable(model, jobs, limits, num_gpus)
                assert values[k, j] == table_value(fresh, job_id, int(counts[k, j]))

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
                fresh = ThroughputTable(model, jobs, limits, num_gpus)
                expected = table_value(fresh, job_id, int(counts[k, j]), bool(crosses[k, j]))
                assert values[k, j] == expected
        table.lookup(counts, crosses)
        assert len(calls) == len(missing)

    def test_lookup_validates_shape(self):
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        with pytest.raises(ValueError):
            table.lookup(np.zeros((2, 99), dtype=np.int64))

    @pytest.mark.parametrize("bad_count", [9, 17, -1])
    def test_lookup_rejects_counts_outside_the_table(self, bad_count):
        # The gather goes through one flat index, where job 0's count 9
        # (on 8 GPUs) would be job 1's count 0: it must raise, not read.
        jobs, model, limits, num_gpus = self._fixture()
        table = ThroughputTable(model, jobs, limits, num_gpus)
        _fill(table)
        for job in range(len(table.roster)):
            counts = np.ones((2, len(table.roster)), dtype=np.int64)
            counts[1, job] = bad_count
            with pytest.raises(IndexError):
                table.lookup(counts)
            with pytest.raises(IndexError):
                table.lookup(counts, np.zeros(counts.shape, dtype=bool))

    def test_shared_memo_avoids_repeat_model_calls(self):
        jobs, model, limits, num_gpus = self._fixture()
        memo = BoundedMemo(max_entries=1024)
        first = ThroughputTable(model, jobs, limits, num_gpus, memo=memo)
        _fill(first)
        assert first.model_calls > 0
        second = ThroughputTable(model, jobs, limits, num_gpus, memo=memo)
        _fill(second)
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
        assert fn(jobs[roster[0]], schedule) == table_value(table, roster[0], 2)
        assert fn(jobs[roster[1]], schedule) == 0.0

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
        intra = table_value(table, "job-0", 2, crosses=False)
        inter = table_value(table, "job-0", 2, crosses=True)
        assert intra > inter > 0
