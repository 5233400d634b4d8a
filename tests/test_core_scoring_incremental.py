"""Differential fuzz suite for the incremental delta-scoring kernel.

Parity contract (see :mod:`repro.core.scoring_incremental`): every
generation the kernel runs over its maintained score decomposition —
and hence every simulated trajectory — must be **bit-identical** to the
scalar reference in ``tests/_evolution_oracle.py``.  This suite fuzzes
that contract at three levels:

* decomposition algebra: ``build_decomposition`` / ``rebuild_rows`` /
  ``take`` / ``concatenate`` against fresh rebuilds and the oracle's
  per-schedule counts and crossings, over random genomes and edits;
* operator parity: ``fill_idle_decomposed`` / ``reorder_decomposed``
  against the oracle's operators from identical state, with the
  maintained decomposition re-validated after every op, and chained
  generations against the oracle's;
* trajectory parity: seeded multi-event simulations (unfaulted, faulted
  with node compaction mid-search, and hierarchical with partition-view
  swaps) run with the kernel and with the oracle search, compared on
  the full per-job completion record.
"""

from __future__ import annotations

import numpy as np
import pytest

import tests._evolution_oracle as oracle
from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig
from repro.core.evolution_batched import run_generation
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.core.schedule import Schedule
from repro.core.scoring_incremental import (
    IncrementalScoringEngine,
    ScoreDecomposition,
    build_decomposition,
)
from repro.experiments.backends import simulate_trace
from repro.experiments.registry import create_scheduler
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultInjection, FaultKind
from repro.jobs.throughput import ThroughputModel, ThroughputTable
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator
from tests._core_helpers import (
    kernel_fill,
    kernel_reorder,
    make_jobs,
    random_genomes,
    table_workload,
)

CASES = [(8, 3, 0), (8, 5, 1), (16, 7, 2), (16, 12, 3), (32, 20, 4)]


def _trace(num_jobs, interval, seed):
    config = TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / interval)
    return TraceGenerator(config, seed=seed).generate()


def _assert_decomp_fresh(decomp, genomes, node_of):
    """The maintained decomposition equals a from-scratch rebuild."""
    fresh = build_decomposition(genomes, decomp.num_jobs, node_of)
    np.testing.assert_array_equal(decomp.counts, fresh.counts)
    np.testing.assert_array_equal(decomp.crosses, fresh.crosses)
    np.testing.assert_array_equal(decomp.sole_node, fresh.sole_node)


def _rows(schedules):
    return np.stack([schedule.genome for schedule in schedules])


# --- decomposition algebra -----------------------------------------------------------------------


class TestDecomposition:
    @pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
    def test_build_matches_scoring_primitives(self, num_gpus, num_jobs, seed):
        """Counts and crossings equal the oracle's per-schedule queries."""
        roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed)
        table = fresh_ctx(seed).throughput_table
        genomes = random_genomes(roster, num_gpus, 16, seed + 10)
        decomp = build_decomposition(genomes, num_jobs, table.node_of)
        for k, genome in enumerate(genomes):
            schedule = Schedule(roster=roster, genome=genome)
            for j, job_id in enumerate(roster):
                assert decomp.counts[k, j] == schedule.gpu_count(job_id)
                assert decomp.crosses[k, j] == oracle.crosses_nodes(
                    table, schedule.gpus_of(job_id)
                )
        assert decomp.matches(genomes)
        # sole_node: defined exactly on non-crossing placed jobs.
        placed = decomp.counts > 0
        assert np.all((decomp.sole_node >= 0) == (placed & ~decomp.crosses))

    @pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
    def test_rescore_delta_tracks_random_edits(self, num_gpus, num_jobs, seed):
        """Rebuilding only the edited rows keeps the whole cache exact."""
        roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed)
        node_of = np.asarray(fresh_ctx(seed).throughput_table.node_of, dtype=np.int64)
        genomes = random_genomes(roster, num_gpus, 20, seed + 20)
        decomp = build_decomposition(genomes, num_jobs, node_of)
        rng = np.random.default_rng(seed + 30)
        for _ in range(5):
            changed = rng.random(genomes.shape) < 0.15
            edits = rng.integers(-1, num_jobs, size=genomes.shape).astype(np.int64)
            genomes[changed] = edits[changed]
            decomp.rebuild_rows(genomes, np.flatnonzero(changed.any(axis=1)))
            _assert_decomp_fresh(decomp, genomes, node_of)

    def test_take_and_concatenate_roundtrip(self):
        roster, fresh_ctx = table_workload(16, 7, 2)
        node_of = np.asarray(fresh_ctx(2).throughput_table.node_of, dtype=np.int64)
        genomes = random_genomes(roster, 16, 10, 3)
        decomp = build_decomposition(genomes, 7, node_of)
        order = np.array([4, 0, 9, 2])
        taken = decomp.take(order)
        _assert_decomp_fresh(taken, genomes[order], node_of)
        merged = ScoreDecomposition.concatenate([taken, decomp])
        _assert_decomp_fresh(merged, np.concatenate([genomes[order], genomes]), node_of)


# --- operator parity -----------------------------------------------------------------------------


class TestOperatorParity:
    @pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
    def test_fill_decomposed_bit_identical(self, num_gpus, num_jobs, seed):
        roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed)
        genomes = random_genomes(roster, num_gpus, 12, seed + 40, idle_fraction=0.5)
        ctx_a, ctx_b = fresh_ctx(9), fresh_ctx(9)
        scalar = _rows(
            oracle.fill_idle_gpus(Schedule(roster=roster, genome=g), ctx_a) for g in genomes
        )
        filled, decomp = kernel_fill(genomes, ctx_b)
        np.testing.assert_array_equal(scalar, filled)
        _assert_decomp_fresh(decomp, filled, ctx_b.throughput_table.node_of)

    @pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
    def test_reorder_decomposed_bit_identical(self, num_gpus, num_jobs, seed):
        roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed)
        node_of = np.asarray(fresh_ctx(seed).throughput_table.node_of, dtype=np.int64)
        genomes = random_genomes(roster, num_gpus, 15, seed + 50)
        scalar = _rows(oracle.reorder(Schedule(roster=roster, genome=g)) for g in genomes)
        reordered, decomp = kernel_reorder(genomes, num_jobs, node_of)
        np.testing.assert_array_equal(scalar, reordered)
        _assert_decomp_fresh(decomp, reordered, node_of)

    def test_reorder_decomposed_non_monotone_fallback(self):
        """A shuffled GPU→server map must route through rebuild_rows."""
        roster, fresh_ctx = table_workload(16, 7, 2)
        node_of = np.asarray(fresh_ctx(2).throughput_table.node_of, dtype=np.int64)
        perm = np.random.default_rng(0).permutation(node_of.size)
        shuffled = node_of[perm]
        genomes = random_genomes(roster, 16, 12, 6)
        scalar = _rows(oracle.reorder(Schedule(roster=roster, genome=g)) for g in genomes)
        reordered, decomp = kernel_reorder(genomes, 7, shuffled)
        np.testing.assert_array_equal(scalar, reordered)
        _assert_decomp_fresh(decomp, reordered, shuffled)

    @pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
    def test_generation_bit_identical(self, num_gpus, num_jobs, seed):
        """Chained generations: kernel == oracle, including RNG, with the
        decomposition served from the engine's cache after the first."""
        roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed)
        genomes = random_genomes(roster, num_gpus, 10, seed + 60)
        config = EvolutionConfig()
        engine = IncrementalScoringEngine()
        ctx_a, ctx_b = fresh_ctx(11), fresh_ctx(11)
        population = [Schedule(roster=roster, genome=g) for g in genomes]
        for _ in range(4):
            survivors, _ = oracle.generation(population, ctx_a, config)
            result = run_generation(genomes, ctx_b, config, engine=engine)
            np.testing.assert_array_equal(_rows(s for s, _ in survivors), result.population)
            np.testing.assert_array_equal([score for _, score in survivors], result.scores)
            population, genomes = [s for s, _ in survivors], result.population
        assert ctx_a.rng.integers(2**31) == ctx_b.rng.integers(2**31)
        stats = engine.stats()
        assert stats["full_rebuilds"] == 1  # cold start only
        assert stats["delta_generations"] == 3  # cache hits thereafter


# --- engine cache lifecycle ----------------------------------------------------------------------


class TestEngineLifecycle:
    def _setup(self, seed=2):
        roster, fresh_ctx = table_workload(16, 7, seed)
        ctx = fresh_ctx(seed)
        genomes = random_genomes(roster, 16, 8, seed + 70)
        return ctx, genomes

    def test_population_identity_invalidates(self):
        ctx, genomes = self._setup()
        engine = IncrementalScoringEngine()
        config = EvolutionConfig()
        res = run_generation(genomes, ctx, config, engine=engine)
        # A copied survivor matrix (different array object) forces a rebuild.
        run_generation(res.population.copy(), ctx, config, engine=engine)
        assert engine.stats()["full_rebuilds"] == 2

    def test_explicit_invalidate_forces_rebuild(self):
        ctx, genomes = self._setup()
        engine = IncrementalScoringEngine()
        config = EvolutionConfig()
        res = run_generation(genomes, ctx, config, engine=engine)
        engine.invalidate()
        run_generation(res.population, ctx, config, engine=engine)
        assert engine.stats()["full_rebuilds"] == 2
        assert engine.stats()["delta_generations"] == 0

    def test_table_swap_is_counted_but_keeps_cache(self):
        """A fresh table over the same cluster reuses the decomposition —
        table values feed the score gather, never the decomposition."""
        roster, fresh_ctx = table_workload(16, 7, 3)
        genomes = random_genomes(roster, 16, 8, 73)
        engine = IncrementalScoringEngine()
        config = EvolutionConfig()
        res = run_generation(genomes, fresh_ctx(5), config, engine=engine)
        run_generation(res.population, fresh_ctx(5), config, engine=engine)
        stats = engine.stats()
        assert stats["table_swaps"] == 1
        assert stats["delta_generations"] == 1


# --- throughput-table versioning -----------------------------------------------------------------


class TestTableVersioning:
    def test_versions_are_unique_and_invalidatable(self):
        jobs = make_jobs(3)
        model = ThroughputModel(make_longhorn_cluster(8))
        limits = {j: job.spec.base_batch for j, job in jobs.items()}
        a = ThroughputTable(model, jobs, limits, 8, roster=tuple(sorted(jobs)))
        b = ThroughputTable(model, jobs, limits, 8, roster=tuple(sorted(jobs)))
        assert a.version != b.version
        before = a.version
        a.invalidate()
        assert a.version != before
        assert a.version != b.version

    def test_scheduler_reuses_table_between_limit_changes(self):
        sched = ONESScheduler(ONESConfig(), seed=11)
        simulate_trace(sched, _trace(8, 20.0, 11), 16)
        assert sched.num_table_reuses > 0


# --- trajectory parity ---------------------------------------------------------------------------


def _trajectory(scheduler, trace, num_gpus, simulation=None):
    result = simulate_trace(scheduler, trace, num_gpus, simulation)
    return dict(result.completed), result.incomplete, result.makespan, result.events_processed


class TestTrajectoryParity:
    @pytest.mark.parametrize("seed", [7, 19, 42])
    def test_unfaulted_incremental_off_scalar(self, seed):
        trace = _trace(10, 20.0, seed)
        kernel = ONESScheduler(ONESConfig(), seed=seed)
        scalar = oracle.use_oracle_search(ONESScheduler(ONESConfig(), seed=seed))
        assert _trajectory(kernel, trace, 16) == _trajectory(scalar, trace, 16)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_faulted_node_compaction_parity(self, seed):
        """Node outage mid-search masks the cluster view — the engine must
        rebuild on the compacted genome width and stay bit-identical."""
        faults = FaultConfig(
            injections=(
                FaultInjection(60.0, FaultKind.NODE_DOWN, 1),
                FaultInjection(500.0, FaultKind.NODE_UP, 1),
            )
        )
        simulation = SimulationConfig(faults=faults)
        trace = _trace(8, 15.0, seed)
        kernel = ONESScheduler(ONESConfig(), seed=seed)
        scalar = oracle.use_oracle_search(ONESScheduler(ONESConfig(), seed=seed))
        assert _trajectory(kernel, trace, 16, simulation) == _trajectory(
            scalar, trace, 16, simulation
        )
        assert kernel.search.scoring_engine.stats()["full_rebuilds"] > 1

    @pytest.mark.parametrize("seed", [9, 31])
    def test_hierarchical_partition_view_parity(self, seed):
        """ones-hier swaps per-partition views every event — each shard's
        engine must invalidate/rebuild correctly and match the oracle."""
        trace = _trace(12, 15.0, seed)
        kernel = create_scheduler("ONES-hier", seed, partition_size=16)
        scalar = oracle.use_oracle_search(
            create_scheduler("ONES-hier", seed, partition_size=16)
        )
        assert _trajectory(kernel, trace, 32) == _trajectory(scalar, trace, 32)
        assert all(
            isinstance(p.inner.search, oracle.OracleSearch) for p in scalar._partitions
        )
        assert kernel.describe_state()["scoring_delta_generations"] > 0
