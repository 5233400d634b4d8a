"""Differential fuzz suite for the incremental delta-scoring kernel.

Parity contract (see :mod:`repro.core.scoring_incremental`): with
``EvolutionConfig.incremental_scoring`` on, every generation — and hence
every simulated trajectory — must be **bit-identical** to the batched
baseline (itself pinned against the scalar operators by
``test_core_evolution_batched.py``).  This suite fuzzes that contract at
three levels:

* decomposition algebra: ``build_decomposition`` /
  ``rescore_delta`` / ``rebuild_rows`` against fresh rebuilds over
  random genomes and random edit masks;
* operator parity: ``fill_idle_decomposed`` / ``reorder_decomposed``
  against the baseline batched operators from identical state, with the
  maintained decomposition re-validated after every op;
* trajectory parity: seeded multi-event simulations (unfaulted, faulted
  with node compaction mid-search, and hierarchical with partition-view
  swaps) run incremental-on vs incremental-off vs scalar, compared on
  the full per-job completion record.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig
from repro.core.evolution_batched import (
    fill_idle_population,
    refresh_population,
    reorder_population,
    run_generation,
)
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.core.scoring import population_gpu_counts, population_node_crossings
from repro.core.scoring_incremental import (
    IncrementalScoringEngine,
    ScoreDecomposition,
    build_decomposition,
    fill_idle_decomposed,
    reorder_decomposed,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import create_scheduler
from repro.experiments.runner import generate_trace, run_single
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultInjection, FaultKind
from repro.jobs.throughput import ThroughputModel, ThroughputTable
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig
from tests._core_helpers import make_context, make_jobs

IDLE = -1

CASES = [(8, 3, 0), (8, 5, 1), (16, 7, 2), (16, 12, 3), (32, 20, 4)]


def _table_workload(num_gpus, num_jobs, seed, never_started=()):
    """Randomised cluster snapshot + factory for table-backed contexts."""
    jobs = make_jobs(num_jobs)
    rng = np.random.default_rng(seed)
    for i, (job_id, job) in enumerate(jobs.items()):
        if job_id in never_started or rng.random() > 0.8:
            continue
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(int(rng.integers(500, 5000)), 10.0)
    model = ThroughputModel(make_longhorn_cluster(num_gpus))
    limits = {job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()}
    roster = tuple(sorted(jobs))
    base = make_context(
        jobs, num_gpus=num_gpus, limits=limits, seed=seed, never_started=never_started
    )

    def fresh_ctx(rng_seed):
        table = ThroughputTable(model, jobs, limits, num_gpus, roster=roster)
        return replace(
            base,
            throughput_fn=None,
            throughput_table=table,
            rng=np.random.default_rng(rng_seed),
        )

    return roster, fresh_ctx


def _random_genomes(roster, num_gpus, rows, seed, idle_fraction=0.35):
    rng = np.random.default_rng(seed)
    genomes = rng.integers(0, len(roster), size=(rows, num_gpus)).astype(np.int64)
    genomes[rng.random(genomes.shape) < idle_fraction] = IDLE
    return genomes


def _desired_remaining(ctx):
    from repro.core.evolution_batched import _desired_vector, _remaining_vector

    return _desired_vector(ctx), _remaining_vector(ctx)


def _assert_decomp_fresh(decomp, genomes, node_of):
    """The maintained decomposition equals a from-scratch rebuild."""
    fresh = build_decomposition(genomes, decomp.num_jobs, node_of)
    np.testing.assert_array_equal(decomp.counts, fresh.counts)
    np.testing.assert_array_equal(decomp.crosses, fresh.crosses)
    np.testing.assert_array_equal(decomp.sole_node, fresh.sole_node)


# --- decomposition algebra -----------------------------------------------------------------------


class TestDecomposition:
    @pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
    def test_build_matches_scoring_primitives(self, num_gpus, num_jobs, seed):
        roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed)
        ctx = fresh_ctx(seed)
        node_of = np.asarray(ctx.throughput_table.node_of, dtype=np.int64)
        genomes = _random_genomes(roster, num_gpus, 16, seed + 10)
        decomp = build_decomposition(genomes, num_jobs, node_of)
        np.testing.assert_array_equal(
            decomp.counts, population_gpu_counts(genomes, num_jobs)
        )
        np.testing.assert_array_equal(
            decomp.crosses, population_node_crossings(genomes, num_jobs, node_of)
        )
        assert decomp.matches(genomes)
        # sole_node: defined exactly on non-crossing placed jobs.
        placed = decomp.counts > 0
        assert np.all((decomp.sole_node >= 0) == (placed & ~decomp.crosses))

    @pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
    def test_rescore_delta_tracks_random_edits(self, num_gpus, num_jobs, seed):
        roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed)
        node_of = np.asarray(fresh_ctx(seed).throughput_table.node_of, dtype=np.int64)
        genomes = _random_genomes(roster, num_gpus, 20, seed + 20)
        decomp = build_decomposition(genomes, num_jobs, node_of)
        rng = np.random.default_rng(seed + 30)
        for _ in range(5):
            changed = rng.random(genomes.shape) < 0.15
            edits = rng.integers(-1, num_jobs, size=genomes.shape).astype(np.int64)
            genomes[changed] = edits[changed]
            rebuilt = decomp.rescore_delta(genomes, changed)
            assert rebuilt == int(changed.any(axis=1).sum())
            _assert_decomp_fresh(decomp, genomes, node_of)

    def test_rescore_delta_rejects_shape_mismatch(self):
        roster, fresh_ctx = _table_workload(8, 3, 0)
        node_of = np.asarray(fresh_ctx(0).throughput_table.node_of, dtype=np.int64)
        genomes = _random_genomes(roster, 8, 4, 1)
        decomp = build_decomposition(genomes, 3, node_of)
        with pytest.raises(ValueError):
            decomp.rescore_delta(genomes, np.zeros((5, 8), dtype=bool))

    def test_take_and_concatenate_roundtrip(self):
        roster, fresh_ctx = _table_workload(16, 7, 2)
        node_of = np.asarray(fresh_ctx(2).throughput_table.node_of, dtype=np.int64)
        genomes = _random_genomes(roster, 16, 10, 3)
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
        roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed)
        genomes = _random_genomes(roster, num_gpus, 12, seed + 40, idle_fraction=0.5)
        ctx_a, ctx_b = fresh_ctx(9), fresh_ctx(9)
        baseline = fill_idle_population(genomes, ctx_a)
        desired, remaining = _desired_remaining(ctx_b)
        node_of = np.asarray(ctx_b.throughput_table.node_of, dtype=np.int64)
        work = genomes.copy()
        decomp = build_decomposition(work, num_jobs, node_of)
        filled = fill_idle_decomposed(work, ctx_b, decomp, desired, remaining)
        np.testing.assert_array_equal(baseline, filled)
        _assert_decomp_fresh(decomp, filled, node_of)

    @pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
    def test_reorder_decomposed_bit_identical(self, num_gpus, num_jobs, seed):
        roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed)
        node_of = np.asarray(fresh_ctx(seed).throughput_table.node_of, dtype=np.int64)
        genomes = _random_genomes(roster, num_gpus, 15, seed + 50)
        decomp = build_decomposition(genomes, num_jobs, node_of)
        monotone = bool(np.all(np.diff(node_of) >= 0))
        reordered = reorder_decomposed(genomes.copy(), decomp, monotone)
        np.testing.assert_array_equal(reorder_population(genomes), reordered)
        _assert_decomp_fresh(decomp, reordered, node_of)

    def test_reorder_decomposed_non_monotone_fallback(self):
        """A shuffled GPU→server map must route through rebuild_rows."""
        roster, fresh_ctx = _table_workload(16, 7, 2)
        node_of = np.asarray(fresh_ctx(2).throughput_table.node_of, dtype=np.int64)
        perm = np.random.default_rng(0).permutation(node_of.size)
        shuffled = node_of[perm]
        genomes = _random_genomes(roster, 16, 12, 6)
        decomp = build_decomposition(genomes, 7, shuffled)
        reordered = reorder_decomposed(genomes.copy(), decomp, False)
        np.testing.assert_array_equal(reorder_population(genomes), reordered)
        _assert_decomp_fresh(decomp, reordered, shuffled)

    @pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
    def test_generation_bit_identical(self, num_gpus, num_jobs, seed):
        """Chained generations: engine path == baseline path, including RNG."""
        roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed)
        genomes = _random_genomes(roster, num_gpus, 10, seed + 60)
        config_off = EvolutionConfig(incremental_scoring=False)
        config_on = EvolutionConfig(incremental_scoring=True)
        engine = IncrementalScoringEngine()
        ctx_a, ctx_b = fresh_ctx(11), fresh_ctx(11)
        base, inc = genomes.copy(), genomes.copy()
        for _ in range(4):
            res_a = run_generation(base, ctx_a, config_off)
            res_b = run_generation(inc, ctx_b, config_on, engine=engine)
            np.testing.assert_array_equal(res_a.population, res_b.population)
            np.testing.assert_array_equal(res_a.scores, res_b.scores)
            base, inc = res_a.population, res_b.population
        stats = engine.stats()
        assert stats["full_rebuilds"] == 1  # cold start only
        assert stats["delta_generations"] == 3  # cache hits thereafter


# --- engine cache lifecycle ----------------------------------------------------------------------


class TestEngineLifecycle:
    def _setup(self, seed=2):
        roster, fresh_ctx = _table_workload(16, 7, seed)
        ctx = fresh_ctx(seed)
        genomes = _random_genomes(roster, 16, 8, seed + 70)
        return ctx, genomes

    def test_population_identity_invalidates(self):
        ctx, genomes = self._setup()
        engine = IncrementalScoringEngine()
        config = EvolutionConfig(incremental_scoring=True)
        res = run_generation(genomes, ctx, config, engine=engine)
        # A copied survivor matrix (different array object) forces a rebuild.
        run_generation(res.population.copy(), ctx, config, engine=engine)
        assert engine.stats()["full_rebuilds"] == 2

    def test_explicit_invalidate_forces_rebuild(self):
        ctx, genomes = self._setup()
        engine = IncrementalScoringEngine()
        config = EvolutionConfig(incremental_scoring=True)
        res = run_generation(genomes, ctx, config, engine=engine)
        engine.invalidate()
        run_generation(res.population, ctx, config, engine=engine)
        assert engine.stats()["full_rebuilds"] == 2
        assert engine.stats()["delta_generations"] == 0

    def test_table_swap_is_counted_but_keeps_cache(self):
        """A fresh table over the same cluster reuses the decomposition —
        table values feed the score gather, never the decomposition."""
        roster, fresh_ctx = _table_workload(16, 7, 3)
        genomes = _random_genomes(roster, 16, 8, 73)
        engine = IncrementalScoringEngine()
        config = EvolutionConfig(incremental_scoring=True)
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
        config = ExperimentConfig(
            num_gpus=16, trace=TraceConfig(num_jobs=8, arrival_rate=1.0 / 20.0), seed=11
        )
        trace = generate_trace(config)
        sched = ONESScheduler(ONESConfig(), seed=11)
        run_single(sched, trace, config)
        assert sched.num_table_reuses > 0


# --- trajectory parity ---------------------------------------------------------------------------


def _trajectory(scheduler, trace, config):
    result = run_single(scheduler, trace, config)
    return dict(result.completed), result.incomplete, result.makespan, result.events_processed


class TestTrajectoryParity:
    @pytest.mark.parametrize("seed", [7, 19, 42])
    def test_unfaulted_incremental_off_scalar(self, seed):
        config = ExperimentConfig(
            num_gpus=16,
            trace=TraceConfig(num_jobs=10, arrival_rate=1.0 / 20.0),
            seed=seed,
        )
        trace = generate_trace(config)

        def run(batched, incremental):
            sched = ONESScheduler(
                ONESConfig(
                    evolution=EvolutionConfig(
                        batched_operators=batched, incremental_scoring=incremental
                    )
                ),
                seed=seed,
            )
            return _trajectory(sched, trace, config)

        on = run(True, True)
        assert on == run(True, False)
        assert on == run(False, False)

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
        config = ExperimentConfig(
            num_gpus=16,
            trace=TraceConfig(num_jobs=8, arrival_rate=1.0 / 15.0),
            simulation=SimulationConfig(faults=faults),
            seed=seed,
        )
        trace = generate_trace(config)

        def run(incremental):
            sched = ONESScheduler(
                ONESConfig(
                    evolution=EvolutionConfig(incremental_scoring=incremental)
                ),
                seed=seed,
            )
            return _trajectory(sched, trace, config)

        assert run(True) == run(False)

    @pytest.mark.parametrize("seed", [9, 31])
    def test_hierarchical_partition_view_parity(self, seed):
        """ones-hier swaps per-partition views every event — each shard's
        engine must invalidate/rebuild correctly and match non-incremental."""
        config = ExperimentConfig(
            num_gpus=32,
            trace=TraceConfig(num_jobs=12, arrival_rate=1.0 / 15.0),
            seed=seed,
        )
        trace = generate_trace(config)

        def run(incremental):
            sched = create_scheduler(
                "ONES-hier", seed, partition_size=16, incremental_scoring=incremental
            )
            return _trajectory(sched, trace, config), sched

        on, sched_on = run(True)
        off, _ = run(False)
        assert on == off
        state = sched_on.describe_state()
        assert state["scoring_delta_generations"] > 0
