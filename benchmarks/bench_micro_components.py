"""Microbenchmarks of the scheduler's hot components.

These are classic pytest-benchmark timings (many rounds) of the pieces
that run on every scheduling event: the throughput model, candidate
scoring, one evolutionary-search iteration, the progress predictor's
fit, and the event queue.  They bound the decision latency of ONES —
the paper argues evolutionary search has "relatively fast iterative
speed", and these numbers quantify it for this implementation.
"""

import numpy as np

from repro.cluster.events import Event, EventKind, EventQueue
from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.evolution_batched import initial_population_genomes
from repro.core.scoring_incremental import build_decomposition, score_decomposition
from repro.jobs.model_zoo import get_model
from repro.jobs.throughput import ThroughputModel
from repro.prediction.gpr import GaussianProcessRegression

from tests._core_helpers import make_context, make_jobs


def _busy_context(num_jobs=12, num_gpus=32):
    jobs = make_jobs(num_jobs)
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(1500 * (i + 1), 10.0)
    return make_context(jobs, num_gpus=num_gpus)


class TestThroughputModel:
    def test_throughput_query(self, benchmark):
        topology = make_longhorn_cluster(64)
        model = ThroughputModel(topology)
        resnet = get_model("resnet50")
        result = benchmark(model.throughput, resnet, [64] * 8, list(range(8)))
        assert result > 0


class TestScoring:
    def test_score_population(self, benchmark):
        ctx = _busy_context()
        genomes = initial_population_genomes(ctx, size=16, seed=0)
        table = ctx.throughput_table
        progress = {job_id: 0.5 for job_id in ctx.roster}

        def score():
            decomp = build_decomposition(genomes, len(ctx.roster), table.node_of)
            return score_decomposition(decomp, ctx.roster, ctx.jobs, progress, table)

        scores = benchmark(score)
        assert np.all(np.isfinite(scores))


class TestEvolutionStep:
    def test_single_iteration(self, benchmark):
        ctx = _busy_context()
        search = EvolutionarySearch(EvolutionConfig(population_size=16), seed=0)
        search.step(ctx)  # warm up / initialise the population

        def one_step():
            return search.step(ctx)

        best, score = benchmark(one_step)
        assert np.isfinite(score)


class TestPredictorFit:
    def test_gpr_fit_128_points(self, benchmark, rng=np.random.default_rng(0)):
        X = rng.normal(size=(128, 5))
        y = X @ np.array([3.0, -1.0, 0.5, 2.0, 0.0]) + rng.normal(scale=0.2, size=128)

        def fit():
            return GaussianProcessRegression(random_state=0).fit(X, y)

        model = benchmark(fit)
        assert model.is_fitted


class TestEventQueue:
    def test_push_pop_throughput(self, benchmark):
        def churn():
            queue = EventQueue()
            for i in range(2000):
                queue.push(Event(time=float((i * 7919) % 1000), kind=EventKind.EPOCH_END))
            count = 0
            while queue:
                queue.pop()
                count += 1
            return count

        assert benchmark(churn) == 2000
