"""Golden parity: the online service reproduces offline runs bit-for-bit.

The service's determinism contract (see :mod:`repro.service`): a recorded
trace replayed through the live-submission path in virtual time yields
*exactly* the simulation an offline
:meth:`~repro.sim.simulator.ClusterSimulator.run` of the same trace
produces — same event count, same reconfigurations, float-identical
per-job metrics.  This is the regression net over the kernel's
``inject``/``step`` machinery and the simulator's online
mode: any drift in event ordering shows up here as a bit difference.
"""

from dataclasses import replace

import pytest

from repro.cluster.topology import make_longhorn_cluster
from repro.experiments.registry import create_scheduler
from repro.service.engine import SchedulerService
from repro.service.schemas import JobSubmission, ServiceConfig, TenantQuota
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from repro.workload.replay import jobspec_to_dict
from repro.workload.trace import TraceConfig, TraceGenerator

HORIZON = 24 * 3600.0


def replay_trace(service, trace, *, tenant):
    """Push a recorded trace through the service's submission path.

    Each spec keeps its recorded arrival time and travels as the trusted
    ``spec`` payload, so with ``drain`` the end state is bit-identical to
    an offline run of the trace.
    """
    return [
        service.submit(
            JobSubmission(
                tenant=tenant,
                replicas=int(spec.requested_gpus),
                gpus_per_replica=1,
                arrival_time=float(spec.arrival_time),
                spec=jobspec_to_dict(spec),
            )
        )
        for spec in trace
    ]


def offline_run(trace, scheduler_name, num_gpus, seed):
    simulator = ClusterSimulator(
        make_longhorn_cluster(num_gpus),
        create_scheduler(scheduler_name, seed=seed),
        trace,
        SimulationConfig(max_time=HORIZON),
    )
    return simulator.run()


def online_run(trace, scheduler_name, num_gpus, seed):
    service = SchedulerService(
        ServiceConfig(
            num_gpus=num_gpus,
            scheduler=scheduler_name,
            seed=seed,
            mode="virtual",
            max_time=HORIZON,
            tenants=(TenantQuota(tenant="replay"),),
        )
    )
    decisions = replay_trace(service, trace, tenant="replay")
    return service, decisions, service.drain()


class TestGoldenParity:
    @pytest.mark.parametrize("scheduler_name", ["ONES", "Tiresias"])
    def test_service_replay_is_bit_identical(self, scheduler_name):
        trace = TraceGenerator(TraceConfig(num_jobs=20), seed=11).generate()
        offline = offline_run(trace, scheduler_name, 32, seed=5)
        _, decisions, online = online_run(trace, scheduler_name, 32, seed=5)

        assert all(d.status != "rejected" for d in decisions)
        # Bit-identical, not approximately equal: dict equality compares
        # every per-job float metric exactly.
        assert online.completed == offline.completed
        assert online.incomplete == offline.incomplete
        assert online.makespan == offline.makespan
        assert online.gpu_time_busy == offline.gpu_time_busy
        assert online.num_reconfigurations == offline.num_reconfigurations
        assert online.events_processed == offline.events_processed

    def test_parity_holds_with_queued_arrivals(self):
        # A burst of same-time arrivals exercises the (time, kind,
        # counter) tie-break: all five land at t=0 before any capacity
        # frees up.
        trace = [
            replace(spec, arrival_time=0.0)
            for spec in TraceGenerator(TraceConfig(num_jobs=5), seed=3).generate()
        ]
        offline = offline_run(trace, "ONES", 16, seed=2)
        _, _, online = online_run(trace, "ONES", 16, seed=2)
        assert online.completed == offline.completed
        assert online.events_processed == offline.events_processed


class TestOnlineSimulatorContract:
    def _online_sim(self):
        return ClusterSimulator(
            make_longhorn_cluster(16),
            create_scheduler("ONES", seed=1),
            trace=[],
            config=SimulationConfig(max_time=HORIZON),
            online=True,
        )

    def test_offline_requires_nonempty_trace(self):
        with pytest.raises(ValueError):
            ClusterSimulator(
                make_longhorn_cluster(16),
                create_scheduler("ONES", seed=1),
                trace=[],
            )

    def test_submit_requires_online_mode(self):
        trace = TraceGenerator(TraceConfig(num_jobs=2), seed=1).generate()
        simulator = ClusterSimulator(
            make_longhorn_cluster(16), create_scheduler("ONES", seed=1), trace
        )
        with pytest.raises(RuntimeError, match="online"):
            simulator.submit(trace[0])

    def test_submit_rejects_duplicate_ids(self):
        simulator = self._online_sim()
        trace = TraceGenerator(TraceConfig(num_jobs=1), seed=1).generate()
        simulator.submit(trace[0])
        with pytest.raises(ValueError, match="already submitted"):
            simulator.submit(trace[0])

    def test_submit_rejects_nonmonotone_arrivals(self):
        simulator = self._online_sim()
        trace = TraceGenerator(TraceConfig(num_jobs=2), seed=1).generate()
        late, early = trace[1], trace[0]
        simulator.submit(late)
        if early.arrival_time < late.arrival_time:
            with pytest.raises(ValueError, match="monotone"):
                simulator.submit(early)

    def test_closed_simulator_refuses_submissions(self):
        simulator = self._online_sim()
        simulator.close()
        trace = TraceGenerator(TraceConfig(num_jobs=1), seed=1).generate()
        with pytest.raises(RuntimeError, match="closed"):
            simulator.submit(trace[0])

    def test_open_online_run_is_never_done(self):
        simulator = self._online_sim()
        assert not simulator._all_done()
        simulator.close()
        assert simulator._all_done()  # no jobs, stream closed

    def test_start_requires_online_mode(self):
        trace = TraceGenerator(TraceConfig(num_jobs=1), seed=1).generate()
        simulator = ClusterSimulator(
            make_longhorn_cluster(16), create_scheduler("ONES", seed=1), trace
        )
        with pytest.raises(RuntimeError, match="online"):
            simulator.start()
