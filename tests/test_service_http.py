"""JSONL transport: server ops, client round-trips, protocol errors."""

import json
import socket
import threading

import pytest

from repro.service.http import ServiceClient, run_server
from repro.service.schemas import JobSubmission, ServiceConfig, TenantQuota
from repro.service.load import generate_submissions
from repro.workload.arrivals import ArrivalConfig


@pytest.fixture()
def live_service():
    """A real server on an ephemeral port, torn down via the shutdown op."""
    config = ServiceConfig(
        num_gpus=16,
        scheduler="ONES",
        seed=3,
        mode="virtual",
        tenants=(TenantQuota(tenant="t1"), TenantQuota(tenant="t2", max_gpus=4)),
    )
    ready = threading.Event()
    port_holder = {}

    def announce(message, flush=True):
        address = message.split(" on ")[1].split()[0]
        port_holder["port"] = int(address.rsplit(":", 1)[1])
        ready.set()

    thread = threading.Thread(
        target=run_server,
        kwargs=dict(config=config, port=0, announce=announce),
        daemon=True,
    )
    thread.start()
    assert ready.wait(15), "server did not come up"
    yield port_holder["port"]
    try:
        with ServiceClient(port=port_holder["port"], timeout=5.0) as client:
            client.shutdown()
    except (ConnectionError, OSError, RuntimeError):
        pass  # already stopped by the test body
    thread.join(timeout=10)
    assert not thread.is_alive()


def submit(client, submission):
    """One submission through the single-job ``submit`` op."""
    return client.request("submit", submission=submission.to_dict())["decision"]


class TestServerOps:
    def test_submit_round_trip(self, live_service):
        with ServiceClient(port=live_service) as client:
            decision = submit(client, JobSubmission(tenant="t1", replicas=2))
        assert decision["status"] == "placed"
        assert len(decision["gpu_ids"]) >= 1

    def test_submit_batch_and_stream(self, live_service):
        submissions = [
            JobSubmission(tenant="t2", replicas=1, arrival_time=30.0 * i)
            for i in range(3)
        ]
        with ServiceClient(port=live_service) as client:
            decisions = client.submit_batch(submissions)
            stream = client.stream("t2")
        assert len(decisions) == 3
        assert len(stream["records"]) == 3
        assert stream["cursor"] == 3

    def test_status_and_metrics(self, live_service):
        with ServiceClient(port=live_service) as client:
            submit(client, JobSubmission(tenant="t1"))
            status = client.status()
            metrics = client.metrics()
        assert status["submissions"] == 1
        assert metrics["decision_latency"]["count"] == 1.0

    def test_rejection_comes_back_as_decision(self, live_service):
        with ServiceClient(port=live_service) as client:
            decision = submit(client, JobSubmission(tenant="nobody"))
        assert decision["status"] == "rejected"
        assert "unknown tenant" in decision["reason"]

    def test_advance_moves_virtual_clock(self, live_service):
        with ServiceClient(port=live_service) as client:
            submit(client, JobSubmission(tenant="t1", arrival_time=0.0))
            response = client.request("advance", to_time=600.0)
        assert response["virtual_time"] <= 600.0

    def test_drain_returns_summary(self, live_service):
        with ServiceClient(port=live_service) as client:
            submit(client, JobSubmission(tenant="t1"))
            summary = client.drain()
        assert summary["completed_jobs"] == 1

    def test_generated_load_flows_through(self, live_service):
        submissions = generate_submissions(
            ["t1", "t2"], 5, arrivals=ArrivalConfig(rate=1 / 30.0, seed=9)
        )
        with ServiceClient(port=live_service) as client:
            decisions = client.submit_batch(submissions)
        assert len(decisions) == 10
        # t2 is GPU-capped at 4, so some of its submissions may bounce,
        # but every decision must be structured.
        assert all(d["status"] in ("placed", "queued", "rejected") for d in decisions)


class TestProtocolErrors:
    def _raw(self, port, line: bytes) -> dict:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            handle = sock.makefile("rwb")
            handle.write(line + b"\n")
            handle.flush()
            return json.loads(handle.readline())

    def test_malformed_json_is_reported(self, live_service):
        response = self._raw(live_service, b"{not json")
        assert response["ok"] is False
        assert "malformed" in response["error"]

    def test_unknown_op_is_reported(self, live_service):
        response = self._raw(live_service, b'{"op": "teleport"}')
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_missing_op_is_reported(self, live_service):
        response = self._raw(live_service, b'{"hello": 1}')
        assert response["ok"] is False

    def test_client_raises_on_protocol_error(self, live_service):
        with ServiceClient(port=live_service) as client:
            with pytest.raises(RuntimeError, match="unknown op"):
                client.request("teleport")

    def test_shutdown_op_stops_the_server(self, live_service):
        with ServiceClient(port=live_service) as client:
            client.shutdown()
        with pytest.raises((ConnectionError, OSError)):
            probe = ServiceClient(port=live_service, timeout=2.0)
            probe.request("ping")
            probe.close()
