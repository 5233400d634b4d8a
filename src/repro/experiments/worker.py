"""Queue worker: claim cells, heartbeat the lease, publish artifacts.

Run any number of these against one queue directory — on the same host
or on several hosts sharing a filesystem::

    python -m repro.experiments.worker results/queue --exit-when-done

(also exposed as ``repro-ones worker``).  Each worker loops: expire
stale leases left by dead peers, claim the next PENDING cell under a TTL
lease, execute it through the same pure-spec path every other backend
uses (so artifacts are bit-identical to serial execution), renew the
lease from a heartbeat thread while the cell runs, then publish the
artifact (COMPLETED) or record the failure (FAILED → backoff retry →
DEAD).  A worker needs no coordination beyond the queue directory: kill
it at any point — ``kill -9`` included — and the cell it was holding
returns to PENDING once the lease TTL passes.

``--hold-s`` inserts a sleep between claiming and executing.  It exists
for chaos drills (CI kills a worker *mid-cell* deterministically by
holding it open) and doubles as a stand-in for slow cells when sizing
lease TTLs.
"""

from __future__ import annotations

import argparse
import threading
import time
import uuid
from typing import Optional, Sequence

from repro.experiments.backends import execute_run, execute_run_in_subprocess
from repro.experiments.queue import LeaseLostError, WorkQueue
from repro.obs.trace import TraceRecorder, active_tracer, install_tracer, uninstall_tracer


class _Heartbeat(threading.Thread):
    """Renews one lease on a fixed cadence until stopped (or lost)."""

    def __init__(self, queue: WorkQueue, cell: str, worker: str, interval: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{cell[:8]}")
        self._queue = queue
        self._cell = cell
        self._worker = worker
        self._interval = interval
        # NB: not named _stop — threading.Thread has an internal _stop().
        self._halt = threading.Event()
        self.lost = False

    def run(self) -> None:  # pragma: no cover - timing-dependent thread body
        # Pace renewals off the monotonic clock: an NTP step or slew of
        # the wall clock can neither stall the cadence (risking a lease
        # expiry under a healthy worker) nor burst it.  Only the deadline
        # *written into the lease* is wall-clock — that is the value
        # other hosts compare against, with the queue's skew margin.
        next_beat = time.monotonic() + self._interval
        while True:
            delay = next_beat - time.monotonic()
            if self._halt.wait(max(delay, 0.0)):
                return
            # If a renewal overslept (GC pause, slow filesystem), beat
            # again immediately instead of compounding the drift.
            next_beat = max(next_beat + self._interval, time.monotonic())
            try:
                self._queue.heartbeat(self._cell, self._worker)
            except LeaseLostError:
                self.lost = True
                return
            except OSError:
                # Transient filesystem hiccup: keep the cadence and let
                # the next beat retry — the TTL gives us headroom.
                continue

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def run_worker(
    queue_dir: str,
    worker_id: Optional[str] = None,
    lease_ttl: Optional[float] = None,
    poll_interval: float = 0.5,
    exit_when_done: bool = False,
    max_cells: Optional[int] = None,
    hold_s: float = 0.0,
    verbose: bool = True,
    skew_margin: Optional[float] = None,
    trace_out: Optional[str] = None,
) -> int:
    """The worker loop; returns the number of cells this worker settled.

    ``exit_when_done`` returns once every cell in the queue is terminal
    (COMPLETED or DEAD) — including cells other workers are still
    holding, which this worker waits out rather than abandons.  Without
    it the worker polls forever, picking up cells as they are enqueued.

    ``trace_out`` installs a trace recorder for this worker's lifetime
    and exports it (JSONL) on exit: every queue lease transition —
    claim, heartbeat, complete, fail, expire, dead — plus the worker's
    own execute spans land in one file.
    """
    installed_here = False
    if trace_out is not None and active_tracer() is None:
        install_tracer(TraceRecorder())
        installed_here = True
    queue = WorkQueue(queue_dir, lease_ttl=lease_ttl, skew_margin=skew_margin)
    worker = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
    settled = 0

    def say(message: str) -> None:
        if verbose:
            print(f"[{worker}] {message}", flush=True)

    say(f"attached to {queue.path} (lease TTL {queue.lease_ttl:.1f}s, "
        f"policy retries={queue.policy.max_retries} "
        f"backoff={queue.policy.retry_backoff_s:.1f}s)")
    try:
        while True:
            queue.expire_leases()
            claim = queue.claim(worker)
            if claim is None:
                status = queue.status()
                if exit_when_done and status.terminal:
                    say(f"queue drained: {status.completed} completed, "
                        f"{status.dead} dead")
                    return settled
                if max_cells is not None and settled >= max_cells:
                    return settled
                time.sleep(poll_interval)
                continue
            key, spec = claim
            say(f"claimed {key} ({spec.label()}, attempt {queue.attempts(key) + 1})")
            if hold_s > 0:
                time.sleep(hold_s)
            # Paced off the TTL in force now: a sweep that enqueues after
            # this worker attached may have replaced the queue's TTL.
            heartbeat = _Heartbeat(queue, key, worker, max(queue.lease_ttl / 3.0, 0.05))
            heartbeat.start()
            tracer = active_tracer()
            span = None
            if tracer is not None:
                span = tracer.begin_span(
                    "execute", "worker", time.time(),
                    cell=key, label=spec.label(), worker=worker,
                )
            try:
                if queue.policy.timeout_s is not None:
                    artifact = execute_run_in_subprocess(spec, queue.policy.timeout_s)
                else:
                    artifact = execute_run(spec)
            except Exception as exc:  # noqa: BLE001 - recorded in the durable log
                heartbeat.stop()
                state = queue.fail(key, worker, f"{type(exc).__name__}: {exc}")
                say(f"cell {key} failed ({exc}); now {state.value}")
                if span is not None:
                    span["attrs"]["outcome"] = state.value
            else:
                heartbeat.stop()
                queue.complete(key, worker, artifact)
                say(f"completed {key}")
                if span is not None:
                    span["attrs"]["outcome"] = "completed"
            if span is not None:
                tracer.end_span(span, t=time.time())
            settled += 1
            if max_cells is not None and settled >= max_cells:
                return settled
    finally:
        if trace_out is not None:
            tracer = active_tracer()
            if tracer is not None:
                count = tracer.export_jsonl(trace_out)
                say(f"wrote {count} trace records to {trace_out}")
            if installed_here:
                uninstall_tracer()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.worker",
        description="Claim and execute experiment cells from a durable queue directory.",
    )
    parser.add_argument("queue_dir", help="the queue directory (created by the queue backend)")
    parser.add_argument("--worker-id", default=None,
                        help="stable worker name for the log (default: random)")
    parser.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                        help="override the queue's lease TTL for this worker")
    parser.add_argument("--skew-margin", type=float, default=None, metavar="SECONDS",
                        help="override the queue's clock-skew safety margin on "
                             "lease-expiry checks")
    parser.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="idle poll interval when no cell is claimable")
    parser.add_argument("--exit-when-done", action="store_true",
                        help="exit once every cell is COMPLETED or DEAD "
                             "(default: poll forever)")
    parser.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="exit after settling N cells (ephemeral-worker mode)")
    parser.add_argument("--hold-s", type=float, default=0.0, metavar="SECONDS",
                        help="chaos hook: sleep this long between claiming and "
                             "executing (gives kill-mid-cell drills a window)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="record queue/worker trace events and write them "
                             "as JSONL on exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    run_worker(
        args.queue_dir,
        worker_id=args.worker_id,
        lease_ttl=args.ttl,
        poll_interval=args.poll,
        exit_when_done=args.exit_when_done,
        max_cells=args.max_cells,
        hold_s=args.hold_s,
        verbose=not args.quiet,
        skew_margin=args.skew_margin,
        trace_out=args.trace_out,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
