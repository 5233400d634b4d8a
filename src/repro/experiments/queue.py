"""Durable, file-backed work queue for distributed experiment sweeps.

The Runner already treats an experiment cell as pure, content-hashed
data: the spec fully determines the artifact, artifacts are cached by
cell key, and a cell can be re-executed anywhere bit-identically.  This
module supplies the missing robustness layer — an explicit cell
lifecycle with crash-safe claims — so a grid can be fanned out over any
number of worker *processes* (same host, or several hosts over a shared
filesystem) with no server and no broker.

Lifecycle (the queuectl job-lifecycle model)::

    PENDING --claim--> PROCESSING --complete--> COMPLETED
       ^                   |   |
       |                   |   +--fail----> FAILED (awaiting backoff retry)
       +---lease expired---+                  |
       |                                      |
       +------------retry---------------------+
                         ...after max_retries+1 attempts: DEAD

Everything lives in one *queue directory*:

``log.jsonl``
    Append-only work log, one JSON record per line (``enqueued`` /
    ``claimed`` / ``completed`` / ``failed`` / ``expired`` / ``dead``).
    The log is the durable source of truth for attempt counts and retry
    backoff; every :class:`WorkQueue` instance tails it incrementally,
    so a fresh process resumes exactly where the queue stopped.
``queue.json``
    Queue-wide configuration (lease TTL + retry policy), written by the
    enqueuing sweep (until it runs, by whichever process opened the
    directory first) and followed by every worker.
``cells/cell-<key>.json``
    The enqueued :class:`~repro.experiments.spec.RunSpec` payloads,
    keyed by content hash — enqueueing is idempotent by construction.
``leases/<key>.json``
    One live lease per PROCESSING cell.  A lease is *claimed* with an
    exclusive ``O_CREAT | O_EXCL`` create (atomic on POSIX, including
    NFS), renewed by heartbeat rewrites, and carries a wall-clock
    deadline: a worker that dies simply stops renewing, and any other
    process may expire the stale lease back to PENDING.
``results/cell-<key>.json``
    Completed artifacts in the Runner's cell-cache format (written
    atomically via rename).  A partially-written artifact cannot parse
    or carries a mismatching spec, so it is detected and re-run — the
    same content check the Runner's resume path applies.
``dead/<key>.json``
    Cells that exhausted their retry budget, with the final error.
    Dead cells are reported (placeholder artifacts, non-zero CLI exit),
    never silently dropped.

Concurrency model: every mutation is either an atomic filesystem
operation (exclusive create, rename) or an append of one short line to
the log, so no locks are needed and any number of workers — plus the
waiting Runner — can operate on the same queue directory concurrently.
"""

from __future__ import annotations

import enum
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.experiments.artifacts import RunArtifact
from repro.experiments.backends import ExecutionPolicy
from repro.experiments.spec import RunSpec
from repro.obs.trace import active_tracer

PathLike = Union[str, Path]


class CellState(str, enum.Enum):
    """Lifecycle state of one cell in the queue."""

    PENDING = "pending"
    PROCESSING = "processing"
    COMPLETED = "completed"
    FAILED = "failed"  # failed at least once, awaiting its backoff retry
    DEAD = "dead"


class LeaseLostError(RuntimeError):
    """The worker's lease was expired and taken over by someone else."""


@dataclass(frozen=True)
class Lease:
    """One live claim on a cell: who holds it and until when."""

    cell: str
    worker: str
    deadline: float
    attempt: int

    def expired(self, now: float, margin: float = 0.0) -> bool:
        """Whether the lease is stale at ``now``, with ``margin`` slack.

        ``margin`` is the queue's clock-skew safety margin: deadlines are
        wall-clock timestamps compared across hosts (and across NTP
        steps), so expiry only triggers once the lease is *at least*
        ``margin`` seconds past its deadline.  A healthy worker whose
        clock disagrees with the observer's by less than the margin can
        never have its lease stolen mid-cell.
        """
        return now >= self.deadline + margin

    def to_dict(self) -> Dict[str, object]:
        return {
            "cell": self.cell,
            "worker": self.worker,
            "deadline": float(self.deadline),
            "attempt": int(self.attempt),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Lease":
        return cls(
            cell=str(payload["cell"]),
            worker=str(payload["worker"]),
            deadline=float(payload["deadline"]),
            attempt=int(payload["attempt"]),
        )


@dataclass
class QueueStatus:
    """Per-state cell counts plus the attempt bookkeeping of one queue."""

    pending: int = 0
    processing: int = 0
    completed: int = 0
    failed: int = 0
    dead: int = 0
    claims: int = 0
    expired_leases: int = 0

    @property
    def total(self) -> int:
        return self.pending + self.processing + self.completed + self.failed + self.dead

    @property
    def terminal(self) -> bool:
        """Whether every cell has reached COMPLETED or DEAD."""
        return self.total > 0 and self.completed + self.dead == self.total

    def as_dict(self) -> Dict[str, int]:
        return {
            "pending": self.pending,
            "processing": self.processing,
            "completed": self.completed,
            "failed": self.failed,
            "dead": self.dead,
            "claims": self.claims,
            "expired_leases": self.expired_leases,
        }


@dataclass
class _CellRecord:
    """In-memory bookkeeping of one cell, rebuilt from the log tail."""

    key: str
    attempts: int = 0  # failures + expiries charged so far
    not_before: float = 0.0  # backoff gate for the next claim
    completed: bool = False
    dead: bool = False
    error: Optional[str] = None
    claims: int = 0
    expiries: int = 0
    last_event_ts: float = 0.0  # wall-clock ts of the newest log record


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + rename)."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class WorkQueue:
    """Crash-safe claim/heartbeat/complete semantics over a queue directory.

    Instances are cheap, stateless views over the shared directory: all
    durable state lives in the log, the lease files and the result
    files, so any number of :class:`WorkQueue` objects (in any number of
    processes) can point at the same directory.

    ``queue.json`` holds the queue's lease TTL, retry policy and skew
    margin.  The enqueuing side (a sweep) passes ``policy``: such an
    instance writes its values there, replacing whatever an earlier
    opener stored, so the sweep's retry budget holds even when a worker
    opened the directory first.  An instance opened without ``policy``
    creates ``queue.json`` with its values only if none exists yet.
    Every instance takes the stored value of each setting it was not
    given, and takes it again whenever ``queue.json`` changes.

    Lease deadlines are wall-clock timestamps compared across hosts, so
    every expiry decision adds ``skew_margin`` seconds of slack (default
    :data:`DEFAULT_SKEW_MARGIN`): an NTP step or cross-host offset
    smaller than the margin can neither steal a healthy worker's lease
    (duplicate execution) nor matter to failover latency.
    """

    #: Default clock-skew safety margin (seconds) added to every expiry
    #: check.  Covers typical NTP slews/steps between hosts sharing the
    #: queue directory; raise it via ``skew_margin`` for fleets with
    #: looser clock discipline (it only delays failover, never safety).
    DEFAULT_SKEW_MARGIN = 1.0

    def __init__(
        self,
        path: PathLike,
        lease_ttl: Optional[float] = None,
        policy: Optional[ExecutionPolicy] = None,
        skew_margin: Optional[float] = None,
    ) -> None:
        self.path = Path(path)
        for sub in ("cells", "leases", "results", "dead", "expired"):
            (self.path / sub).mkdir(parents=True, exist_ok=True)
        self._config_path = self.path / "queue.json"
        self._explicit = (lease_ttl, policy, skew_margin)
        self._config_stamp: Optional[Tuple[int, int, int]] = None
        self._adopt_config()
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if self.skew_margin < 0:
            raise ValueError("skew_margin must be >= 0")
        if policy is not None or self._config_stamp is None:
            self._write_config(replace=policy is not None)
            self._adopt_config()
        self._log_offset = 0
        self._cells: Dict[str, _CellRecord] = {}
        self._order: List[str] = []  # enqueue order (== spec order)

    # -- paths --------------------------------------------------------------------------

    @property
    def log_path(self) -> Path:
        return self.path / "log.jsonl"

    def _cell_path(self, key: str) -> Path:
        return self.path / "cells" / f"cell-{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.path / "leases" / f"{key}.json"

    def result_path(self, key: str) -> Path:
        """Where the cell's artifact lands (Runner cell-cache format)."""
        return self.path / "results" / f"cell-{key}.json"

    def _dead_path(self, key: str) -> Path:
        return self.path / "dead" / f"{key}.json"

    # -- queue config -------------------------------------------------------------------

    def _adopt_config(self) -> None:
        """Take ``queue.json``'s value of every setting not given explicitly.

        Reads the file only when it changed since the last read (writers
        replace it, so its inode and mtime move); without a file the
        defaults stand in.
        """
        try:
            stat = self._config_path.stat()
            stamp: Optional[Tuple[int, int, int]] = (
                stat.st_ino, stat.st_mtime_ns, stat.st_size
            )
        except FileNotFoundError:
            stamp = None
        if stamp is not None and stamp == self._config_stamp:
            return
        self._config_stamp = stamp
        ttl, policy, margin = 30.0, ExecutionPolicy(), self.DEFAULT_SKEW_MARGIN
        if stamp is not None:
            payload = json.loads(self._config_path.read_text())
            ttl = float(payload["lease_ttl"])
            policy = ExecutionPolicy.from_dict(payload["policy"])
            # Queues created before the margin existed behave as written
            # (no slack), not as the new default would dictate.
            margin = float(payload.get("skew_margin", 0.0))
        explicit_ttl, explicit_policy, explicit_margin = self._explicit
        self.lease_ttl = float(explicit_ttl if explicit_ttl is not None else ttl)
        self.policy = explicit_policy if explicit_policy is not None else policy
        self.skew_margin = float(explicit_margin if explicit_margin is not None else margin)

    def _write_config(self, replace: bool) -> None:
        """Store this instance's settings in ``queue.json``.

        ``replace=False`` creates the file only if no other process has:
        the hard link of a complete temporary file is the atomic
        create-if-absent, so a sweep's settings are never overwritten by
        a worker that found no ``queue.json`` a moment earlier.
        """
        text = json.dumps(
            {
                "lease_ttl": self.lease_ttl,
                "policy": self.policy.to_dict(),
                "skew_margin": self.skew_margin,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
        if replace:
            _atomic_write(self._config_path, text)
            return
        tmp = self._config_path.with_name(f".queue.json.{uuid.uuid4().hex}.tmp")
        tmp.write_text(text)
        try:
            os.link(tmp, self._config_path)
        except FileExistsError:
            pass  # another process created it first; adopt theirs
        finally:
            tmp.unlink()

    # -- the work log -------------------------------------------------------------------

    def _append(self, event: str, key: str, **extra: object) -> None:
        record = {"event": event, "cell": key, "ts": time.time(), **extra}
        tracer = active_tracer()
        if tracer is not None:
            # Mirror every durable lease transition (enqueued / claimed /
            # completed / failed / expired / dead) into the trace.  These
            # carry wall-clock timestamps, so they are root-level records
            # outside the virtual-time content-comparison contract.
            tracer.event(
                event,
                "queue",
                record["ts"],
                parent=None,
                cell=key,
                **{
                    name: value
                    for name, value in extra.items()
                    if isinstance(value, (str, int, float, bool))
                },
            )
        line = json.dumps(record, sort_keys=True) + "\n"
        # One short O_APPEND write per record: concurrent appenders on a
        # POSIX filesystem interleave whole lines, never partial ones.
        with open(self.log_path, "a") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        # Pick our own record up through the normal tail path (along with
        # anything a concurrent writer appended), so it is applied once.
        self._refresh()

    def _refresh(self) -> None:
        """Tail the shared log: apply records appended since the last read.

        Also picks up a rewritten ``queue.json`` (see :meth:`_adopt_config`).
        """
        self._adopt_config()
        if not self.log_path.exists():
            return
        with open(self.log_path, "r") as handle:
            handle.seek(self._log_offset)
            chunk = handle.read()
            self._log_offset = handle.tell()
        for line in chunk.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail line of a crashed writer; skip
            self._apply(record)

    def _apply(self, record: Mapping[str, object]) -> None:
        key = str(record.get("cell", ""))
        if not key:
            return
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _CellRecord(key=key)
            self._order.append(key)
        try:
            cell.last_event_ts = max(cell.last_event_ts, float(record.get("ts", 0.0)))
        except (TypeError, ValueError):
            pass
        event = record.get("event")
        if event == "claimed":
            cell.claims += 1
        elif event == "completed":
            cell.completed = True
        elif event == "failed":
            cell.attempts = max(cell.attempts, int(record.get("attempt", cell.attempts + 1)))
            cell.not_before = max(cell.not_before, float(record.get("not_before", 0.0)))
            cell.error = str(record.get("error", ""))
        elif event == "expired":
            cell.expiries += 1
            cell.attempts = max(cell.attempts, int(record.get("attempt", cell.attempts + 1)))
        elif event == "dead":
            cell.dead = True
            cell.error = str(record.get("error", cell.error or ""))

    # -- enqueue ------------------------------------------------------------------------

    def enqueue(self, spec: RunSpec) -> Tuple[str, bool]:
        """Add one cell; idempotent by content key.

        Returns ``(cell_key, newly_enqueued)``.  Re-enqueueing a cell
        that is already in the queue (in any state) is a no-op, which is
        what makes a fresh ``Runner.run`` against an existing queue
        directory resume instead of duplicating work.
        """
        self._refresh()
        key = spec.cell_key()
        path = self._cell_path(key)
        if key in self._cells or path.exists():
            return key, False
        _atomic_write(path, json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n")
        self._append("enqueued", key, label=spec.label())
        return key, True

    def enqueue_all(self, specs: Iterable[RunSpec]) -> List[str]:
        """Enqueue a batch (idempotently); returns the cell keys in order."""
        return [self.enqueue(spec)[0] for spec in specs]

    def spec(self, key: str) -> RunSpec:
        """Load the enqueued spec of one cell."""
        return RunSpec.from_dict(json.loads(self._cell_path(key).read_text()))

    # -- claims / leases ----------------------------------------------------------------

    def _read_lease(self, key: str) -> Optional[Lease]:
        try:
            return Lease.from_dict(json.loads(self._lease_path(key).read_text()))
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return None

    def _retire_lease(self, lease: Lease, now: float) -> bool:
        """Move one expired lease aside; returns True if *we* retired it.

        The rename is the arbitration point: exactly one process wins it,
        appends the ``expired`` record, and charges the attempt — then
        everyone competes again on the exclusive create of a new lease.
        """
        tombstone = self.path / "expired" / f"{lease.cell}.{uuid.uuid4().hex}.json"
        try:
            os.replace(self._lease_path(lease.cell), tombstone)
        except OSError:
            return False  # someone else already retired it
        cell = self._cells.get(lease.cell)
        attempt = (cell.attempts if cell else 0) + 1
        self._append(
            "expired", lease.cell, worker=lease.worker, attempt=attempt, deadline=lease.deadline
        )
        if attempt > int(self.policy.max_retries):
            self._mark_dead(
                lease.cell,
                f"lease of worker {lease.worker!r} expired on attempt {attempt} "
                f"(retry budget {self.policy.max_retries} spent)",
            )
        return True

    def expire_leases(self, now: Optional[float] = None) -> int:
        """Return every stale lease to PENDING (or DEAD); returns the count.

        Safe to call from any process at any time — workers do it before
        claiming, and the waiting Runner does it while polling, so
        recovery does not depend on a surviving worker.
        """
        now = time.time() if now is None else now
        self._refresh()
        retired = 0
        for path in sorted((self.path / "leases").glob("*.json")):
            lease = self._read_lease(path.stem)
            if (
                lease is not None
                and lease.expired(now, self.skew_margin)
                and self._retire_lease(lease, now)
            ):
                retired += 1
        return retired

    def claim(self, worker: str, now: Optional[float] = None) -> Optional[Tuple[str, RunSpec]]:
        """Claim the next claimable cell for ``worker`` (or ``None``).

        Cells are offered in enqueue order; a cell inside its backoff
        window is skipped until ``not_before`` passes.  The claim itself
        is an exclusive lease-file create, so two workers scanning the
        same queue can never both win one cell.
        """
        now = time.time() if now is None else now
        self._refresh()
        for key in self._order:
            cell = self._cells[key]
            if cell.completed or cell.dead:
                continue
            if cell.not_before > now:
                continue
            lease_path = self._lease_path(key)
            existing = self._read_lease(key)
            if existing is not None:
                if not existing.expired(now, self.skew_margin):
                    continue
                self._retire_lease(existing, now)
                if self._cells[key].dead:
                    continue
            lease = Lease(cell=key, worker=worker, deadline=now + self.lease_ttl,
                          attempt=cell.attempts + 1)
            try:
                handle = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue  # lost the race for this cell; try the next one
            with os.fdopen(handle, "w") as fh:
                fh.write(json.dumps(lease.to_dict(), sort_keys=True) + "\n")
            self._append("claimed", key, worker=worker, attempt=lease.attempt)
            return key, self.spec(key)
        return None

    def heartbeat(self, key: str, worker: str, now: Optional[float] = None) -> float:
        """Renew ``worker``'s lease on ``key``; returns the new deadline.

        Raises :class:`LeaseLostError` if the lease expired and was taken
        over (the worker must abandon the cell — its result would still
        be correct, but the attempt is no longer accounted to it).
        """
        now = time.time() if now is None else now
        lease = self._read_lease(key)
        if lease is None or lease.worker != worker:
            raise LeaseLostError(f"worker {worker!r} no longer holds the lease on {key}")
        renewed = Lease(cell=key, worker=worker, deadline=now + self.lease_ttl,
                        attempt=lease.attempt)
        _atomic_write(self._lease_path(key), json.dumps(renewed.to_dict(), sort_keys=True) + "\n")
        tracer = active_tracer()
        if tracer is not None:
            # Heartbeats renew the lease file without a log record, so
            # they need their own trace event (emitted from the worker's
            # heartbeat thread: parent=None keeps them root-level).
            tracer.event(
                "heartbeat",
                "queue",
                now,
                parent=None,
                cell=key,
                worker=worker,
                deadline=renewed.deadline,
            )
        return renewed.deadline

    def _release_lease(self, key: str, worker: str) -> None:
        lease = self._read_lease(key)
        if lease is not None and lease.worker == worker:
            try:
                os.unlink(self._lease_path(key))
            except OSError:
                pass

    # -- completion / failure -----------------------------------------------------------

    def complete(self, key: str, worker: str, artifact: RunArtifact) -> None:
        """Publish a finished cell: artifact to ``results/``, COMPLETED in the log.

        The artifact write is atomic and its content is a pure function
        of the spec, so even a worker whose lease was lost mid-run can
        publish safely — the takeover worker would write the identical
        bytes.
        """
        _atomic_write(self.result_path(key), artifact.to_json() + "\n")
        self._append("completed", key, worker=worker)
        self._release_lease(key, worker)

    def fail(
        self,
        key: str,
        worker: str,
        error: str,
        now: Optional[float] = None,
    ) -> CellState:
        """Record a failed attempt; schedules a backoff retry or marks DEAD.

        The exponential backoff (``retry_backoff_s * 2**(attempt-1)``) is
        written into the log record, so every process — and a post-mortem
        reader — sees when the cell becomes claimable again.
        """
        now = time.time() if now is None else now
        self._refresh()
        cell = self._cells.get(key) or _CellRecord(key=key)
        attempt = cell.attempts + 1
        if attempt > int(self.policy.max_retries):
            self._append("failed", key, worker=worker, attempt=attempt, error=str(error),
                         not_before=now)
            self._mark_dead(key, str(error))
            self._release_lease(key, worker)
            return CellState.DEAD
        backoff = self.policy.backoff_delay(attempt - 1)
        self._append("failed", key, worker=worker, attempt=attempt, error=str(error),
                     backoff_s=backoff, not_before=now + backoff)
        self._release_lease(key, worker)
        return CellState.FAILED

    def _mark_dead(self, key: str, error: str) -> None:
        _atomic_write(
            self._dead_path(key),
            json.dumps(
                {"cell": key, "error": error,
                 "attempts": self._cells[key].attempts if key in self._cells else None},
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        self._append("dead", key, error=error)

    # -- results ------------------------------------------------------------------------

    def load_result(self, key: str) -> Optional[RunArtifact]:
        """The completed artifact of ``key`` — validated, else ``None``.

        Applies the same content check as the Runner's resume path: a
        truncated or hand-edited file (or a hash collision) fails to
        parse or carries a different spec and is treated as absent, so
        the cell re-runs instead of serving garbage.
        """
        path = self.result_path(key)
        if not path.exists():
            return None
        try:
            artifact = RunArtifact.from_json(path.read_text())
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
            return None
        if artifact.spec.cell_key() != key:
            return None
        return artifact

    def dead_info(self, key: str) -> Optional[Dict[str, object]]:
        """The error record of a DEAD cell (``None`` otherwise)."""
        path = self._dead_path(key)
        if not path.exists():
            return None
        try:
            return dict(json.loads(path.read_text()))
        except (OSError, ValueError, json.JSONDecodeError):
            return None

    # -- state views --------------------------------------------------------------------

    def state(self, key: str, now: Optional[float] = None) -> CellState:
        """Current lifecycle state of one cell."""
        now = time.time() if now is None else now
        self._refresh()
        cell = self._cells.get(key)
        if cell is None:
            raise KeyError(f"cell {key!r} is not in this queue")
        if cell.dead:
            return CellState.DEAD
        if cell.completed:
            return CellState.COMPLETED
        lease = self._read_lease(key)
        if lease is not None and not lease.expired(now, self.skew_margin):
            return CellState.PROCESSING
        if cell.attempts > 0:
            return CellState.FAILED
        return CellState.PENDING

    def states(self, now: Optional[float] = None) -> Dict[str, CellState]:
        """``cell key -> state`` for every cell, in enqueue order."""
        now = time.time() if now is None else now
        self._refresh()
        return {key: self.state(key, now) for key in list(self._order)}

    def attempts(self, key: str) -> int:
        """Failures + expiries charged to ``key`` so far."""
        self._refresh()
        cell = self._cells.get(key)
        return cell.attempts if cell else 0

    def status(self, now: Optional[float] = None) -> QueueStatus:
        """Aggregate per-state counts (the ``queue-status`` CLI view)."""
        status = QueueStatus()
        for key, state in self.states(now).items():
            setattr(status, state.value, getattr(status, state.value) + 1)
            cell = self._cells[key]
            status.claims += cell.claims
            status.expired_leases += cell.expiries
        return status

    def cell_rows(
        self, now: Optional[float] = None, since: Optional[float] = None
    ) -> List[Dict[str, object]]:
        """Per-cell report rows (label, state, attempts, holder) for the CLI.

        ``since`` filters over the event log: only cells whose newest log
        record is at most ``since`` seconds old (relative to ``now``) are
        reported — the ``queue-status --cells --since`` view of what a
        live sweep touched recently.
        """
        now = time.time() if now is None else now
        rows: List[Dict[str, object]] = []
        for key, state in self.states(now).items():
            cell = self._cells[key]
            if since is not None and cell.last_event_ts < now - since:
                continue
            lease = self._read_lease(key) if state is CellState.PROCESSING else None
            try:
                label = self.spec(key).label()
            except (OSError, ValueError, KeyError):
                label = "?"
            rows.append(
                {
                    "cell": key,
                    "label": label,
                    "state": state.value,
                    "attempts": cell.attempts,
                    "worker": lease.worker if lease else "",
                    "last_event_age_s": (
                        round(now - cell.last_event_ts, 3)
                        if cell.last_event_ts
                        else None
                    ),
                    "error": (cell.error or "")[:60],
                }
            )
        return rows

    def as_json(self, now: Optional[float] = None) -> Dict[str, object]:
        """Machine-readable queue snapshot (the ``queue-status --json`` view).

        Everything the human table shows plus the lease timing of every
        PROCESSING cell: ``lease_age_s`` (how long the current attempt
        has held it) and ``lease_remaining_s`` (until the lease expires
        and the cell becomes re-claimable).  All values are plain JSON
        types so dashboards and shell pipelines can consume the snapshot
        without parsing the table layout.
        """
        now = time.time() if now is None else now
        cells: List[Dict[str, object]] = []
        for key, state in self.states(now).items():
            cell = self._cells[key]
            lease = self._read_lease(key) if state is CellState.PROCESSING else None
            try:
                label = self.spec(key).label()
            except (OSError, ValueError, KeyError):
                label = "?"
            entry: Dict[str, object] = {
                "cell": key,
                "label": label,
                "state": state.value,
                "attempts": int(cell.attempts),
                "claims": int(cell.claims),
                "expired_leases": int(cell.expiries),
                "worker": lease.worker if lease else "",
                "error": cell.error or "",
            }
            if lease is not None:
                remaining = max(lease.deadline - now, 0.0)
                entry["lease_remaining_s"] = round(remaining, 3)
                entry["lease_age_s"] = round(max(self.lease_ttl - remaining, 0.0), 3)
            cells.append(entry)
        return {
            "queue_dir": str(self.path),
            "lease_ttl": float(self.lease_ttl),
            "skew_margin": float(self.skew_margin),
            "max_retries": int(self.policy.max_retries),
            "states": self.status(now).as_dict(),
            "cells": cells,
        }
