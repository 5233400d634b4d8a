"""Deterministic structured trace recorder for the repro stack.

One recorder serves every layer — the simulation kernel, the ONES
search, the hierarchical reconciler, the service engine, and the queue
workers — so a single artifact explains *why* each scheduling decision
happened.  Records are typed spans and events:

* a **span** covers a region of (virtual or wall) time and may nest —
  e.g. the kernel's per-event dispatch span contains the scheduler's
  ``ones.evolve`` span, which contains per-generation events,
* an **event** is a point observation — a reconfig decision with its
  winning score, a reconciler assignment, a fault eviction, a queue
  lease transition.

Determinism contract.  Recording never consumes RNG state, never reads
the wall clock for simulator-originated records (callers pass virtual
time explicitly), and assigns sequence numbers in call order — so two
identical simulations produce byte-identical trace files, and a run
with tracing *on* is bit-identical in its simulation outputs to one
with tracing *off*.  Queue/worker records carry wall-clock timestamps
by necessity and are excluded from content comparison (their category
is prefixed ``queue.``/``worker.``).

The recorder is dormant by default: nothing is installed, and every
instrumentation site guards on :func:`active_tracer` returning ``None``
before building any attribute dict.  The dormant overhead is gated
below 3% on the 256x120 smoke tier by
``benchmarks/bench_perf_scoring.py`` ("observability" section).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

SCHEMA_VERSION = 1
#: Marker in the JSONL header line; bump :data:`SCHEMA_VERSION` on change.
SCHEMA_NAME = "repro.trace"

_RECORD_KINDS = ("span", "event")

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "TraceRecorder",
    "active_tracer",
    "current_tracer",
    "export_chrome_trace",
    "format_tree",
    "install_tracer",
    "load_jsonl",
    "summarize",
    "uninstall_tracer",
    "validate_record",
    "validate_trace_file",
]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars (and other ``.item()`` types) for json.dumps."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bool)):
        try:
            return item()
        except (TypeError, ValueError):
            return str(value)
    raise TypeError(f"not JSON serialisable: {value!r}")


class TraceRecorder:
    """Bounded ring buffer of span/event records.

    Thread-safe (queue workers emit from a heartbeat thread), but the
    span *stack* — which provides parent nesting — assumes the usual
    single-threaded simulation loop; cross-thread events should pass
    ``parent=None`` explicitly to stay root-level.
    """

    def __init__(self, capacity: int = 65536, enabled: bool = True) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        self._records: deque = deque(maxlen=self.capacity)
        self._stack: List[Dict[str, Any]] = []
        self._seq = 0
        self._emitted = 0
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------

    def event(
        self,
        name: str,
        cat: str,
        t: float,
        parent: Any = "auto",
        **attrs: Any,
    ) -> None:
        """Record a point event at time ``t`` (virtual or wall seconds)."""
        if not self.enabled:
            return
        with self._lock:
            if parent == "auto":
                parent = self._stack[-1]["seq"] if self._stack else None
            self._append(
                {
                    "seq": self._seq,
                    "kind": "event",
                    "name": name,
                    "cat": cat,
                    "t": float(t),
                    "parent": parent,
                    "attrs": attrs,
                }
            )

    def begin_span(self, name: str, cat: str, t: float, **attrs: Any) -> Dict[str, Any]:
        """Open a span at ``t``; close it with :meth:`end_span`.

        The record is appended immediately (sequence order = open
        order); ``dur`` is patched in at close, which keeps record
        ordering deterministic even for nested spans.
        """
        with self._lock:
            record = {
                "seq": self._seq,
                "kind": "span",
                "name": name,
                "cat": cat,
                "t": float(t),
                "dur": 0.0,
                "parent": self._stack[-1]["seq"] if self._stack else None,
                "attrs": attrs,
            }
            self._append(record)
            self._stack.append(record)
            return record

    def end_span(self, record: Dict[str, Any], t: Optional[float] = None) -> None:
        """Close ``record``; ``t`` defaults to the span's start time."""
        with self._lock:
            for index in range(len(self._stack) - 1, -1, -1):
                if self._stack[index] is record:
                    del self._stack[index:]
                    break
            if t is not None:
                record["dur"] = max(float(t) - record["t"], 0.0)

    @contextmanager
    def span(self, name: str, cat: str, t: float, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Span as a context manager.

        Yields the live record: the body may add keys to
        ``record["attrs"]`` or set ``record["end_t"]`` to close the
        span at a later virtual time than it opened.
        """
        record = self.begin_span(name, cat, t, **attrs)
        try:
            yield record
        finally:
            self.end_span(record, t=record.pop("end_t", None))

    def _append(self, record: Dict[str, Any]) -> None:
        self._seq += 1
        self._emitted += 1
        self._records.append(record)

    # -- access -------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Snapshot of buffered records, in sequence order."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def dropped(self) -> int:
        """Records evicted by the ring buffer."""
        return self._emitted - len(self._records)

    # -- export -------------------------------------------------------

    def header(self) -> Dict[str, Any]:
        return {
            "kind": "meta",
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "capacity": self.capacity,
            "emitted": self._emitted,
            "dropped": self.dropped,
        }

    def export_jsonl(self, path: str) -> int:
        """Write header + records as JSON Lines; returns records written."""
        records = self.records()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True, default=_jsonable))
            handle.write("\n")
            for record in records:
                handle.write(json.dumps(record, sort_keys=True, default=_jsonable))
                handle.write("\n")
        return len(records)

    def export_chrome(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON (loadable in Perfetto)."""
        records = self.records()
        export_chrome_trace(records, path)
        return len(records)


# -- global installation ----------------------------------------------

_TRACER: Optional[TraceRecorder] = None


def install_tracer(tracer: TraceRecorder) -> TraceRecorder:
    """Install ``tracer`` as the process-wide recorder and return it."""
    global _TRACER
    _TRACER = tracer
    return tracer


def uninstall_tracer() -> Optional[TraceRecorder]:
    """Remove and return the installed recorder (if any)."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    return tracer


def current_tracer() -> Optional[TraceRecorder]:
    """The installed recorder, enabled or not (``None`` when dormant)."""
    return _TRACER


def active_tracer() -> Optional[TraceRecorder]:
    """The installed recorder iff it is enabled — the hot-path guard.

    Instrumentation sites call this once, check for ``None``, and only
    then build attribute dicts, so the dormant cost is one global read
    and one branch.
    """
    tracer = _TRACER
    if tracer is not None and tracer.enabled:
        return tracer
    return None


# -- schema validation ------------------------------------------------


def validate_record(record: Any) -> List[str]:
    """Schema errors for one record dict (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    kind = record.get("kind")
    if kind == "meta":
        if record.get("schema") != SCHEMA_NAME:
            errors.append(f"meta.schema is {record.get('schema')!r}")
        if not isinstance(record.get("version"), int):
            errors.append("meta.version must be an integer")
        return errors
    if kind not in _RECORD_KINDS:
        errors.append(f"kind is {kind!r}, expected one of {_RECORD_KINDS}")
    if not isinstance(record.get("seq"), int) or isinstance(record.get("seq"), bool):
        errors.append("seq must be an integer")
    for key in ("name", "cat"):
        value = record.get(key)
        if not isinstance(value, str) or not value:
            errors.append(f"{key} must be a non-empty string")
    if not isinstance(record.get("t"), (int, float)) or isinstance(record.get("t"), bool):
        errors.append("t must be a number")
    parent = record.get("parent")
    if parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
        errors.append("parent must be an integer or null")
    if kind == "span":
        dur = record.get("dur")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
            errors.append("span dur must be a non-negative number")
    if not isinstance(record.get("attrs"), dict):
        errors.append("attrs must be an object")
    return errors


def validate_trace_file(path: str) -> List[str]:
    """All schema errors in a JSONL trace file, prefixed by line number."""
    errors: List[str] = []
    last_seq = -1
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc.msg})")
                continue
            if lineno == 1 and record.get("kind") != "meta":
                errors.append("line 1: missing meta header record")
            for message in validate_record(record):
                errors.append(f"line {lineno}: {message}")
            seq = record.get("seq")
            if isinstance(seq, int):
                if seq <= last_seq:
                    errors.append(f"line {lineno}: seq {seq} not increasing")
                last_seq = seq
    return errors


# -- loading & inspection ---------------------------------------------


def load_jsonl(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load a trace file into ``(meta, records)``."""
    meta: Dict[str, Any] = {}
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "meta":
                meta = record
            else:
                records.append(record)
    return meta, records


def filter_records(
    records: Iterable[Dict[str, Any]],
    cat: Optional[str] = None,
    name: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Substring filter on category and/or name."""
    out = []
    for record in records:
        if cat is not None and cat not in record.get("cat", ""):
            continue
        if name is not None and name not in record.get("name", ""):
            continue
        out.append(record)
    return out


def summarize(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate counts and the time range of a record list."""
    by_cat: Dict[str, int] = {}
    by_name: Dict[str, int] = {}
    spans = events = 0
    t_min = t_max = None
    for record in records:
        by_cat[record["cat"]] = by_cat.get(record["cat"], 0) + 1
        by_name[record["name"]] = by_name.get(record["name"], 0) + 1
        if record["kind"] == "span":
            spans += 1
        else:
            events += 1
        t = record["t"]
        t_min = t if t_min is None else min(t_min, t)
        end = t + record.get("dur", 0.0)
        t_max = end if t_max is None else max(t_max, end)
    return {
        "records": len(records),
        "spans": spans,
        "events": events,
        "t_min": t_min,
        "t_max": t_max,
        "by_cat": dict(sorted(by_cat.items())),
        "by_name": dict(sorted(by_name.items())),
    }


def format_tree(
    records: Sequence[Dict[str, Any]],
    max_records: int = 200,
) -> List[str]:
    """Render parent/child nesting as indented lines.

    Children attach via ``parent`` seq links; records whose parent was
    evicted from the ring buffer (or filtered out) print at root level.
    """
    by_seq = {record["seq"]: record for record in records}
    depths: Dict[int, int] = {}

    def depth(record: Dict[str, Any]) -> int:
        seq = record["seq"]
        if seq in depths:
            return depths[seq]
        parent = record.get("parent")
        value = 0
        hops = 0
        while parent is not None and parent in by_seq and hops < 64:
            value += 1
            parent = by_seq[parent].get("parent")
            hops += 1
        depths[seq] = value
        return value

    lines = []
    for record in records[:max_records]:
        indent = "  " * depth(record)
        marker = "▸" if record["kind"] == "span" else "·"
        dur = record.get("dur")
        dur_text = f" dur={dur:.6g}s" if record["kind"] == "span" and dur else ""
        attrs = record.get("attrs") or {}
        attr_text = ""
        if attrs:
            parts = [f"{key}={attrs[key]}" for key in sorted(attrs)[:4]]
            attr_text = " [" + " ".join(parts) + "]"
        lines.append(
            f"{indent}{marker} {record['cat']}/{record['name']}"
            f" @ {record['t']:.6g}s{dur_text}{attr_text}"
        )
    if len(records) > max_records:
        lines.append(f"... ({len(records) - max_records} more records)")
    return lines


# -- Chrome trace_event export ----------------------------------------


def export_chrome_trace(records: Sequence[Dict[str, Any]], path: str) -> None:
    """Write records as Chrome ``trace_event`` JSON for Perfetto.

    Virtual seconds map to microseconds; each category becomes one
    track (``tid``); spans become complete ("X") events with a 1 µs
    duration floor so zero-duration virtual spans stay visible.
    """
    tids = {cat: index + 1 for index, cat in enumerate(sorted({r["cat"] for r in records}))}
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": cat},
        }
        for cat, tid in tids.items()
    ]
    for record in records:
        base = {
            "name": record["name"],
            "cat": record["cat"],
            "pid": 1,
            "tid": tids[record["cat"]],
            "ts": record["t"] * 1e6,
            "args": {"seq": record["seq"], **(record.get("attrs") or {})},
        }
        if record["kind"] == "span":
            base["ph"] = "X"
            base["dur"] = max(record.get("dur", 0.0) * 1e6, 1.0)
        else:
            base["ph"] = "i"
            base["s"] = "t"
        trace_events.append(base)
    payload = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=_jsonable)
