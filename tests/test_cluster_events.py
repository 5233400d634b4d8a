"""Tests for repro.cluster.events."""

import pytest

from repro.cluster.events import Event, EventKind, EventQueue


class TestEvent:
    def test_negative_time_rejected_on_push(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(Event(time=-1.0, kind=EventKind.TIMER))


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(Event(time=5.0, kind=EventKind.TIMER))
        queue.push(Event(time=1.0, kind=EventKind.TIMER))
        queue.push(Event(time=3.0, kind=EventKind.TIMER))
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_tie_break_by_kind(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, kind=EventKind.EPOCH_END, job_id="a"))
        queue.push(Event(time=1.0, kind=EventKind.JOB_COMPLETION, job_id="b"))
        queue.push(Event(time=1.0, kind=EventKind.JOB_ARRIVAL, job_id="c"))
        kinds = [queue.pop().kind for _ in range(3)]
        assert kinds == [
            EventKind.JOB_COMPLETION,
            EventKind.JOB_ARRIVAL,
            EventKind.EPOCH_END,
        ]

    def test_tie_break_by_insertion_order(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, kind=EventKind.TIMER, job_id="first"))
        queue.push(Event(time=1.0, kind=EventKind.TIMER, job_id="second"))
        assert queue.pop().job_id == "first"
        assert queue.pop().job_id == "second"

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(Event(time=0.0, kind=EventKind.TIMER))
        assert queue
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(Event(time=2.0, kind=EventKind.TIMER))
        assert queue.peek().time == 2.0
        assert len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().peek()
