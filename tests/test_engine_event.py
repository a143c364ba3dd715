"""Unit tests for the event queue.

Bucket-level cases (demotion, the model comparison) live in
``test_engine_fastpath.py``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.engine.event import EventQueue


def drain(queue):
    out = []
    while True:
        event = queue.pop()
        if event is None:
            break
        out.append(event)
    return out


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(30, lambda: None)
        queue.push(10, lambda: None)
        queue.push(20, lambda: None)
        assert [e.time for e in drain(queue)] == [10, 20, 30]

    def test_same_time_pops_in_push_order(self):
        queue = EventQueue()
        order = []
        for i in range(5):
            queue.push(7, order.append, (i,))
        for event in drain(queue):
            event.callback(*event.args)
        assert order == [0, 1, 2, 3, 4]

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
    def test_pop_order_is_sorted_by_time(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, lambda: None)
        popped = [e.time for e in drain(queue)]
        assert popped == sorted(times)

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=40))
    def test_equal_times_preserve_insertion_order(self, times):
        queue = EventQueue()
        for i, t in enumerate(times):
            queue.push(t, lambda: None, (i,))
        popped = drain(queue)
        # Stable: among equal times, seq (== insertion index) ascends.
        for a, b in zip(popped, popped[1:]):
            if a.time == b.time:
                assert a.seq < b.seq


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        keep = queue.push(1, lambda: None)
        gone = queue.push(2, lambda: None)
        queue.cancel(gone)
        events = drain(queue)
        assert events == [keep]

    def test_cancel_updates_length(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        assert len(queue) == 1
        queue.cancel(event)
        assert len(queue) == 0
        assert not queue

    def test_double_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1, lambda: None)
        queue.push(5, lambda: None)
        queue.cancel(first)
        assert queue.peek_time() == 5

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None


class TestCandidatesAndExtract:
    def test_candidates_are_the_tied_head_set(self):
        queue = EventQueue()
        a = queue.push(3, lambda: None)
        b = queue.push(3, lambda: None)
        queue.push(4, lambda: None)  # a later cycle: not tied
        queue.push(9, lambda: None)
        ties = queue.candidates()
        assert ties == [a, b]

    def test_candidates_skip_cancelled(self):
        queue = EventQueue()
        a = queue.push(2, lambda: None)
        b = queue.push(2, lambda: None)
        queue.cancel(a)
        assert queue.candidates() == [b]

    def test_candidates_empty_queue(self):
        assert EventQueue().candidates() == []

    def test_extract_removes_chosen_event(self):
        queue = EventQueue()
        a = queue.push(1, lambda: None)
        b = queue.push(1, lambda: None)
        chosen = queue.extract(b)
        assert chosen is b
        assert len(queue) == 1
        assert queue.pop() is a

    def test_extract_dead_event_rejected(self):
        queue = EventQueue()
        event = queue.push(1, lambda: None)
        queue.cancel(event)
        with pytest.raises(ValueError):
            queue.extract(event)


class TestSignatureAndSummary:
    def test_signature_is_relative_to_now(self):
        def shape(base):
            queue = EventQueue()
            queue.push(base + 2, sorted)
            queue.push(base + 5, sorted, args=(1,))
            return queue.signature(now=base)

        assert shape(0) == shape(1000)

    def test_signature_ignores_cancelled(self):
        queue = EventQueue()
        queue.push(1, sorted)
        dead = queue.push(2, sorted)
        queue.cancel(dead)
        other = EventQueue()
        other.push(1, sorted)
        assert queue.signature(0) == other.signature(0)

    def test_summarize_names_callbacks(self):
        queue = EventQueue()
        queue.push(4, sorted, args=("abcdef",))
        text = queue.summarize()
        assert "1 pending event(s)" in text
        assert "t=4" in text
        assert "sorted" in text

    def test_summarize_clips_long_listings(self):
        queue = EventQueue()
        for t in range(12):
            queue.push(t, sorted)
        text = queue.summarize(limit=8)
        assert "... and 4 more" in text
