"""Event queue (repro.engine.events)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import EventQueue
from repro.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(30, lambda t: fired.append(("c", t)))
        q.schedule(10, lambda t: fired.append(("a", t)))
        q.schedule(20, lambda t: fired.append(("b", t)))
        q.run()
        assert fired == [("a", 10), ("b", 20), ("c", 30)]

    def test_ties_break_by_schedule_order(self):
        q = EventQueue()
        fired = []
        q.schedule(5, lambda t: fired.append("first"))
        q.schedule(5, lambda t: fired.append("second"))
        q.run()
        assert fired == ["first", "second"]

    def test_now_advances_with_pops(self):
        q = EventQueue()
        q.schedule(42, lambda t: None)
        assert q.now == 0
        q.run()
        assert q.now == 42

    def test_schedule_after(self):
        q = EventQueue()
        fired = []
        q.schedule(10, lambda t: q.schedule_after(5, lambda t2: fired.append(t2)))
        q.run()
        assert fired == [15]

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.schedule(10, lambda t: None)
        q.run()
        with pytest.raises(SimulationError):
            q.schedule(5, lambda t: None)

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule_after(-1, lambda t: None)


class TestRun:
    def test_run_returns_dispatch_count(self):
        q = EventQueue()
        for i in range(7):
            q.schedule(i, lambda t: None)
        assert q.run() == 7

    def test_events_scheduled_during_run_are_dispatched(self):
        q = EventQueue()
        fired = []

        def chain(t):
            fired.append(t)
            if t < 5:
                q.schedule(t + 1, chain)

        q.schedule(0, chain)
        q.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_max_events_guard(self):
        q = EventQueue()

        def forever(t):
            q.schedule(t + 1, forever)

        q.schedule(0, forever)
        with pytest.raises(SimulationError):
            q.run(max_events=100)

    def test_budget_spent_exactly_on_an_emptied_queue(self):
        q = EventQueue()
        fired = []
        q.schedule(0, fired.append)
        assert q.run(max_events=1) == 1
        assert fired == [0] and len(q) == 0

    def test_empty_queue_returns_zero(self):
        assert EventQueue().run() == 0

    def test_pop_returns_none_when_empty(self):
        assert EventQueue().pop() is None

    def test_pop_returns_time_and_callback(self):
        q = EventQueue()
        fired = []
        q.schedule(7, fired.append)
        assert len(q) == 1
        time, callback = q.pop()
        assert (time, q.now, len(q)) == (7, 7, 0)
        callback(time)
        assert fired == [7]


class _Unorderable:
    """A callback that refuses comparison: equal-time events must be
    ordered without ever looking at their callbacks."""

    def __init__(self, label, fired):
        self.label = label
        self.fired = fired

    def __call__(self, time):
        self.fired.append((time, self.label))

    def __lt__(self, other):
        raise TypeError("callbacks are not orderable")

    __gt__ = __le__ = __ge__ = __lt__


class TestDispatchOrder:
    @settings(max_examples=80, deadline=None)
    @given(times=st.lists(st.integers(min_value=0, max_value=6), max_size=40))
    def test_dispatch_is_stable_sort_by_time(self, times):
        q = EventQueue()
        fired = []
        for label, time in enumerate(times):
            q.schedule(time, _Unorderable(label, fired))
        assert len(q) == len(times)
        assert q.run() == len(times)
        # sorted() is stable: ties keep schedule order.
        assert fired == sorted(
            ((time, label) for label, time in enumerate(times)),
            key=lambda pair: pair[0],
        )
