"""Tests for the discrete-event scheduler."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerStoppedError, SimulationError
from repro.sim.scheduler import Scheduler


class TestScheduling:
    def test_starts_at_zero(self):
        assert Scheduler().now == 0.0

    def test_custom_start_time(self):
        assert Scheduler(start_time=5.0).now == 5.0

    def test_call_at_fires_at_time(self):
        sched = Scheduler()
        seen = []
        sched.call_at(2.5, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [2.5]

    def test_call_in_is_relative(self):
        sched = Scheduler()
        seen = []
        sched.call_at(1.0, lambda: sched.call_in(0.5, lambda: seen.append(sched.now)))
        sched.run()
        assert seen == [1.5]

    def test_call_now_runs_at_current_time(self):
        sched = Scheduler()
        seen = []
        sched.call_at(3.0, lambda: sched.call_now(lambda: seen.append(sched.now)))
        sched.run()
        assert seen == [3.0]

    def test_arguments_are_passed(self):
        sched = Scheduler()
        seen = []
        sched.call_at(1.0, seen.append, "payload")
        sched.run()
        assert seen == ["payload"]

    def test_rejects_past_times(self):
        sched = Scheduler()
        sched.call_at(1.0, lambda: None)
        sched.run()
        with pytest.raises(SimulationError):
            sched.call_at(0.5, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Scheduler().call_in(-0.1, lambda: None)


class TestOrdering:
    def test_events_fire_in_time_order(self):
        sched = Scheduler()
        order = []
        sched.call_at(3.0, order.append, "c")
        sched.call_at(1.0, order.append, "a")
        sched.call_at(2.0, order.append, "b")
        sched.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sched = Scheduler()
        order = []
        for tag in ("first", "second", "third"):
            sched.call_at(1.0, order.append, tag)
        sched.run()
        assert order == ["first", "second", "third"]

    def test_nested_same_time_events_run_after_existing(self):
        sched = Scheduler()
        order = []
        sched.call_at(1.0, lambda: (order.append("a"), sched.call_now(order.append, "c")))
        sched.call_at(1.0, order.append, "b")
        sched.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_monotonically(self):
        sched = Scheduler()
        times = []
        for t in (0.5, 2.0, 2.0, 7.25):
            sched.call_at(t, lambda: times.append(sched.now))
        sched.run()
        assert times == sorted(times)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sched = Scheduler()
        seen = []
        handle = sched.call_at(1.0, seen.append, "x")
        handle.cancel()
        sched.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sched = Scheduler()
        handle = sched.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_other_events_survive_cancellation(self):
        sched = Scheduler()
        seen = []
        handle = sched.call_at(1.0, seen.append, "cancelled")
        sched.call_at(1.0, seen.append, "kept")
        handle.cancel()
        sched.run()
        assert seen == ["kept"]


class TestExecution:
    def test_step_returns_false_on_empty_queue(self):
        assert Scheduler().step() is False

    def test_step_fires_one_event(self):
        sched = Scheduler()
        seen = []
        sched.call_at(1.0, seen.append, 1)
        sched.call_at(2.0, seen.append, 2)
        assert sched.step() is True
        assert seen == [1]

    def test_running_only_inside_a_drive(self):
        sched = Scheduler()
        seen = []
        sched.call_at(1.0, lambda: seen.append(sched.running))
        sched.call_at(3.0, lambda: seen.append(sched.running))
        assert not sched.running
        sched.run_until(2.0)
        assert not sched.running
        sched.run()
        assert seen == [True, True] and not sched.running

    def test_running_is_cleared_when_a_callback_raises(self):
        sched = Scheduler()
        sched.call_at(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sched.run()
        assert not sched.running

    def test_run_returns_event_count(self):
        sched = Scheduler()
        for t in range(5):
            sched.call_at(float(t), lambda: None)
        assert sched.run() == 5

    def test_run_counts_dynamically_scheduled_events(self):
        sched = Scheduler()

        def chain(depth: int) -> None:
            if depth:
                sched.call_in(1.0, chain, depth - 1)

        sched.call_at(0.0, chain, 3)
        assert sched.run() == 4

    def test_run_max_events_guards_livelock(self):
        sched = Scheduler()

        def forever() -> None:
            sched.call_in(1.0, forever)

        sched.call_at(0.0, forever)
        with pytest.raises(SimulationError):
            sched.run(max_events=100)

    def test_run_until_stops_at_deadline(self):
        sched = Scheduler()
        seen = []
        sched.call_at(1.0, seen.append, "early")
        sched.call_at(5.0, seen.append, "late")
        fired = sched.run_until(2.0)
        assert fired == 1
        assert seen == ["early"]
        assert sched.now == 2.0
        assert sched.pending == 1

    def test_run_until_then_run_finishes(self):
        sched = Scheduler()
        seen = []
        sched.call_at(5.0, seen.append, "late")
        sched.run_until(2.0)
        sched.run()
        assert seen == ["late"]

    def test_run_until_rejects_past_deadline(self):
        sched = Scheduler()
        sched.call_at(4.0, lambda: None)
        sched.run()
        with pytest.raises(SimulationError):
            sched.run_until(1.0)

    def test_events_processed_counter(self):
        sched = Scheduler()
        sched.call_at(1.0, lambda: None)
        sched.call_at(2.0, lambda: None)
        sched.run()
        assert sched.events_processed == 2

    def test_stop_discards_pending_and_blocks_scheduling(self):
        sched = Scheduler()
        seen = []
        sched.call_at(1.0, seen.append, "never")
        sched.stop()
        assert sched.run() == 0
        assert seen == []
        with pytest.raises(SchedulerStoppedError):
            sched.call_at(2.0, lambda: None)
