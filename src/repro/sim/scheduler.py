"""Deterministic discrete-event scheduler.

The scheduler maintains a priority queue of ``(time, tiebreak, callback)``
entries.  Ties on ``time`` are broken by insertion order, which makes runs
bit-for-bit reproducible: two events scheduled for the same instant always
fire in the order they were scheduled.

Typical use::

    sched = Scheduler()
    sched.call_at(1.5, lambda: print("hello at t=1.5"))
    sched.call_in(0.3, deliver, envelope)       # relative delay
    sched.run()                                  # drain the queue

The scheduler is single-threaded and re-entrant: callbacks may schedule
further events, including events at the current time (which run after all
earlier-scheduled events at that time).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SchedulerStoppedError, SimulationError


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    Cancellation is *lazy*: the entry stays in the heap but is skipped when
    popped.  This keeps both operations O(log n).
    """

    __slots__ = ("time", "_callback", "_args", "_cancelled")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> None:
        self.time = time
        self._callback = callback
        self._args = args
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _fire(self) -> None:
        self._callback(*self._args)


class Scheduler:
    """A deterministic discrete-event loop with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (default ``0.0``).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._tiebreak = itertools.count()
        self._stopped = False
        self._events_processed = 0
        #: Whether a :meth:`run` / :meth:`run_until` drive is in progress.
        #: False while the scheduler is *idle*: whoever schedules now does
        #: so from outside the simulation, between two drives.  A plain
        #: attribute, read on every put (``ShardedCluster.shard_send``).
        self.running = False

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of queue entries not yet fired (includes cancelled)."""
        return len(self._queue)

    # -- scheduling -------------------------------------------------------

    def call_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Raises
        ------
        SimulationError
            If ``time`` is in the past (before the current clock).
        SchedulerStoppedError
            If :meth:`stop` has been called.
        """
        if self._stopped:
            raise SchedulerStoppedError(
                "cannot schedule events on a stopped scheduler"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        handle = EventHandle(time, callback, args)
        heapq.heappush(self._queue, (time, next(self._tiebreak), handle))
        return handle

    def call_in(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after a relative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback, *args)

    def call_now(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current time.

        The callback runs after every event already queued for this instant.
        """
        return self.call_at(self._now, callback, *args)

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        """
        while self._queue:
            time, _, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self._now = time
            self._events_processed += 1
            handle._fire()
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the event queue; return the number of events fired.

        Parameters
        ----------
        max_events:
            Safety bound; raise :class:`SimulationError` when exceeded so a
            protocol bug that generates events forever fails loudly instead
            of hanging.
        """
        fired = 0
        was_running, self.running = self.running, True
        try:
            while self.step():
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SimulationError(
                        f"run() exceeded max_events={max_events}; "
                        "likely a livelocked protocol"
                    )
        finally:
            self.running = was_running
        return fired

    def run_until(self, deadline: float, max_events: Optional[int] = None) -> int:
        """Fire events with time <= ``deadline``; advance clock to deadline.

        Returns the number of events fired.  Events scheduled after the
        deadline remain queued.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline {deadline} is before now={self._now}"
            )
        fired = 0
        was_running, self.running = self.running, True
        try:
            while self._queue:
                time, _, handle = self._queue[0]
                if time > deadline:
                    break
                heapq.heappop(self._queue)
                if handle.cancelled:
                    continue
                self._now = time
                self._events_processed += 1
                handle._fire()
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SimulationError(
                        f"run_until() exceeded max_events={max_events}"
                    )
        finally:
            self.running = was_running
        self._now = deadline
        return fired

    def stop(self) -> None:
        """Refuse further scheduling; pending events are discarded."""
        self._stopped = True
        self._queue.clear()
