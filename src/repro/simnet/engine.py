"""Event loop and simulated clock.

The simulator is a classic binary-heap discrete-event scheduler.  All time
values are floats in *seconds*.  Components never sleep or poll; they
schedule callbacks.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotone sequence number breaks ties), and all randomness is
drawn from named streams owned by the simulator (see
:mod:`repro.simnet.randomness`), so a run is a pure function of its seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.simnet.randomness import RandomStreams


class EventHandle(list):
    """Cancellable handle for a scheduled event, and its own heap entry.

    A handle *is* the list ``[when, seq, callback, args]`` that sits in
    the heap, so scheduling allocates one object and heap sift
    comparisons run as C-level list comparisons.  ``seq`` is unique, so
    a comparison never reaches the callback.  Cancelling clears the
    callback slot; the run loop discards such entries when they surface.
    ``_sim`` is the owning simulator while the event is pending and
    ``None`` once it fired, so cancelling a fired event changes no count.
    """

    __slots__ = ("_sim",)

    @property
    def when(self) -> float:
        """Absolute simulated time the event fires at."""
        return self[0]

    @property
    def seq(self) -> int:
        """Scheduling sequence number (breaks same-time ties)."""
        return self[1]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self[2] is None:
            return
        self[2] = None
        self[3] = ()
        sim = self._sim
        if sim is not None:
            sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(when={self[0]:.6f}, seq={self[1]}, {state})"


class Simulator:
    """Discrete-event simulator with a seeded random-stream registry.

    Parameters
    ----------
    seed:
        Master seed.  Every named random stream derives from it, so two
        simulators built with the same seed produce identical runs.
    """

    def __init__(self, seed: int = 0):
        #: Heap of :class:`EventHandle` entries.
        self._queue: list = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._processed = 0
        self._live = 0
        self.streams = RandomStreams(seed)
        #: Observation hook: ``probe(when, callback)`` fires before each
        #: executed event.  None (the default) costs one ``is not None``
        #: test per event; monitors must only observe, never schedule.
        self.probe: Optional[Callable[[float, Callable[..., Any]], None]] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def rng(self, name: str):
        """Return the named :class:`random.Random` stream."""
        return self.streams.get(name)

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now ({self._now})")
        seq = self._seq
        handle = EventHandle((when, seq, callback, args))
        handle._sim = self
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._queue, handle)
        return handle

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue empties, ``until`` passes, or
        ``max_events`` have executed.

        Returns the simulated time when the run stopped.  When ``until``
        is given the clock is advanced to it even if the queue drained
        earlier, so repeated ``run(until=...)`` calls behave like a
        monotone clock.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        # The dispatch loop is the hottest code in the repository; local
        # bindings avoid repeated attribute lookups per event.
        queue = self._queue
        heappop = heapq.heappop
        try:
            executed = 0
            while queue:
                head = queue[0]
                when, _seq, callback, args = head
                if callback is None:
                    heappop(queue)
                    continue
                if until is not None and when > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                head._sim = None
                self._live -= 1
                self._now = when
                if self.probe is not None:
                    self.probe(when, callback)
                callback(*args)
                self._processed += 1
                executed += 1
            # Advance the idle clock to ``until`` only when no pending
            # event precedes it: a ``max_events`` break can leave earlier
            # events queued, and jumping past them would run them with a
            # backwards-moving clock on the next call.
            if until is not None and self._now < until:
                while queue and queue[0][2] is None:
                    heappop(queue)
                if not queue or queue[0][0] >= until:
                    self._now = until
            return self._now
        finally:
            self._running = False

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue.

        O(1): a live-event counter is maintained on schedule, cancel and
        pop rather than scanning the heap (which still physically holds
        cancelled entries until they surface).
        """
        return self._live
