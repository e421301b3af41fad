"""The discrete-event engine."""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple, sim=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # A cancelled event is often kept by its owner (a finished TCP
        # connection keeps its timeout), and a bound callback points back at
        # that owner: dropping it leaves no cycle for the collector to find.
        self.callback = self.args = None
        if self._sim is not None:
            sim = self._sim
            sim._live -= 1
            sim._dead += 1
            self._sim = None
            if sim._dead > 64 and sim._dead * 2 > len(sim._queue):
                sim._compact()


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Events scheduled for the same instant fire in scheduling order. The
    engine owns the only RNG in the system; components derive child RNGs via
    :meth:`rng_for` so that adding a device never perturbs another device's
    random stream.
    """

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.seed = seed
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._rng = random.Random(seed)
        self._live = 0  # not-yet-fired, not-cancelled events (O(1) `pending`)
        self._dead = 0  # cancelled tuples still sitting in the heap
        self.compactions = 0

    def rng_for(self, name: str) -> random.Random:
        """A child RNG with a stream derived from (seed, name)."""
        return random.Random(f"{self.seed}/{name}")

    def schedule(self, delay: float, callback: Callable, *args) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = Event(self.now + delay, next(self._sequence), callback, args, self)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable, *args) -> Event:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def _compact(self) -> None:
        """Drop cancelled tuples and re-heapify.

        Cancellation is lazy (the heap tuple stays until popped), which is
        O(1) per cancel but lets retransmit timers that are almost always
        cancelled — DHCP, NDP, TCP — accumulate dead entries without bound.
        ``cancel`` triggers this rebuild once dead tuples outnumber live
        ones, keeping the heap O(live) while amortizing the rebuild to O(1)
        per cancellation.
        """
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._dead = 0
        self.compactions += 1

    def run_until(self, time: float) -> None:
        """Process events up to and including virtual time ``time``.

        A fired event drops its callback and arguments before the callback
        runs, as a cancelled one does: an owner that keeps it (a timed-out
        TCP connection keeps its timeout) is then no cycle.
        """
        while self._queue and self._queue[0][0] <= time:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            event._sim = None  # a later cancel() must not decrement again
            self.now = event.time
            callback, args = event.callback, event.args
            event.callback = event.args = None
            callback(*args)
        self.now = max(self.now, time)

    def run(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.run_until(self.now + duration)

    def close(self) -> None:
        """Cancel every queued event, dropping its callback: a queued event
        kept by its owner then refers back to nothing."""
        for _, _, event in self._queue:
            event.cancelled = True
            event.callback = event.args = event._sim = None
        self._queue = []
        self._live = self._dead = 0

    @property
    def pending(self) -> int:
        """The number of not-yet-cancelled queued events (O(1))."""
        return self._live
