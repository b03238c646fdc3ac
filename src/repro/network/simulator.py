"""Event-driven network simulator core.

A minimal discrete-event engine: events are ``(time, seq, callback)``
triples in a heap; ``seq`` breaks ties deterministically so runs are
reproducible.  The P2P layer (:mod:`repro.network.node`) schedules
message deliveries through this engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)


class EventScheduler:
    """Deterministic discrete-event loop."""

    def __init__(self) -> None:
        self._queue: list[_Event] = []
        self._seq = 0
        self._now = 0.0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._queue, _Event(self._now + delay, self._seq, callback))

    def run_until(self, deadline: float) -> None:
        """Process events with time ≤ deadline."""
        while self._queue and self._queue[0].time <= deadline:
            event = heapq.heappop(self._queue)
            self._now = event.time
            self.events_processed += 1
            event.callback()
        self._now = max(self._now, deadline)


