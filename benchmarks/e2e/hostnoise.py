"""How loaded the host is while an operation is timed, and how to divide
that out.

This container shares its host, and the interference is fine-grained:
a fixed ~40 µs spin keeps hitting its floor at any moment, but its
*mean* rises from ~1.1× the floor in a quiet second to 1.5-2× in a busy
one, and busy spells last from seconds to minutes.  Everything longer
than a millisecond is inflated by about that mean ÷ floor factor (README,
"Noise": correlation 0.8-0.85 with ingest and query passes), and no
number of repetitions inside a 20-second run escapes a spell that covers
the whole run.

So the untraced run times the spin in short bursts between the
operations it measures.  Each operation's seconds are multiplied by
``floor ÷ mean spin around it``: an estimate of what it would have taken
on the quiet host, built only from clocks read in the same run.  The
traced run does not correct anything.
"""

from __future__ import annotations

from time import perf_counter

BURST_S = 0.005
"""Length of one burst of spins."""
SEGMENT_S = 0.04
"""Longest stretch of timed operations between two bursts."""


def _spin() -> int:
    total = 0
    for i in range(1500):
        total += i * i
    return total


class HostNoise:
    """The spin meter of one run: ``floor`` is the fastest spin seen so
    far, ``levels`` the mean spin of every burst."""

    def __init__(self) -> None:
        self.floor = float("inf")
        self.levels: list[float] = []

    def burst(self) -> float:
        """Spin for ``BURST_S``; returns the mean seconds per spin."""
        fastest = self.floor
        count = 0
        start = last = perf_counter()
        stop = start + BURST_S
        while last < stop:
            _spin()
            now = perf_counter()
            if now - last < fastest:
                fastest = now - last
            last = now
            count += 1
        self.floor = fastest
        level = (last - start) / count
        self.levels.append(level)
        return level


class Segments:
    """Seconds of the consecutive operations of one timed phase and, with
    a :class:`HostNoise`, the spin level around each: a burst opens the
    phase, another closes every ``SEGMENT_S`` of operations, and an
    operation's ``load`` is the mean of the two bursts around its
    segment.  Bursts are never on an operation's clock.  Without a meter
    (traced and auxiliary passes) it only keeps the seconds."""

    def __init__(self, noise: HostNoise | None = None) -> None:
        self.noise = noise
        self.seconds: list[float] = []
        self.load: list[float] = []
        self._opened = 0.0
        self._since = 0.0

    def start(self) -> float:
        """Open a segment here; returns the clock to time the next
        operation from."""
        if self.noise is not None:
            self.close()
            self._opened = self.noise.burst()
        self._since = perf_counter()
        return self._since

    def lap(self, last: float) -> float:
        """The operation begun at ``last`` has just ended: record it and
        return the clock to time the next one from."""
        now = perf_counter()
        self.seconds.append(now - last)
        if self.noise is not None and now - self._since >= SEGMENT_S:
            self.close()
            self._since = now = perf_counter()
        return now

    def close(self) -> None:
        """End the open segment with a burst, if it holds operations."""
        pending = len(self.seconds) - len(self.load)
        if self.noise is None or not pending:
            return
        closed = self.noise.burst()
        self.load.extend([(self._opened + closed) / 2] * pending)
        self._opened = closed

    def quiet(self, floor: float) -> list[float]:
        """The operations' seconds with the host's load divided out."""
        return [s * floor / level for s, level in zip(self.seconds, self.load, strict=True)]
