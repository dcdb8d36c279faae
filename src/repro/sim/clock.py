"""Quantised simulated time.

All simulated time in :mod:`repro` is carried by a :class:`SimClock`: an
integer tick counter plus a fixed tick width ``dt``.  Using integer ticks
(rather than accumulating floats) keeps long runs exactly reproducible — a
10-minute idle-overhead run is 60 000 ticks with zero drift.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClockError

__all__ = ["SimClock", "running_sum"]


def running_sum(start: float, increments: np.ndarray) -> np.ndarray:
    """Every value a float accumulator takes while adding ``increments``.

    ``np.add.accumulate`` adds strictly left to right, so element ``i`` is
    bit for bit what ``start += increments[0]; ...; start +=
    increments[i]`` leaves behind.  (``np.sum`` adds pairwise and may round
    differently.)  Blocks of ticks advance their accumulators — simulated
    time, energy and byte counters — through this one helper.
    """
    out = np.empty(len(increments) + 1)
    out[0] = start
    out[1:] = increments
    return np.add.accumulate(out)[1:]


class SimClock:
    """A monotonically advancing, quantised simulation clock.

    Parameters
    ----------
    dt:
        Tick width in seconds. Must be positive. The default of 10 ms is a
        good compromise: it is 20× finer than the 0.2 s monitoring interval
        of the runtimes under study while keeping multi-minute simulations
        cheap.

    Examples
    --------
    >>> clock = SimClock(dt=0.01)
    >>> clock.now
    0.0
    >>> round(clock.advance(), 6)
    0.01
    """

    __slots__ = ("_dt", "_tick")

    def __init__(self, dt: float = 0.01) -> None:
        if not (dt > 0):
            raise ClockError(f"tick width must be positive, got {dt!r}")
        self._dt = float(dt)
        self._tick = 0

    @property
    def dt(self) -> float:
        """Tick width in seconds."""
        return self._dt

    @property
    def tick(self) -> int:
        """Number of completed ticks since the epoch."""
        return self._tick

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._tick * self._dt

    def advance(self, ticks: int = 1) -> float:
        """Advance the clock by ``ticks`` ticks and return the new time.

        Raises
        ------
        ClockError
            If ``ticks`` is not a positive integer (time never flows
            backwards in this simulator).
        """
        if not isinstance(ticks, int) or ticks <= 0:
            raise ClockError(f"can only advance by a positive integer tick count, got {ticks!r}")
        self._tick += ticks
        return self.now

    def ticks_until(self, when_s: float) -> int:
        """Number of whole ticks from now until simulated time ``when_s``.

        Rounds *up*, so waiting ``ticks_until(t)`` ticks never undershoots
        ``t``. Returns 0 if ``when_s`` is in the past.
        """
        if when_s <= self.now:
            return 0
        remaining = when_s - self.now
        ticks = int(remaining / self._dt)
        if ticks * self._dt < remaining - 1e-12:
            ticks += 1
        return ticks

    def align(self, period_s: float) -> float:
        """Return the first time ``>= now`` that is an integer multiple of
        ``period_s``.

        Used by samplers that fire on a fixed grid.
        """
        if period_s <= 0:
            raise ClockError(f"period must be positive, got {period_s!r}")
        k = int(self.now / period_s)
        t = k * period_s
        if t < self.now - 1e-12:
            t = (k + 1) * period_s
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(dt={self._dt}, tick={self._tick}, now={self.now:.3f}s)"
