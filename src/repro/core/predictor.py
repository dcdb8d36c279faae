"""Algorithm 1 — memory-throughput trend prediction.

A fixed-size FIFO of throughput samples plus a thresholded first
derivative.  The predictor answers one question each cycle: is memory
throughput about to rise sharply (+1), fall sharply (−1), or neither (0)?
The asymmetric thresholds (rise at 200 MB/s/sample, fall at 500) make the
policy quicker to grant bandwidth than to take it away.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.config import MagusConfig
from repro.core.dynamics import first_derivative
from repro.errors import ConfigError

__all__ = ["TREND_UP", "TREND_DOWN", "TREND_FLAT", "TrendPredictor"]

#: Predictor verdicts (the return values of Algorithm 1).
TREND_UP = 1
TREND_DOWN = -1
TREND_FLAT = 0


class TrendPredictor:
    """Sliding-window trend predictor over PCM throughput samples.

    Parameters
    ----------
    config:
        The MAGUS configuration supplying ``history_len``,
        ``direv_length`` and the two thresholds.
    """

    def __init__(self, config: MagusConfig = MagusConfig()):
        self.config = config
        self._history: Deque[float] = deque(maxlen=config.history_len)
        #: :meth:`derivative` of the current window (None once a sample
        #: invalidates it).
        self._derivative: Optional[float] = None

    @property
    def history(self) -> List[float]:
        """Current contents of ``mem_throughput_ls``, oldest first."""
        return list(self._history)

    @property
    def ready(self) -> bool:
        """True once enough samples exist to take the derivative."""
        return len(self._history) >= self.config.direv_length + 1

    def observe(self, throughput_mbps: float) -> None:
        """Push one throughput sample (MB/s) into the FIFO.

        Negative readings (possible from counter races in real PCM) are
        clamped to zero rather than poisoning the derivative.
        """
        if throughput_mbps != throughput_mbps:  # NaN guard
            raise ConfigError("throughput sample is NaN")
        self._history.append(max(0.0, float(throughput_mbps)))
        self._derivative = None

    def predict(self) -> int:
        """Run Algorithm 1 over the current window.

        Returns
        -------
        int
            :data:`TREND_UP` when the derivative exceeds ``inc_threshold``,
            :data:`TREND_DOWN` when it is below ``-dec_threshold``,
            :data:`TREND_FLAT` otherwise (including while warming up).
        """
        if not self.ready:
            return TREND_FLAT
        d = self.derivative()
        if d > self.config.inc_threshold:
            return TREND_UP
        if d < -self.config.dec_threshold:
            return TREND_DOWN
        return TREND_FLAT

    def derivative(self) -> float:
        """The raw derivative (MB/s per sample) over the current window.

        Raises
        ------
        ConfigError
            If called before the window has filled.
        """
        if self._derivative is None:
            if not self.ready:
                raise ConfigError("predictor window not yet filled")
            self._derivative = first_derivative(self._history, self.config.direv_length)
        return self._derivative

    def reset(self) -> None:
        """Drop all history (used between applications)."""
        self._history.clear()
        self._derivative = None
