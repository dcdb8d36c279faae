"""Algorithm 2 — high-frequency memory-fluctuation detection.

A binary FIFO records, for each decision cycle, whether the predictor
*wanted* to retune the uncore.  When the fraction of recent tune events
reaches ``high_freq_threshold``, the workload is fluctuating faster than
software + hardware can usefully chase; MAGUS then pins the uncore at max
(guaranteed bandwidth) until the rate decays below the threshold.

Crucially — and per §3.2 of the paper — tune events are logged **even while
pinned**: the prediction phase keeps running in high-frequency state so the
detector can tell when the workload calms down.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.config import MagusConfig
from repro.core.dynamics import tune_event_rate
from repro.errors import ConfigError

__all__ = ["HighFrequencyDetector"]


class HighFrequencyDetector:
    """Sliding-window tune-event-rate detector.

    Parameters
    ----------
    config:
        Supplies ``tune_history_len`` and ``high_freq_threshold``.

    Notes
    -----
    Per §3.3 of the paper the FIFO is *pre-filled with zeros* at start-up —
    the initialisation window performs no tuning, so the detector begins
    from a clean "calm" state.
    """

    def __init__(self, config: MagusConfig = MagusConfig()):
        self.config = config
        self._flags: Deque[int] = deque(
            [0] * config.tune_history_len, maxlen=config.tune_history_len
        )
        #: :meth:`rate` of the current FIFO (None once a log invalidates it).
        self._rate: Optional[float] = None

    @property
    def flags(self) -> List[int]:
        """Current contents of ``uncore_tune_ls``, oldest first."""
        return list(self._flags)

    def log_event(self, tuned: bool) -> None:
        """Record whether this cycle's prediction generated a tune event.

        This must be called every cycle — including cycles spent pinned at
        max during high-frequency state — so the rate reflects the
        workload, not the actuation.
        """
        self._flags.append(1 if tuned else 0)
        self._rate = None

    def rate(self) -> float:
        """Current tune-event rate over the window, in [0, 1]."""
        if self._rate is None:
            self._rate = tune_event_rate(self._flags)
        return self._rate

    def is_high_frequency(self) -> bool:
        """Run Algorithm 2: is the workload in high-frequency state?"""
        return self.rate() >= self.config.high_freq_threshold

    def reset(self) -> None:
        """Re-fill the FIFO with zeros (used between applications)."""
        if self.config.tune_history_len < 1:
            raise ConfigError("tune_history_len must be >= 1")
        self._flags = deque(
            [0] * self.config.tune_history_len, maxlen=self.config.tune_history_len
        )
        self._rate = None
