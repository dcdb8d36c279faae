"""Algorithm 3 — MDFS: the MAGUS runtime policy.

Each decision cycle (one :meth:`MagusGovernor.sample_and_decide` call):

1. read system memory throughput from PCM (the *only* counter MAGUS
   monitors — one metered aggregation, independent of core count);
2. push it into the predictor's FIFO;
3. during the first ``init_cycles`` cycles: collect only (uncore stays at
   the max established at launch);
4. afterwards, run the high-frequency detector *first* (Algorithm 3 lines
   9–15): in high-frequency state the uncore is pinned at max;
5. run the trend predictor; log a tune event if it wants a change; execute
   its temporary decision only when not in high-frequency state — jump to
   the **upper bound** on a rising trend, to the **lower bound** on a
   falling one (MAGUS actuates aggressively, unlike UPS's one-bin steps).

The governor is deliberately a thin composition of
:class:`~repro.core.predictor.TrendPredictor` and
:class:`~repro.core.detector.HighFrequencyDetector`; all policy numbers
live in :class:`~repro.core.config.MagusConfig`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import MagusConfig
from repro.core.detector import HighFrequencyDetector
from repro.core.predictor import TrendPredictor, TREND_DOWN, TREND_UP
from repro.governors.base import Decision, GovernorContext, UncoreGovernor
from repro.telemetry.sampling import AccessMeter

__all__ = ["MagusGovernor"]


class MagusGovernor(UncoreGovernor):
    """MAGUS: memory-dynamics-driven uncore frequency scaling."""

    name = "magus"
    hardware = False

    def __init__(self, config: MagusConfig = MagusConfig()):
        super().__init__()
        self.config = config
        self.launch_delay_s = config.launch_delay_s
        self.predictor = TrendPredictor(config)
        self.detector = HighFrequencyDetector(config)
        self._cycle = 0
        self._high_freq_status = False
        self._pending_temp: Optional[float] = None
        #: (time, throughput) samples, kept for the prediction-accuracy
        #: analysis (Table 1) and the case studies.
        self._samples: List[Tuple[float, float]] = []

    @property
    def interval_s(self) -> float:
        """Sleep between invocations (the paper's 0.2 s)."""
        return self.config.interval_s

    @property
    def initial_uncore_ghz(self) -> float:
        """MDFS line 3: start at the maximum supported uncore frequency."""
        return self.context.uncore_max_ghz

    @property
    def high_freq_status(self) -> bool:
        """Whether the last cycle classified the workload as high-frequency."""
        return self._high_freq_status

    @property
    def cycle(self) -> int:
        """Number of completed decision cycles."""
        return self._cycle

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """All (time_s, throughput_mbps) observations, oldest first."""
        return list(self._samples)

    def on_attach(self, context: GovernorContext) -> None:
        self.predictor.reset()
        self.detector.reset()
        self._cycle = 0
        self._high_freq_status = False
        self._pending_temp = None

    def _actuate(self, bound_ghz: float, current_ghz: float) -> float:
        """Translate a temporary decision into an uncore target.

        Default MAGUS behaviour jumps straight to the bound; with the
        ``step_ghz`` ablation the target moves gradually toward it.
        """
        step = self.config.step_ghz
        if step is None:
            return bound_ghz
        if bound_ghz > current_ghz:
            return min(bound_ghz, current_ghz + step)
        return max(bound_ghz, current_ghz - step)

    def decision_attributes(self) -> Dict[str, object]:
        """Attribution for the cycle span: the signals behind the decision."""
        attrs: Dict[str, object] = {
            "cycle": self._cycle,
            "high_freq_ratio": self.detector.rate(),
            "high_freq": self._high_freq_status,
        }
        if self.predictor.ready:
            attrs["trend_derivative"] = self.predictor.derivative()
        return attrs

    def sample_and_decide(self, now_s: float, meter: AccessMeter) -> Decision:
        """One MDFS cycle (Algorithm 3)."""
        ctx = self.context
        tracer = ctx.obs.tracer if ctx.obs.enabled else None

        if tracer is not None:
            sample_start = now_s + meter.time_s
        throughput = ctx.telemetry.read_throughput_mbps(meter)
        if tracer is not None:
            tracer.complete(
                "governor.sample",
                sample_start,
                now_s + meter.time_s,
                category="sample",
                counter="pcm",
                throughput_mbps=throughput,
            )
        self.predictor.observe(throughput)
        self._samples.append((now_s, throughput))
        self._cycle += 1

        if self._cycle <= self.config.init_cycles:
            # Initialisation window: collect samples only; uncore stays at
            # the max the daemon programmed at launch. The tune FIFO was
            # pre-filled with zeros by the detector.
            return Decision(now_s, None, "init")

        # Phase 2 gate first (Algorithm 3 lines 9-15): the detector sees
        # the event history *before* this cycle's event is pushed. The
        # ablation switch turns the gate off entirely.
        was_high_freq = self._high_freq_status
        self._high_freq_status = (
            self.config.detector_enabled and self.detector.is_high_frequency()
        )
        if tracer is not None:
            tracer.instant(
                "governor.detect",
                now_s + meter.time_s,
                category="detect",
                high_freq_ratio=self.detector.rate(),
                high_freq=self._high_freq_status,
            )

        # Phase 1: trend prediction. The temporary decision is computed --
        # and its potential-scaling event logged -- every cycle, even under
        # high-frequency status, so future detection reflects the workload.
        trend = self.predictor.predict()
        implied: Optional[float] = None
        if trend == TREND_UP:
            implied = ctx.uncore_max_ghz
        elif trend == TREND_DOWN:
            implied = ctx.uncore_min_ghz
        if implied is not None:
            self._pending_temp = implied

        # A "potential uncore frequency scaling event" (§3.2) is a cycle
        # whose temporary decision would actually move the uncore: a
        # falling trend while already at the floor re-confirms the state
        # rather than scaling it, so it does not count. This keeps a single
        # sharp phase edge from masquerading as high-frequency fluctuation
        # (the derivative window sees one cliff for `direv_length`
        # consecutive cycles).
        current_target = ctx.node.uncore(0).target_ghz
        event = implied is not None and abs(implied - current_target) > 1e-12
        self.detector.log_event(event)

        if tracer is not None:
            tracer.instant(
                "governor.decide",
                now_s + meter.time_s,
                category="decide",
                trend=trend,
                trend_derivative=self.predictor.derivative() if self.predictor.ready else None,
                tune_event=event,
            )

        if self._high_freq_status:
            return Decision(now_s, ctx.uncore_max_ghz, "high_freq_pin")

        if trend == TREND_UP:
            self._pending_temp = None
            return Decision(now_s, self._actuate(ctx.uncore_max_ghz, current_target), "trend_up")
        if trend == TREND_DOWN:
            self._pending_temp = None
            return Decision(now_s, self._actuate(ctx.uncore_min_ghz, current_target), "trend_down")

        # Leaving high-frequency state with a flat trend: "the detection
        # phase approves and executes the temporary decision made in the
        # prediction phase" (§3.3) -- the most recent non-flat temporary
        # decision, which was logged but never executed while pinned.
        if was_high_freq and self._pending_temp is not None:
            target = self._pending_temp
            self._pending_temp = None
            if abs(target - current_target) > 1e-12:
                return Decision(now_s, target, "approve_pending")
        return Decision(now_s, None, "hold")
