"""TelemetryHub: one object bundling every telemetry device for a node.

The simulation engine advances the hub once per node step (a block of
ticks); runtimes receive the hub and use whichever interfaces their design
calls for (MAGUS: PCM + the uncore control path; UPS: per-core MSR reads +
RAPL + control path; the vendor default: RAPL only).

The hub also provides the **vendor-neutral actuation path**: on Intel the
uncore limit is programmed through MSR ``0x620``, on AMD through HSMP
fabric P-state requests (§6.6). Governors never need to know which — the
daemon calls :meth:`TelemetryHub.set_uncore_max_ghz`, which delegates to
the hub's :class:`~repro.backends.base.ControlBackend` (a zero-latency
:class:`~repro.backends.sim.SimBackend` by default, bit-identical to the
pre-backend dispatch).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.backends.base import ControlBackend
from repro.backends.sim import SimBackend
from repro.errors import TelemetryError
from repro.hw.node import HeterogeneousNode
from repro.hw.presets import TelemetryCosts
from repro.obs.registry import MetricsRegistry
from repro.telemetry.hsmp import HSMPDevice
from repro.telemetry.msr import MSRDevice
from repro.telemetry.nvml import NVMLDevice
from repro.telemetry.pcm import PCMCounters
from repro.telemetry.rapl import RAPLCounters
from repro.telemetry.sampling import AccessMeter

if TYPE_CHECKING:  # typing-only: faults builds its proxies *around* the
    # hub, so a runtime import here would be circular (likewise the guard,
    # which sits above the proxies).
    from repro.faults.injector import FaultInjector
    from repro.guard.core import TelemetryGuard

__all__ = ["TelemetryHub", "ACCESS_COUNTER_NAMES"]

#: Meter access kind → per-device read/write counter (static, RL006-clean:
#: every name is a lowercase dotted literal known at import time).
ACCESS_COUNTER_NAMES: Mapping[str, str] = {
    "msr_read": "repro.telemetry.reads.msr",
    "msr_write": "repro.telemetry.writes.msr",
    "pcm_read": "repro.telemetry.reads.pcm",
    "rapl_read": "repro.telemetry.reads.rapl",
    "nvml_query": "repro.telemetry.reads.nvml",
    "hsmp_mailbox": "repro.telemetry.writes.hsmp",
    "retry_backoff": "repro.supervisor.backoff_charges",
    "actuation_latency": "repro.actuation.latency_charges",
    "guard_check": "repro.guard.check_charges",
}


class TelemetryHub:
    """All telemetry devices of one node, advanced together.

    Parameters
    ----------
    node:
        The node being observed/actuated.
    costs:
        The preset's per-access cost model.
    vendor:
        ``"intel"`` (MSR actuation; HSMP absent) or ``"amd"`` (HSMP
        actuation; the MSR uncore-limit register absent, per-core counters
        still available for completeness).
    backend:
        The :class:`~repro.backends.base.ControlBackend` to route actuation
        through; omitted, a zero-latency
        :class:`~repro.backends.sim.SimBackend` (instantaneous transitions,
        the pre-backend behaviour). Pass ``SimBackend(latency_model)`` to
        model switch latency.
    """

    def __init__(
        self,
        node: HeterogeneousNode,
        costs: TelemetryCosts,
        vendor: str = "intel",
        *,
        backend: Optional[ControlBackend] = None,
    ):
        if vendor not in ("intel", "amd"):
            raise TelemetryError(f"unknown vendor {vendor!r}; expected 'intel' or 'amd'")
        self.node = node
        self.costs = costs
        self.vendor = vendor
        self.msr = MSRDevice(node, costs)
        self.pcm = PCMCounters(node, costs)
        self.rapl = RAPLCounters(node, costs)
        self.nvml = NVMLDevice(node)
        self.hsmp: Optional[HSMPDevice] = HSMPDevice(node, costs) if vendor == "amd" else None
        #: The control backend every actuation routes through.
        self.backend: ControlBackend = backend if backend is not None else SimBackend()
        self.backend.bind(self)
        #: Installed fault injector, if any (see :meth:`install_fault_injector`).
        self.fault_injector: Optional["FaultInjector"] = None
        #: Installed telemetry guard, if any (see :meth:`install_guard`).
        self.guard: Optional["TelemetryGuard"] = None
        #: Attached metrics registry, if any (see :meth:`attach_metrics`).
        self._metrics: Optional[MetricsRegistry] = None

    def install_fault_injector(self, injector: "FaultInjector") -> None:
        """Wrap every device behind ``injector``'s fault proxies.

        This is the injectable seam the robustness experiments use: after
        installation, ``hub.msr``/``hub.pcm``/``hub.rapl`` (and ``hub.hsmp``
        on AMD) are proxies that realise the injector's
        :class:`~repro.faults.plan.FaultPlan` while preserving per-access
        meter charging.  A hub accepts at most one injector for its
        lifetime.
        """
        if self.fault_injector is not None:
            raise TelemetryError("hub already has a fault injector installed")
        injector.arm(self)
        self.fault_injector = injector

    def install_guard(self, guard: "TelemetryGuard") -> None:
        """Put ``guard`` between this hub's devices and the governors.

        The guard looks devices up on the hub at call time, so it always
        sees whatever the fault injector installed — the trust chain is
        devices → injector proxies → guard → governor regardless of
        installation order.  A hub accepts at most one guard.
        """
        if self.guard is not None:
            raise TelemetryError("hub already has a guard installed")
        guard.bind(self)
        self.guard = guard
        if self._metrics is not None:
            guard.attach_metrics(self._metrics)

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Route per-device access counts into ``registry``.

        Purely observational: the counters mirror what the cycle meters
        already charged (see :meth:`count_accesses`), so attaching a
        registry changes no simulated state. At most one registry per hub.
        """
        if self._metrics is not None:
            raise TelemetryError("hub already has a metrics registry attached")
        self._metrics = registry
        self.backend.attach_metrics(registry)
        if self.guard is not None:
            self.guard.attach_metrics(registry)

    def count_accesses(self, counts: Mapping[str, int]) -> None:
        """Fold one cycle's meter access counts into per-device counters.

        Called by the daemon after a successful cycle with the *delta*
        counts of that cycle (a supervisor-shared meter accumulates across
        attempts; the caller subtracts the baseline). Unknown kinds land
        only in the total, so custom meter kinds cannot crash a run.
        """
        registry = self._metrics
        if registry is None:
            return
        total = 0
        for kind, count in counts.items():
            if count <= 0:
                continue
            total += count
            name = ACCESS_COUNTER_NAMES.get(kind)
            if name is not None:
                registry.counter(name).inc(count)
        if total:
            registry.counter("repro.telemetry.accesses.total").inc(total)

    def on_tick(self, dt_s: float) -> None:
        """Advance every device's accumulators over the node's latest step.

        The step may span a block of ticks (:attr:`~repro.hw.node.
        HeterogeneousNode.last_block`); every device advances over all of
        them. The engine ends blocks so that any fault event falls on a
        block's first tick (:meth:`next_event_tick`).
        """
        block = self.node.last_block
        n_ticks = block.n_ticks if block is not None else 1
        if self.fault_injector is not None:
            # Campaign time advances first so faults scheduled at this
            # block's first tick are active for the accesses that follow.
            self.fault_injector.on_tick(dt_s, n_ticks)
        if self.guard is not None:
            # The guard's clock mirrors campaign time (breaker probe
            # schedules live on the sim clock, not wall time).
            self.guard.on_tick(dt_s, n_ticks)
        self.msr.on_tick(dt_s)
        self.pcm.on_tick(dt_s)
        self.rapl.on_tick(dt_s)
        self.nvml.on_tick(dt_s)
        if self.hsmp is not None:
            self.hsmp.on_tick(dt_s)
        # The backend ticks last: its settling accounting reads the state
        # the devices (and node step) just established.
        self.backend.on_tick(dt_s)

    def next_event_tick(self, tick: int, limit: int, dt_s: float) -> int:
        """The last tick, from ``tick`` up to ``limit``, that the next block
        may reach before a time-driven fault event (a counter wrap, a PCM
        freeze-window edge) would fall inside it; ``limit`` without an
        installed fault injector."""
        if self.fault_injector is None:
            return limit
        return tick + self.fault_injector.block_ticks(dt_s, limit - tick + 1) - 1

    def set_uncore_max_ghz(self, freq_ghz: float, meter: Optional[AccessMeter] = None) -> None:
        """Program the uncore/fabric ceiling through the control backend.

        Kept under its historical name — callers need no migration. The
        backend picks the vendor mechanism (MSR ``0x620`` on Intel, HSMP
        mailbox on AMD), samples any modeled switch latency and charges it
        to ``meter``.  With a guard installed, the write is verified
        against its register read-back (see
        :meth:`repro.guard.core.TelemetryGuard.actuate_uncore_max_ghz`).
        """
        if self.guard is not None:
            self.guard.actuate_uncore_max_ghz(freq_ghz, meter)
        else:
            self.backend.set_uncore_max_ghz(freq_ghz, meter)
        if self._metrics is not None:
            self._metrics.counter("repro.telemetry.actuations").inc()

    @property
    def actuation_pending(self) -> bool:
        """True while a backend-programmed transition is still in flight."""
        return self.backend.actuation_pending
