"""Tick observers: the pluggable hooks around the engine core.

The engine itself is only clock + physics step + observer dispatch
(:mod:`repro.sim.engine`). Everything else — telemetry advancement, trace
recording, per-core frequency capture, scheduled-runtime (governor daemon)
firing — is an observer implementing the three-hook :class:`TickObserver`
protocol:

* ``on_start(engine)`` — once, before the first tick; the engine's clock,
  registry, row buffer and recorder are available.
* ``on_tick(block, execution)`` — after every node step, which advances a
  *block* of one or more ticks; ``block`` is the node's
  :class:`~repro.hw.node.NodeBlock` (per-tick columns, ``block.n_ticks``
  long), ``execution`` the in-flight
  :class:`~repro.workloads.base.WorkloadExecution` (or ``None`` when idle).
* ``on_finish(result)`` — once, after the horizon or completion.

An observer whose behaviour depends on *when* something happens also
answers the engine's next-event query, ``next_event_tick(tick, limit)``
(detected via ``hasattr``): the last tick, from ``tick`` up to ``limit``,
that the next block may reach. :class:`RuntimeObserver` ends a block at the
tick on which a runtime is due; :class:`TelemetryObserver` ends one before
a fault event. Between such events nothing reads or writes node state, so
a block reproduces the tick-by-tick run bit for bit.

Observers are dispatched **in list order** each block; the standard stack
orders telemetry before trace capture before runtime firing, which is the
exact sequencing of the pre-refactor monolithic loop.

An observer that records trace channels additionally implements
``declare_channels(registry)`` (detected by the engine via ``hasattr``) and
writes its columns into the first ``block.n_ticks`` rows of the engine's
shared ``(ticks, channels)`` row buffer during ``on_tick``; the engine
flushes those rows through the recorder's columnar
:meth:`~repro.sim.trace.TraceRecorder.record_row` fast path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.channels import ChannelRegistry

if TYPE_CHECKING:  # typing-only: sim is the bottom layer and must not
    # runtime-import the hardware/telemetry/workload packages built on it.
    from repro.hw.node import HeterogeneousNode, NodeBlock
    from repro.sim.clock import SimClock
    from repro.sim.engine import EngineResult, SimulationEngine
    from repro.telemetry.hub import TelemetryHub
    from repro.workloads.base import WorkloadExecution

__all__ = [
    "TickObserver",
    "ScheduledRuntime",
    "DegradedSource",
    "BaseTickObserver",
    "TelemetryObserver",
    "NodeStateObserver",
    "CoreFrequencyObserver",
    "DegradedStateObserver",
    "RuntimeObserver",
    "core_freq_channels",
    "standard_observers",
]


class TickObserver(Protocol):
    """Structural protocol for engine observers (duck-typed)."""

    def on_start(self, engine: "SimulationEngine") -> None:
        """Called once before the first tick."""

    def on_tick(self, block: "NodeBlock", execution: Optional["WorkloadExecution"]) -> None:
        """Called after every physics step (a block of one or more ticks)."""

    def on_finish(self, result: "EngineResult") -> None:
        """Called once after the run ends."""


class ScheduledRuntime(Protocol):
    """A daemon that wakes at self-chosen times (a governor's monitor loop)."""

    def start(self, now_s: float) -> None:
        """Called once when the simulation begins."""

    def next_fire_s(self) -> float:
        """Simulated time of the next wanted invocation (``inf`` = never)."""

    def invoke(self, now_s: float) -> None:
        """Perform one monitoring/decision cycle at ``now_s``."""

    # A runtime may also define ``finish(now_s)``: the runtime observer
    # calls it once when the run ends (the daemon publishes its per-cycle
    # metrics there).


class BaseTickObserver:
    """No-op base class; concrete observers override what they need."""

    def on_start(self, engine: "SimulationEngine") -> None:
        pass

    def on_tick(self, block: "NodeBlock", execution: Optional["WorkloadExecution"]) -> None:
        pass

    def on_finish(self, result: "EngineResult") -> None:
        pass


class TelemetryObserver(BaseTickObserver):
    """Advances a node's telemetry hub over every block of ticks.

    Governors read the hub's accumulators; this observer must therefore be
    ordered *before* :class:`RuntimeObserver` so a firing daemon sees
    counters that include the current tick (the pre-refactor sequencing).
    Its next-event query ends a block before a time-driven fault event of
    the hub's injector.
    """

    def __init__(self, hub: "TelemetryHub") -> None:
        self.hub = hub
        self._dt = 0.0

    def on_start(self, engine: "SimulationEngine") -> None:
        if self.hub.node is not engine.node:
            raise SimulationError("telemetry hub is bound to a different node")
        self._dt = engine.clock.dt

    def next_event_tick(self, tick: int, limit: int) -> int:
        return self.hub.next_event_tick(tick, limit, self._dt)

    def on_tick(self, block: "NodeBlock", execution: Optional["WorkloadExecution"]) -> None:
        self.hub.on_tick(self._dt)


class NodeStateObserver(BaseTickObserver):
    """Records the node-level tick state plus workload progress.

    Owns the scalar channels every analysis depends on: memory demand and
    delivery, stretch, uncore target/effective frequency, the power-domain
    breakdown, IPC/clock means and progress.
    """

    CHANNELS = (
        "demand_gbps",
        "delivered_gbps",
        "stretch",
        "uncore_target_ghz",
        "uncore_effective_ghz",
        "core_w",
        "uncore_w",
        "dram_w",
        "gpu_w",
        "monitor_w",
        "pkg_w",
        "cpu_w",
        "total_w",
        "mean_ipc",
        "mean_core_freq_ghz",
        "gpu_sm_clock_ghz",
        "served_fraction",
        "progress",
    )

    def __init__(self) -> None:
        self._row: np.ndarray = np.empty(0)
        self._sl: slice = slice(0, 0)

    def declare_channels(self, registry: ChannelRegistry) -> None:
        self._sl = registry.declare("node", self.CHANNELS).slice

    def on_start(self, engine: "SimulationEngine") -> None:
        self._row = engine.trace_row

    def on_tick(self, block: "NodeBlock", execution: Optional["WorkloadExecution"]) -> None:
        self._row[: block.n_ticks, self._sl] = np.array(
            (
                block.demand_gbps,
                block.delivered_gbps,
                block.stretch,
                block.uncore_target_ghz,
                block.uncore_effective_ghz,
                block.core_w,
                block.uncore_w,
                block.dram_w,
                block.gpu_w,
                block.monitor_w,
                block.package_w,
                block.cpu_w,
                block.total_w,
                block.mean_ipc,
                block.mean_core_freq_ghz,
                block.gpu_sm_clock_ghz,
                block.served_fraction,
                block.progress,
            )
        ).T


def core_freq_channels(node: "HeterogeneousNode") -> List[str]:
    """Per-core trace channel names for ``node``, from its topology.

    Cores are numbered globally across sockets in socket order, matching
    how an OS enumerates them: a 2-socket, 40-core/socket node yields
    ``core0_freq_ghz`` .. ``core79_freq_ghz``.
    """
    names: List[str] = []
    k = 0
    for cpu, _ in node.sockets:
        names.extend(f"core{k + c}_freq_ghz" for c in range(cpu.n_cores))
        k += cpu.n_cores
    return names


class CoreFrequencyObserver(BaseTickObserver):
    """Records every core's effective frequency, across all sockets.

    The channel set is derived from the node topology (one channel per
    core per socket) instead of the old hardcoded ``core0..core3`` capture
    of socket 0 — dual-socket presets now record both sockets, and nodes
    with fewer than four cores no longer duplicate the last core's value
    into phantom channels. Capture is vectorised: one numpy slice
    assignment per socket per block.
    """

    def __init__(self, node: "HeterogeneousNode") -> None:
        self.node = node
        self._names = tuple(core_freq_channels(node))
        offsets: List[int] = []
        k = 0
        for cpu, _ in node.sockets:
            offsets.append(k)
            k += cpu.n_cores
        self._offsets = offsets
        self._row: np.ndarray = np.empty(0)
        self._start = 0

    @property
    def channels(self) -> Sequence[str]:
        """The derived per-core channel names, in column order."""
        return self._names

    def declare_channels(self, registry: ChannelRegistry) -> None:
        self._start = registry.declare("cores", self._names).start

    def on_start(self, engine: "SimulationEngine") -> None:
        if self.node is not engine.node:
            raise SimulationError("core-frequency observer is bound to a different node")
        self._row = engine.trace_row

    def on_tick(self, block: "NodeBlock", execution: Optional["WorkloadExecution"]) -> None:
        rows = self._row[: block.n_ticks]
        start = self._start
        for (cpu, _), offset in zip(self.node.sockets, self._offsets):
            rows[:, start + offset : start + offset + cpu.n_cores] = cpu.block_freqs_ghz


class DegradedSource(Protocol):
    """What :class:`DegradedStateObserver` reads: a supervised daemon's health.

    Structural, so the sim layer never imports the runtime package; a
    :class:`~repro.runtime.supervisor.SupervisedDaemon` satisfies it.
    """

    @property
    def degraded(self) -> bool:
        """Whether the supervised runtime is currently failed-safe."""
        ...  # pragma: no cover - protocol

    @property
    def incident_count(self) -> int:
        """Cumulative incidents recorded so far."""
        ...  # pragma: no cover - protocol


class DegradedStateObserver(BaseTickObserver):
    """Records a supervised runtime's health as trace channels.

    ``supervisor_degraded`` is 1.0 while the node runs in degraded mode
    (governor failed-safe, uncore pinned at the vendor-default ceiling,
    awaiting re-arm or permanently dead) and 0.0 otherwise; integrating it
    gives the run's degraded-mode dwell time.  ``supervisor_incidents`` is
    the cumulative incident count, so incident bursts are visible on the
    shared time base of every other channel.

    ``source`` is anything with a boolean ``degraded`` attribute and an
    integer ``incident_count`` property — in practice a
    :class:`~repro.runtime.supervisor.SupervisedDaemon`; the protocol keeps
    the sim layer free of runtime imports.
    """

    CHANNELS = ("supervisor_degraded", "supervisor_incidents")

    def __init__(self, source: DegradedSource) -> None:
        self.source = source
        self._row: np.ndarray = np.empty(0)
        self._sl: slice = slice(0, 0)

    def declare_channels(self, registry: ChannelRegistry) -> None:
        self._sl = registry.declare("supervision", self.CHANNELS).slice

    def on_start(self, engine: "SimulationEngine") -> None:
        self._row = engine.trace_row

    def on_tick(self, block: "NodeBlock", execution: Optional["WorkloadExecution"]) -> None:
        # Health changes only when a runtime fires or a fault event starts
        # a block, so one value holds for the whole block.
        self._row[: block.n_ticks, self._sl] = (
            1.0 if self.source.degraded else 0.0,
            float(self.source.incident_count),
        )


class RuntimeObserver(BaseTickObserver):
    """Fires every scheduled runtime whose schedule elapsed during a tick.

    A runtime is due on the first tick whose end, the *clock-quantised*
    boundary ``(tick + 1) * dt`` (bit-identical to what ``SimClock.advance``
    returns, not the node's float-accumulated time), reaches its
    ``next_fire_s()``. The next-event query ends the block on that tick, so
    after each block the observer invokes every runtime due on the block's
    last tick (repeatedly, so several due cycles of one runtime and several
    runtimes due in the same tick all fire, in list order). A runtime that
    does not advance its schedule past its own firing time would spin
    forever, so that is detected and raised, as is a runtime that fell due
    before the block's last tick. When the run ends it calls
    ``finish(runtime_s)`` on every runtime that defines it.
    """

    def __init__(self, runtimes: Sequence[ScheduledRuntime] = ()) -> None:
        self.runtimes: List[ScheduledRuntime] = list(runtimes)
        self._clock: Optional["SimClock"] = None

    def on_start(self, engine: "SimulationEngine") -> None:
        self._clock = engine.clock
        for rt in self.runtimes:
            rt.start(engine.clock.now)

    def next_event_tick(self, tick: int, limit: int) -> int:
        """The first tick from ``tick`` on whose end some runtime is due
        (``limit`` if none is due by then)."""
        clock = self._clock
        if clock is None:  # pragma: no cover - engine always calls on_start
            raise SimulationError("RuntimeObserver.next_event_tick before on_start")
        dt = clock.dt
        for rt in self.runtimes:
            due = rt.next_fire_s()
            if due > (limit + 1) * dt:
                continue
            # The smallest e >= tick with due <= (e + 1) * dt: start from
            # the float estimate and settle it with the exact test.
            e = min(max(tick, int(due / dt) - 1), limit)
            while e > tick and due <= e * dt:
                e -= 1
            while due > (e + 1) * dt:
                e += 1
            limit = e
        return limit

    def on_tick(self, block: "NodeBlock", execution: Optional["WorkloadExecution"]) -> None:
        clock = self._clock
        if clock is None:  # pragma: no cover - engine always calls on_start
            raise SimulationError("RuntimeObserver.on_tick before on_start")
        last = clock.tick + block.n_ticks - 1
        before = last * clock.dt
        now = (last + 1) * clock.dt
        for rt in self.runtimes:
            if block.n_ticks > 1 and rt.next_fire_s() <= before:
                raise SimulationError(
                    f"runtime {rt!r} fell due at {rt.next_fire_s()!r} inside a block "
                    f"ending at tick {last}"
                )
            while rt.next_fire_s() <= now:
                due = rt.next_fire_s()
                rt.invoke(due)
                if rt.next_fire_s() <= due:
                    raise SimulationError(
                        f"runtime {rt!r} did not advance its schedule past {due!r}"
                    )

    def on_finish(self, result: "EngineResult") -> None:
        for rt in self.runtimes:
            finish = getattr(rt, "finish", None)
            if finish is not None:
                finish(result.runtime_s)


def standard_observers(
    node: "HeterogeneousNode",
    hub: Optional["TelemetryHub"] = None,
    runtimes: Sequence[ScheduledRuntime] = (),
    *,
    per_core_channels: bool = True,
    extra: Sequence[TickObserver] = (),
) -> List[TickObserver]:
    """The canonical observer stack, in dispatch order.

    Telemetry advancement, node-state trace capture, (optionally) per-core
    frequency capture, then scheduled-runtime firing — the exact semantics
    of the pre-refactor monolithic tick loop. ``extra`` observers are
    inserted before the runtime-firing stage so their recorded channels are
    complete when a governor fires. Fleet-scale callers pass
    ``per_core_channels=False`` to drop the (wide) per-core block from the
    schema.

    Raises
    ------
    SimulationError
        If ``hub`` observes a different node than ``node``.
    """
    observers: List[TickObserver] = []
    if hub is not None:
        if hub.node is not node:
            raise SimulationError("telemetry hub is bound to a different node")
        observers.append(TelemetryObserver(hub))
    observers.append(NodeStateObserver())
    if per_core_channels:
        observers.append(CoreFrequencyObserver(node))
    observers.extend(extra)
    observers.append(RuntimeObserver(runtimes))
    return observers
