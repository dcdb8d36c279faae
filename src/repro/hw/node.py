"""The heterogeneous compute node: sockets + memory + GPUs assembled.

:class:`HeterogeneousNode` is the object everything else touches: the
simulation engine steps it, telemetry devices read it, and governors actuate
it (through the MSR layer).  It owns no policy — the uncore target is
whatever was last written, exactly like real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import HardwareError, PowerModelError
from repro.hw.cpu import CPUCoreModel
from repro.hw.gpu import GPUGroup
from repro.hw.memory import MemorySubsystem
from repro.hw.power import PowerBreakdown
from repro.hw.uncore import UncoreModel
from repro.sim.clock import running_sum

if TYPE_CHECKING:  # imported for typing only; avoids an hw <-> workloads cycle
    from repro.workloads.base import Segment, WorkloadExecution

__all__ = ["NodeTickState", "NodeBlock", "HeterogeneousNode"]

#: The power domains whose per-tick columns must stay non-negative.
_POWER_DOMAINS = ("core_w", "uncore_w", "dram_w", "gpu_w", "monitor_w")


@dataclass(frozen=True)
class NodeTickState:
    """Everything observable about the node after one tick."""

    time_s: float
    demand_gbps: float
    delivered_gbps: float
    stretch: float
    power: PowerBreakdown
    uncore_target_ghz: float
    uncore_effective_ghz: float
    mean_ipc: float
    mean_core_freq_ghz: float
    gpu_sm_clock_ghz: float
    served_fraction: float


@dataclass(frozen=True)
class NodeBlock:
    """Every tick of one :meth:`HeterogeneousNode.step`, as per-tick columns.

    Each array has one entry per tick, in tick order; the fields mirror
    :class:`NodeTickState` (power domains flattened), plus the workload
    ``progress`` after each tick and ``in_transition`` — whether any
    socket's uncore was still switching or slewing at the end of the tick.
    """

    time_s: np.ndarray
    demand_gbps: np.ndarray
    delivered_gbps: np.ndarray
    stretch: np.ndarray
    uncore_target_ghz: np.ndarray
    uncore_effective_ghz: np.ndarray
    core_w: np.ndarray
    uncore_w: np.ndarray
    dram_w: np.ndarray
    gpu_w: np.ndarray
    monitor_w: np.ndarray
    package_w: np.ndarray
    cpu_w: np.ndarray
    total_w: np.ndarray
    mean_ipc: np.ndarray
    mean_core_freq_ghz: np.ndarray
    gpu_sm_clock_ghz: np.ndarray
    served_fraction: np.ndarray
    progress: np.ndarray
    in_transition: np.ndarray

    @property
    def n_ticks(self) -> int:
        """Number of ticks in the block."""
        return len(self.time_s)


class HeterogeneousNode:
    """A CPU-GPU node assembled from component models.

    Parameters
    ----------
    sockets:
        ``(cpu, uncore)`` pairs, one per socket. All sockets are assumed
        identical parts (as in every system the paper evaluates).
    memory:
        The node-level memory subsystem.
    gpus:
        The GPU group.
    tdp_w_per_socket:
        Thermal design power of each socket; the vendor-default governor
        keys on package power approaching this.
    cpu_mem_coupling:
        Fraction of a phase's unmet memory demand that shows up as CPU
        core stalls (depressing IPC). Low for GPU-dominant workloads,
        whose memory-bound path is DMA/staging rather than CPU loads.
    name:
        Preset name, carried into reports.
    """

    def __init__(
        self,
        sockets: Sequence[Tuple[CPUCoreModel, UncoreModel]],
        memory: MemorySubsystem,
        gpus: GPUGroup,
        *,
        tdp_w_per_socket: float = 270.0,
        cpu_mem_coupling: float = 0.2,
        name: str = "node",
    ):
        if not sockets:
            raise HardwareError("node needs at least one socket")
        if tdp_w_per_socket <= 0:
            raise HardwareError(f"TDP must be positive, got {tdp_w_per_socket!r}")
        if not (0.0 <= cpu_mem_coupling <= 1.0):
            raise HardwareError(f"cpu_mem_coupling must be in [0, 1], got {cpu_mem_coupling!r}")
        self.cpu_mem_coupling = float(cpu_mem_coupling)
        self.sockets: List[Tuple[CPUCoreModel, UncoreModel]] = list(sockets)
        self.memory = memory
        self.gpus = gpus
        self.tdp_w_per_socket = float(tdp_w_per_socket)
        self.name = name
        #: Average power of the monitoring runtime, set by the active daemon
        #: each decision cycle (energy of its counter reads amortised over
        #: the cycle). Charged to the package domain.
        self.monitor_power_w = 0.0
        #: True while a supervising runtime has failed-safe: the governor
        #: is down and the uncore sits pinned at the vendor-default
        #: ceiling. Cleared on successful re-arm. Schedulers treat degraded
        #: nodes as serving-but-unmanaged (power waste, not an outage).
        self.degraded = False
        self._last_state: Optional[NodeTickState] = None
        self._last_block: Optional[NodeBlock] = None
        self._time_s = 0.0
        self._ticks = 0

    # ------------------------------------------------------------------
    # Uncore control surface (what MSR 0x620 writes reach)
    # ------------------------------------------------------------------
    @property
    def n_sockets(self) -> int:
        """Number of sockets."""
        return len(self.sockets)

    @property
    def n_cores(self) -> int:
        """Total core count across sockets."""
        return sum(cpu.n_cores for cpu, _ in self.sockets)

    def uncore(self, socket: int = 0) -> UncoreModel:
        """The uncore model of one socket."""
        if not (0 <= socket < len(self.sockets)):
            raise HardwareError(f"no such socket {socket!r} (node has {len(self.sockets)})")
        return self.sockets[socket][1]

    def cpu(self, socket: int = 0) -> CPUCoreModel:
        """The core-complex model of one socket."""
        if not (0 <= socket < len(self.sockets)):
            raise HardwareError(f"no such socket {socket!r} (node has {len(self.sockets)})")
        return self.sockets[socket][0]

    def set_uncore_target_all(self, freq_ghz: float) -> float:
        """Set every socket's uncore target; returns the snapped value."""
        snapped = freq_ghz
        for _, unc in self.sockets:
            snapped = unc.set_target(freq_ghz)
        return snapped

    def force_uncore_all(self, freq_ghz: float) -> None:
        """Instantly pin every socket's uncore (initial conditions only)."""
        for _, unc in self.sockets:
            unc.force(freq_ghz)

    # Per-socket means are running float sums divided by the socket count.
    # numpy folds fewer than eight values left to right, so for up to seven
    # sockets this is np.mean bit for bit, without its wrapper cost.

    def _uncores_settled(self) -> bool:
        """No socket has a transition in flight: slewing is a no-op."""
        for _, unc in self.sockets:
            if unc.pending_target_ghz is not None or unc.effective_ghz != unc.target_ghz:
                return False
        return True

    def uncore_effective_ghz(self) -> float:
        """Mean effective uncore frequency across sockets."""
        total = 0.0
        for _, unc in self.sockets:
            total += unc.effective_ghz
        return total / len(self.sockets)

    def uncore_target_ghz(self) -> float:
        """Mean target uncore frequency across sockets."""
        total = 0.0
        for _, unc in self.sockets:
            total += unc.target_ghz
        return total / len(self.sockets)

    @property
    def uncore_min_ghz(self) -> float:
        """Lower bound of the uncore range (socket 0; sockets are identical)."""
        return self.sockets[0][1].min_ghz

    @property
    def uncore_max_ghz(self) -> float:
        """Upper bound of the uncore range."""
        return self.sockets[0][1].max_ghz

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------
    def step(
        self,
        dt_s: float,
        workload: Union["Segment", "WorkloadExecution", None],
        n_ticks: int = 1,
    ) -> NodeTickState:
        """Advance the node by ``n_ticks`` ticks of ``dt_s``; return the last.

        ``workload`` is ``None`` for an idle node (no application, used by
        the Table 2 overhead experiments), a segment held for every tick,
        or a workload execution, which is read and advanced by ``dt_s /
        stretch`` nominal seconds each tick; the block then ends early,
        after the tick that completes the workload.

        Scalar recurrences — the uncore slew and any latency-delayed target
        adoption, memory service, workload progress, GPU and uncore power —
        run tick by tick; per-core DVFS, power and IPC then run once over
        ``(ticks, cores)`` arrays per socket. The whole block is exposed as
        :attr:`last_block`; :attr:`last_state` and the per-core arrays hold
        the last tick.
        """
        if dt_s <= 0:
            raise HardwareError(f"dt must be positive, got {dt_s!r}")
        if n_ticks < 1:
            raise HardwareError(f"n_ticks must be at least 1, got {n_ticks!r}")
        execution = workload if hasattr(workload, "advance") else None
        segment = None if execution is not None else workload
        uncores = [unc for _, unc in self.sockets]
        n_sockets = len(uncores)
        memory = self.memory
        gpus = self.gpus

        # Between an uncore transition and a segment change every tick
        # repeats the previous tick's scalars, so the loop records one row
        # per run of equal ticks and expands the runs afterwards. Memory
        # service and GPU state are recomputed only when their inputs
        # change: the same values as recomputing them every tick.
        settled = self._uncores_settled()
        moving = False
        eff_unc = self.uncore_effective_ghz()
        target_unc = self.uncore_target_ghz()
        starts: List[int] = []
        rows: List[Tuple[float, ...]] = []
        progress: List[float] = []
        gpu_util: Optional[float] = None
        last_seg: object = ()
        ticks = n_ticks
        tick = 0
        try:
            for tick in range(n_ticks):
                fresh = not settled
                if fresh:
                    eff_sum = 0.0
                    target_sum = 0.0
                    moving = False
                    for unc in uncores:
                        eff_sum += unc.step(dt_s)
                        target_sum += unc.target_ghz
                        moving = moving or unc.in_transition
                    # Per-socket means are running float sums divided by the
                    # socket count: numpy folds fewer than eight values left
                    # to right, so up to seven sockets this is np.mean bit
                    # for bit.
                    eff_unc = eff_sum / n_sockets
                    target_unc = target_sum / n_sockets
                    settled = self._uncores_settled()
                if execution is not None:
                    segment = execution.current()
                if fresh or segment is not last_seg:
                    if segment is not last_seg:
                        last_seg = segment
                        util = segment.gpu_util if segment is not None else 0.0
                        if util != gpu_util:
                            gpu_util = util
                            gpus.step(util)
                            gpu_power = gpus.power_w()
                            gpu_clock = gpus.mean_sm_clock_ghz()
                    if segment is None:
                        demand, mem_intensity, cpu_util = 0.0, 0.0, 0.0
                    else:
                        demand = segment.mem_bw_gbps
                        mem_intensity = segment.mem_intensity
                        cpu_util = segment.cpu_util
                    svc = memory.service(demand, mem_intensity, eff_unc)
                    unc_w = 0.0
                    for unc in uncores:
                        unc_w += unc.power_w(svc.traffic_util)
                    starts.append(tick)
                    rows.append((
                        demand, mem_intensity, cpu_util, svc.delivered_gbps, svc.stretch,
                        svc.served_fraction, unc_w, gpu_power, gpu_clock, eff_unc,
                        target_unc, float(moving),
                    ))
                if execution is not None:
                    execution.advance(dt_s / svc.stretch)
                    progress.append(execution.progress)
                    if execution.done:
                        ticks = tick + 1
                        break
        except PowerModelError as exc:
            raise PowerModelError(f"node tick {self._ticks + tick}: {exc}") from exc

        starts.append(ticks)
        columns = np.repeat(np.array(rows).T, np.diff(starts), axis=1)
        (demand, mem_intensity, cpu_util, delivered, stretch, served,
         uncore_w, gpu_w, sm_clock, eff, target, moving_col) = columns
        progress_col = np.array(progress) if execution is not None else np.zeros(ticks)

        # IPC stall factor. In GPU-dominant phases most of the memory-bound
        # critical path is DMA/staging traffic, not CPU load-stalls, so CPU
        # IPC reflects only a weakly coupled share of unmet demand. This
        # asymmetry is why an IPC-guarded policy (UPS) misjudges GPU
        # workloads while throughput-guided MAGUS does not (§2 challenge 2).
        stall_factor = 1.0 - self.cpu_mem_coupling * mem_intensity * (1.0 - served)
        unc_ratio = eff / self.uncore_max_ghz

        core_w = np.zeros(ticks)
        ipc_sum = np.zeros(ticks)
        freq_sum = np.zeros(ticks)
        for cpu, _ in self.sockets:
            cpu.step(cpu_util, stall_factor, unc_ratio)
            core_w += cpu.block_power_w()
            ipc_sum += cpu.block_mean_ipc()
            freq_sum += cpu.block_mean_core_freq_ghz()

        dram_w = memory.dram_power_w(delivered)
        monitor_w = np.full(ticks, self.monitor_power_w)
        domains = (core_w, uncore_w, dram_w, gpu_w, monitor_w)
        for name, column in zip(_POWER_DOMAINS, domains):
            negative = np.flatnonzero(column < 0)
            if negative.size:
                i = int(negative[0])
                raise PowerModelError(
                    f"{name} must be non-negative, got {float(column[i])!r} "
                    f"at node tick {self._ticks + i}"
                )
        package_w = core_w + uncore_w + monitor_w
        cpu_w = package_w + dram_w

        time_s = running_sum(self._time_s, np.full(ticks, dt_s))
        self._time_s = float(time_s[-1])
        self._ticks += ticks
        block = NodeBlock(
            time_s=time_s,
            demand_gbps=demand,
            delivered_gbps=delivered,
            stretch=stretch,
            uncore_target_ghz=target,
            uncore_effective_ghz=eff,
            core_w=core_w,
            uncore_w=uncore_w,
            dram_w=dram_w,
            gpu_w=gpu_w,
            monitor_w=monitor_w,
            package_w=package_w,
            cpu_w=cpu_w,
            total_w=cpu_w + gpu_w,
            mean_ipc=ipc_sum / n_sockets,
            mean_core_freq_ghz=freq_sum / n_sockets,
            gpu_sm_clock_ghz=sm_clock,
            served_fraction=served,
            progress=progress_col,
            in_transition=moving_col != 0.0,
        )
        state = NodeTickState(
            time_s=self._time_s,
            demand_gbps=float(demand[-1]),
            delivered_gbps=float(delivered[-1]),
            stretch=float(stretch[-1]),
            power=PowerBreakdown(
                core_w=float(core_w[-1]),
                uncore_w=float(uncore_w[-1]),
                dram_w=float(dram_w[-1]),
                gpu_w=float(gpu_w[-1]),
                monitor_w=self.monitor_power_w,
            ),
            uncore_target_ghz=float(target[-1]),
            uncore_effective_ghz=float(eff[-1]),
            mean_ipc=float(block.mean_ipc[-1]),
            mean_core_freq_ghz=float(block.mean_core_freq_ghz[-1]),
            gpu_sm_clock_ghz=float(sm_clock[-1]),
            served_fraction=float(served[-1]),
        )
        self._last_block = block
        self._last_state = state
        return state

    @property
    def last_block(self) -> Optional[NodeBlock]:
        """Every tick of the most recent :meth:`step` (``None`` before it)."""
        return self._last_block

    @property
    def last_state(self) -> Optional[NodeTickState]:
        """The most recent tick state (``None`` before the first step)."""
        return self._last_state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeterogeneousNode({self.name!r}, sockets={len(self.sockets)}, "
            f"cores={self.n_cores}, gpus={len(self.gpus)})"
        )
