"""One node step over a block of ticks equals that many one-tick steps, bit for bit.

The engine advances the node, its telemetry and the trace one event-free
block at a time.  These tests pin the pieces that make that exact: the
block step against tick-by-tick steps (node columns, per-core arrays, MSR
counters and float accumulators), the active-core IPC mean over a partly
active row, the per-tick checks inside a block, and the next-event queries
that end blocks (runtime firing ticks, fault events).
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import FaultInjectionError, PowerModelError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.cpu import CPUCoreModel
from repro.hw.presets import intel_a100
from repro.sim.clock import SimClock, running_sum
from repro.sim.engine import MAX_BLOCK_TICKS, SimulationEngine
from repro.sim.observers import BaseTickObserver, RuntimeObserver, standard_observers
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.telemetry.hub import TelemetryHub
from repro.workloads.base import Segment, Workload

DT_S = 0.01

#: Segments short enough that a block crosses several boundaries, with a
#: near-idle phase that leaves only some cores active.
PHASES = Workload(
    "phases",
    (
        Segment(0.035, 4.0, mem_intensity=0.3, cpu_util=0.4, gpu_util=0.5),
        Segment(0.05, 30.0, mem_intensity=0.8, cpu_util=0.002, gpu_util=0.7),
        Segment(0.02, 12.0, mem_intensity=0.5, cpu_util=0.9, gpu_util=0.2),
        Segment(0.2, 25.0, mem_intensity=0.6, cpu_util=0.3, gpu_util=0.9),
    ),
)


def _rig():
    preset = intel_a100()
    node = preset.build_node(RngStreams(7))
    node.force_uncore_all(preset.uncore_min_ghz)
    node.set_uncore_target_all(2.2)  # the first ticks slew
    return node, TelemetryHub(node, preset.telemetry)


def _columns(block):
    return {f.name: getattr(block, f.name) for f in dataclasses.fields(block)}


class TestBlockEqualsTicks:
    def _run(self, block_ticks):
        node, hub = _rig()
        execution = PHASES.execution()
        columns, counters = [], []
        while not execution.done:
            node.step(DT_S, execution, block_ticks)
            hub.on_tick(DT_S)
            columns.append(_columns(node.last_block))
            counters.append(hub.msr.block_counters())
        merged = {name: np.concatenate([c[name] for c in columns]) for name in columns[0]}
        instructions = np.concatenate([c[0] for c in counters])
        cycles = np.concatenate([c[1] for c in counters])
        return node, hub, merged, instructions, cycles

    def test_block_step_reproduces_tick_steps(self):
        ticked = self._run(1)
        blocked = self._run(MAX_BLOCK_TICKS)
        node_t, hub_t, cols_t, ins_t, cyc_t = ticked
        node_b, hub_b, cols_b, ins_b, cyc_b = blocked
        assert cols_t.keys() == cols_b.keys()
        for name in cols_t:
            assert np.array_equal(cols_t[name], cols_b[name]), name
        assert np.array_equal(ins_t, ins_b) and np.array_equal(cyc_t, cyc_b)
        assert node_t.last_state == node_b.last_state
        for (cpu_t, _), (cpu_b, _) in zip(node_t.sockets, node_b.sockets):
            assert np.array_equal(cpu_t.core_freqs_ghz, cpu_b.core_freqs_ghz)
            assert np.array_equal(cpu_t.core_ipc, cpu_b.core_ipc)
        assert hub_t.rapl.energy_j("package") == hub_b.rapl.energy_j("package")
        assert hub_t.nvml.energy_j() == hub_b.nvml.energy_j()
        assert hub_t.pcm.read_throughput_mbps() == hub_b.pcm.read_throughput_mbps()
        assert hub_t.backend.settling_ticks == hub_b.backend.settling_ticks > 0

    def test_block_stops_on_the_completing_tick(self):
        node, _ = _rig()
        execution = PHASES.execution()
        node.step(DT_S, execution, MAX_BLOCK_TICKS)
        assert execution.done
        assert node.last_block.n_ticks < MAX_BLOCK_TICKS
        assert node.last_block.progress[-1] == 1.0


class TestActiveCoreMean:
    def test_partly_active_row_reduces_the_active_subset(self):
        cpu = CPUCoreModel(40, rng=np.random.default_rng(3))
        cpu.step(np.array([0.0, 0.002, 0.5]), np.ones(3), np.ones(3))
        active = cpu.block_ipc > 0
        k = active.sum(axis=1)
        assert k[0] == 0 and 0 < k[1] < 40 and k[2] == 40
        means = cpu.block_mean_ipc()
        assert means[0] == 0.0
        for t in (1, 2):
            row = cpu.block_ipc[t]
            assert means[t] == np.add.reduce(row[row > 0]) / k[t]

    def test_socket_util_check_names_the_tick(self):
        cpu = CPUCoreModel(4)
        with pytest.raises(PowerModelError, match="at tick 2"):
            cpu.step(np.array([0.1, 0.2, 1.5]), np.ones(3), np.ones(3))


class TestPerTickChecks:
    def test_negative_power_names_the_node_tick(self, a100_node):
        a100_node.step(DT_S, None, 3)
        a100_node.monitor_power_w = -1.0
        with pytest.raises(PowerModelError, match="monitor_w .* at node tick 3"):
            a100_node.step(DT_S, None, 4)

    def test_block_timestamps_must_rise(self):
        rec = TraceRecorder(["a", "b"])
        rec.record_row(np.array([0.1, 0.2]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert list(rec.series("b").values) == [2.0, 4.0]
        with pytest.raises(SimulationError, match="at tick 3"):
            rec.record_row(np.array([0.3, 0.3]), np.zeros((2, 2)))

    def test_running_sum_adds_left_to_right(self):
        steps = np.full(50, 0.1)
        total = 3.0
        expected = []
        for step in steps:
            total += step
            expected.append(total)
        assert running_sum(3.0, steps).tolist() == expected


class _Every:
    """A runtime firing every ``period_s`` from ``first_s``."""

    def __init__(self, first_s, period_s):
        self.next_s = first_s
        self.period_s = period_s
        self.fired = []

    def start(self, now_s):
        pass

    def next_fire_s(self):
        return self.next_s

    def invoke(self, now_s):
        self.fired.append(now_s)
        self.next_s = now_s + self.period_s


class _BlockSizes(BaseTickObserver):
    def __init__(self):
        self.sizes = []

    def on_tick(self, block, execution):
        self.sizes.append(block.n_ticks)


class TestNextEventQueries:
    def test_blocks_end_on_firing_ticks(self, a100_node, a100_hub):
        rt = _Every(0.2, 0.3)
        sizes = _BlockSizes()
        observers = standard_observers(a100_node, a100_hub, [rt], extra=[sizes])
        SimulationEngine(a100_node, observers, SimClock(DT_S)).run(None, max_time_s=1.5)
        ends = np.cumsum(sizes.sizes)
        # Fires at the first tick end >= 0.2, 0.5, 0.8, ... ; each is a block end.
        for due in rt.fired:
            assert round(due / DT_S) in ends
        assert max(sizes.sizes) <= MAX_BLOCK_TICKS
        assert ends[-1] == 150

    def test_runtime_query_matches_the_due_test(self):
        clock = SimClock(DT_S)
        obs = RuntimeObserver([_Every(0.07, 1.0)])

        class _Engine:
            pass

        engine = _Engine()
        engine.clock = clock
        obs.on_start(engine)
        assert obs.next_event_tick(0, 63) == 6  # (6 + 1) * 0.01 >= 0.07
        assert obs.next_event_tick(0, 3) == 3

    def test_injector_blocks_start_on_fault_events(self):
        plan = FaultPlan(
            (
                FaultSpec("msr", "wrap", 0.105, 0.0, count=1),
                FaultSpec("pcm", "freeze", 0.2, 0.15, count=1),
            )
        )
        injector = FaultInjector(plan)
        _, hub = _rig()
        hub.install_fault_injector(injector)
        assert injector.block_ticks(DT_S, 64) == 10  # the wrap falls due on tick 10
        injector.on_tick(DT_S, 10)
        # The wrap now falls on the next block's first tick; the freeze
        # window's opening ends that block.
        now, inside = injector.now_s, []
        for _ in range(64):
            now += DT_S
            inside.append(0.2 <= now < 0.35)
        opening = next(j for j in range(1, 64) if inside[j] != inside[j - 1])
        assert injector.block_ticks(DT_S, 64) == opening
        with pytest.raises(FaultInjectionError, match="events must start a block"):
            injector.on_tick(DT_S, opening + 1)
