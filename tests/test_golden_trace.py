"""Golden-trace equivalence: the observer engine vs the pre-refactor loop.

``tests/data/golden_trace_{magus,ups}.npz`` pin the exact per-tick channel
arrays produced by the pre-observer monolithic tick loop for one seeded
MAGUS run and one seeded UPS run (see ``tests/data/gen_golden_trace.py``).
The decomposed engine — physics core + telemetry/trace/runtime observers +
columnar ``record_row`` path — must reproduce every sample bit-for-bit:
``==``, not ``approx``.
"""

import importlib.util
import os

import numpy as np
import pytest

_GEN_PATH = os.path.join(os.path.dirname(__file__), "data", "gen_golden_trace.py")
_spec = importlib.util.spec_from_file_location("gen_golden_trace", _GEN_PATH)
gen_golden_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_golden_trace)


def first_divergence(golden, result):
    """``(tick, channel, expected, got)`` of the earliest mismatch, or None.

    Scans every golden channel and reports the lowest diverging tick (ties
    broken by channel order); a length mismatch diverges at the first tick
    past the shorter array, with ``None`` standing in for the missing value.
    """
    first = None
    for channel in gen_golden_trace.GOLDEN_CHANNELS:
        expected = golden[channel]
        got = result.recorder.series(channel).values
        n = min(len(expected), len(got))
        diff = np.flatnonzero(expected[:n] != got[:n])
        if len(diff):
            tick = int(diff[0])
        elif len(expected) != len(got):
            tick = n
        else:
            continue
        if first is None or tick < first[0]:
            exp = float(expected[tick]) if tick < len(expected) else None
            val = float(got[tick]) if tick < len(got) else None
            first = (tick, channel, exp, val)
    return first


def assert_channels_match(golden, result):
    divergence = first_divergence(golden, result)
    assert divergence is None, "first divergence (tick, channel, expected, got): %r" % (divergence,)


@pytest.fixture(scope="module", params=["magus", "ups"])
def golden_pair(request):
    """(pinned arrays, fresh run) for one governor."""
    governor_name = request.param
    path = os.path.join(
        os.path.dirname(__file__), "data", f"golden_trace_{governor_name}.npz"
    )
    golden = np.load(path)
    result = gen_golden_trace.golden_run(governor_name)
    return golden, result


class TestGoldenEquivalence:
    def test_tick_count_matches(self, golden_pair):
        golden, result = golden_pair
        assert len(result.recorder) == len(golden["time_s"])

    def test_timestamps_bit_identical(self, golden_pair):
        golden, result = golden_pair
        times = result.recorder.series(gen_golden_trace.GOLDEN_CHANNELS[0]).times
        assert np.array_equal(golden["time_s"], times)

    def test_every_channel_bit_identical(self, golden_pair):
        golden, result = golden_pair
        assert_channels_match(golden, result)

    def test_divergence_report_names_first_tick_and_channel(self, golden_pair):
        golden, result = golden_pair
        perturbed = {c: np.array(golden[c]) for c in gen_golden_trace.GOLDEN_CHANNELS}
        perturbed["pkg_w"][123] += 1.0
        perturbed["core_w"][400] += 1.0
        expected = float(perturbed["pkg_w"][123])
        got = float(result.recorder.series("pkg_w").values[123])
        assert first_divergence(perturbed, result) == (123, "pkg_w", expected, got)
        truncated = {c: np.array(golden[c])[:-1] for c in gen_golden_trace.GOLDEN_CHANNELS}
        tick = len(result.recorder) - 1
        first_channel = gen_golden_trace.GOLDEN_CHANNELS[0]
        assert first_divergence(truncated, result)[:3] == (tick, first_channel, None)

    def test_golden_schema_is_subset_of_engine_schema(self, golden_pair):
        # The observer engine records a superset (topology-derived per-core
        # channels beyond the old fixed core0..core3), never a subset.
        _, result = golden_pair
        assert set(gen_golden_trace.GOLDEN_CHANNELS) <= set(result.recorder.channels)


def _instrumented_golden_run(governor_name: str, *, supervised: bool, obs: bool = False):
    """``golden_run``, returning the daemon (and supervisor) handles too."""
    from repro.hw.presets import intel_a100
    from repro.obs import Observability, ObsConfig
    from repro.runtime.daemon import MonitorDaemon
    from repro.runtime.session import make_governor
    from repro.runtime.supervisor import SupervisedDaemon
    from repro.sim.clock import SimClock
    from repro.sim.engine import SimulationEngine
    from repro.sim.observers import standard_observers
    from repro.sim.rng import RngStreams
    from repro.telemetry.hub import TelemetryHub
    from repro.workloads.registry import get_workload

    preset = intel_a100()
    node = preset.build_node(RngStreams(gen_golden_trace.SEED))
    node.force_uncore_all(preset.uncore_min_ghz)
    hub = TelemetryHub(node, preset.telemetry, vendor=preset.vendor)
    obs_ctx = Observability.from_config(ObsConfig(enabled=True)) if obs else None
    if obs_ctx is not None and obs_ctx.registry is not None:
        hub.attach_metrics(obs_ctx.registry)
    daemon = MonitorDaemon(make_governor(governor_name), hub, node, obs=obs_ctx)
    supervisor = SupervisedDaemon(daemon) if supervised else None
    runtime = supervisor if supervised else daemon
    observers = standard_observers(node, hub, [runtime], extra=tuple(runtime.observers))
    engine = SimulationEngine(
        node, observers=observers, clock=SimClock(gen_golden_trace.DT_S)
    )
    workload = get_workload(gen_golden_trace.WORKLOAD, seed=gen_golden_trace.SEED)
    result = engine.run(workload, max_time_s=gen_golden_trace.MAX_TIME_S)
    return result, daemon, supervisor


class TestObservabilityIsPassThrough:
    """Tracing + metrics with ``ObsConfig(enabled=True)`` must not perturb
    a single sample: the obs layer is purely observational (a policy never
    branches on it), so golden traces stay bit-identical and the daemon's
    energy/invocation books match an uninstrumented run exactly.
    """

    @pytest.fixture(scope="class", params=["magus", "ups"])
    def observed_pair(self, request):
        golden_path = os.path.join(
            os.path.dirname(__file__), "data", f"golden_trace_{request.param}.npz"
        )
        golden = np.load(golden_path)
        observed = _instrumented_golden_run(request.param, supervised=False, obs=True)
        plain = _instrumented_golden_run(request.param, supervised=False, obs=False)
        return golden, observed, plain

    def test_traces_bit_identical_to_golden(self, observed_pair):
        golden, (result, _daemon, _sup), _plain = observed_pair
        assert_channels_match(golden, result)

    def test_accounting_identical_to_uninstrumented(self, observed_pair):
        _golden, (_r, daemon, _sup), (_rp, plain_daemon, _) = observed_pair
        assert daemon.invocation_times_s == plain_daemon.invocation_times_s
        assert daemon.monitor_energy_j == plain_daemon.monitor_energy_j
        assert daemon.decisions == plain_daemon.decisions

    def test_spans_and_metrics_were_actually_recorded(self, observed_pair):
        _golden, (_r, daemon, _sup), _plain = observed_pair
        tracer = daemon.obs.tracer
        cycles = tracer.named("daemon.cycle")
        assert len(cycles) == len(daemon.decisions)
        # Every closed cycle carries the decision attribution attrs.
        assert all("reason" in s.attrs and "energy_j" in s.attrs for s in cycles)
        registry = daemon.obs.registry
        assert registry.counter("repro.daemon.cycles").value == float(len(cycles))

    def test_disabled_context_records_nothing(self, observed_pair):
        _golden, _observed, (_rp, plain_daemon, _) = observed_pair
        assert not plain_daemon.obs.enabled
        assert plain_daemon.obs.tracer is None
        assert plain_daemon.obs.registry is None


class TestSupervisionIsPassThrough:
    """Supervision with zero faults must not perturb a single sample.

    The fault-free path of :class:`SupervisedDaemon` is a strict
    pass-through: golden traces stay bit-identical, and invocation times /
    monitoring energy match the unsupervised daemon exactly — the paper's
    overhead numbers are supervision-invariant.
    """

    @pytest.fixture(scope="class", params=["magus", "ups"])
    def supervised_pair(self, request):
        golden_path = os.path.join(
            os.path.dirname(__file__), "data", f"golden_trace_{request.param}.npz"
        )
        golden = np.load(golden_path)
        supervised = _instrumented_golden_run(request.param, supervised=True)
        plain = _instrumented_golden_run(request.param, supervised=False)
        return golden, supervised, plain

    def test_traces_bit_identical_to_golden(self, supervised_pair):
        golden, (result, _daemon, _sup), _plain = supervised_pair
        assert_channels_match(golden, result)

    def test_accounting_identical_to_unsupervised(self, supervised_pair):
        _golden, (_r, daemon, _sup), (_rp, plain_daemon, _) = supervised_pair
        assert daemon.invocation_times_s == plain_daemon.invocation_times_s
        assert daemon.monitor_energy_j == plain_daemon.monitor_energy_j
        assert daemon.decisions == plain_daemon.decisions

    def test_no_incidents_and_never_degraded(self, supervised_pair):
        _golden, (result, _daemon, supervisor), _plain = supervised_pair
        assert len(supervisor.log) == 0
        assert not supervisor.degraded
        assert supervisor.failsafe_count == 0
        assert supervisor.missed_deadlines == 0
        # The degraded channel exists and is identically zero.
        degraded = result.recorder.series("supervisor_degraded").values
        assert degraded.max() == 0.0
