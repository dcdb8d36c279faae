"""Whole-run invariants over random (preset, workload, governor, seed) draws.

Each example is one short fault-free ``run_application`` with a probe
observer that watches the telemetry hub tick by tick (the engine advances
blocks of ticks; the probe reads every tick's counters out of each block):

* the RAPL PKG/DRAM energy counters equal the integral of the recorded
  ``pkg_w``/``dram_w`` traces (the two sums run in different orders, hence
  the 1e-9 relative tolerance);
* workload progress is monotone and ends at exactly 1.0 when the run
  completes;
* the per-core MSR fixed counters never move backwards modulo 2^48, even
  when parked just below the wrap before the first tick.

A second property runs fault campaigns (standard or silent, guard on) over
random (preset, seed) draws: every incident's fault id resolves — each id
a response names was issued by the injector, and every fault that raised
got a response.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import silent_campaign, standard_campaign
from repro.hw.presets import PRESETS
from repro.runtime.session import make_governor, run_application
from repro.sim.observers import BaseTickObserver, TelemetryObserver
from repro.telemetry.msr import COUNTER_WIDTH_BITS, counter_delta_array
from repro.telemetry.rapl import RAPL_DRAM, RAPL_PKG
from repro.workloads.registry import get_workload, workload_names

NOMINAL_S = 2.5
DT_S = 0.01
#: A modular delta at or past half the counter range is a backwards step.
HALF_RANGE = 1 << (COUNTER_WIDTH_BITS - 1)


class HubProbe(BaseTickObserver):
    """Finds the run's telemetry hub and snapshots the MSR counters of every tick."""

    def __init__(self, park: int) -> None:
        self.park = park
        self.hub = None
        self.counters = []

    def on_start(self, engine):
        self.hub = next(o.hub for o in engine.observers if isinstance(o, TelemetryObserver))
        # One uniform shift before the first tick parks the counters; it is
        # not a jump inside the observed window.
        self.hub.msr.jump_counters(self.park)
        self.counters.append(self.hub.msr.read_all_core_counters())

    def on_tick(self, block, execution):
        instructions, cycles = self.hub.msr.block_counters()
        assert len(instructions) == len(cycles) == block.n_ticks
        self.counters.extend(zip(instructions, cycles))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    app=st.sampled_from(workload_names()),
    governor=st.sampled_from(("default", "static_min", "ups", "magus")),
    seed=st.integers(0, 2**31 - 1),
    park=st.one_of(st.just(0), st.integers((1 << COUNTER_WIDTH_BITS) - 10**9, (1 << COUNTER_WIDTH_BITS) - 1)),
)
def test_whole_run_invariants(preset, app, governor, seed, park):
    workload = get_workload(app, seed=seed)
    workload = workload.scaled(NOMINAL_S / workload.nominal_duration_s)
    probe = HubProbe(park)
    result = run_application(
        preset, workload, make_governor(governor), seed=seed, dt_s=DT_S,
        per_core_channels=False, extra_observers=(probe,),
    )

    # RAPL energy is the integral of the recorded package/DRAM power.
    rapl = probe.hub.rapl
    for domain, channel in ((RAPL_PKG, "pkg_w"), (RAPL_DRAM, "dram_w")):
        traced_j = float(np.sum(result.traces[channel].values * DT_S))
        assert rapl.energy_j(domain) == pytest.approx(traced_j, rel=1e-9, abs=0.0)

    # Progress is monotone and exact at completion.
    progress = result.traces["progress"].values
    assert np.all(np.diff(progress) >= 0.0)
    assert 0.0 <= progress[0] and progress[-1] <= 1.0
    if result.completed:
        assert progress[-1] == 1.0

    # Fixed counters only move forward, modulo 2^48.
    assert len(probe.counters) == len(progress) + 1
    for (ins0, cyc0), (ins1, cyc1) in zip(probe.counters, probe.counters[1:]):
        assert (counter_delta_array(ins1, ins0) < HALF_RANGE).all()
        assert (counter_delta_array(cyc1, cyc0) < HALF_RANGE).all()


CAMPAIGNS = {"standard": standard_campaign, "silent": silent_campaign}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    app=st.sampled_from(workload_names()),
    campaign=st.sampled_from(sorted(CAMPAIGNS)),
    governor=st.sampled_from(("ups", "magus")),
    seed=st.integers(0, 2**31 - 1),
)
def test_every_incident_fault_id_resolves(preset, app, campaign, governor, seed):
    workload = get_workload(app, seed=seed)
    workload = workload.scaled(NOMINAL_S / workload.nominal_duration_s)
    result = run_application(
        preset, workload, make_governor(governor), seed=seed, dt_s=DT_S,
        per_core_channels=False,
        fault_plan=CAMPAIGNS[campaign](seed, horizon_s=NOMINAL_S), guard=True,
    )
    injected = {i.fault_id for i in result.incidents if i.source == "injector"}
    assert None not in injected and len(injected) == sum(
        1 for i in result.incidents if i.source == "injector"
    )
    responses = {
        i.fault_id for i in result.incidents if i.source != "injector" and i.fault_id is not None
    }
    assert responses <= injected
    raised = {
        i.fault_id for i in result.incidents if i.source == "injector" and i.outcome == "raised"
    }
    assert raised <= responses
