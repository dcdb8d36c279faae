"""Regenerate the behaviour fingerprint manifest (``fingerprints.json``).

Run from the repo root::

    PYTHONPATH=src python tests/data/gen_fingerprints.py

The manifest pins, for a matrix of short seeded runs, three layers of
SHA-256 digests (truncated to 16 hex digits):

* ``scalars`` — every scalar of the :class:`~repro.runtime.session.RunResult`
  plus its decisions, incidents and (for observed runs) the metrics
  registry and decision-cycle spans;
* ``channels`` — one digest per trace channel (``time_s`` included),
  over the channel's whole array;
* ``blocks`` — one row-wise digest per fixed :data:`BLOCK_TICKS`-tick block
  of the (ticks x channels) trace matrix, channels in sorted order.

``tests/test_fingerprints.py`` re-runs every cell and compares.  A
mismatch names the first diverging tick block and the diverging channels,
which is usually enough to find the change that moved them.

The matrix covers the four presets x six governors on one short scaled
workload from each preset's suite, an idle run, ``standard_campaign``
with the telemetry guard on an Intel and the AMD preset, and one run with
observability enabled.  Four cells pin paths the main matrix misses: the
``msr_fast`` and ``hsmp_mailbox`` switch-latency models (targets adopted
between decisions), ``silent_campaign`` plus a counter wrap under the
guard (freeze edges and the wrap land between decisions), and a sparse
synthetic workload whose sockets run with only some cores active (the
active-core IPC mean over a partial subset).  Three more cells pin the layers above a single
run: a plain :meth:`~repro.cluster.simulator.ClusterSimulator.run_fleet`
under a :class:`~repro.cluster.failures.NodeFailureModel`, a
:func:`~repro.coordinator.fleet.run_coordinated_fleet` under
``coordinated_campaign`` (its entry adds a ``journal`` digest over the
durable grant-journal lines), and a :func:`~repro.runtime.batch.run_batch`.
For these, ``scalars`` covers the layer's result fields and ``channels``/
``blocks`` cover its tick- or grid-aligned arrays.  Regenerate only
together with a CHANGES.md note that explains the behaviour change; a pure
speed-up must pass unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, NamedTuple, Optional

import numpy as np

from repro.cluster.failures import NodeFailureModel
from repro.cluster.job import ClusterJob
from repro.cluster.simulator import ClusterSimulator, FleetResult
from repro.coordinator.config import safe_floor_w
from repro.coordinator.fleet import ample_budget_w, run_coordinated_fleet
from repro.coordinator.journal import GrantJournal
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    coordinated_campaign,
    silent_campaign,
    standard_campaign,
)
from repro.obs.config import ObsConfig
from repro.obs.exporters import registry_to_dict
from repro.runtime.batch import run_batch
from repro.runtime.session import RunResult, make_governor, run_application
from repro.sim.trace import TimeSeries
from repro.workloads.base import Segment, Workload
from repro.workloads.registry import get_workload

MANIFEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")

SEED = 1
#: Ticks per row-wise block digest.
BLOCK_TICKS = 256
#: Nominal duration every cell's workload is scaled to (~800 ticks).
NOMINAL_S = 8.0
IDLE_S = 5.0
DIGEST_HEX = 16

#: One application from each preset's Fig. 4 suite.
PRESET_APPS = {
    "intel_a100": "srad",
    "intel_max1550": "kmeans",
    "intel_4a100": "resnet50",
    "amd_mi210": "gromacs",
}
GOVERNORS = ("default", "static_max", "static_min", "ups", "magus", "powercap")
GOVERNOR_OPTIONS = {"powercap": {"cap_w": 160.0}}

#: The silent cell's extra counter wrap: off the governor's decision grid.
SILENT_WRAP_S = 3.337
#: Name of the synthetic sparse-activity workload (not in the registry).
SPARSE_APP = "sparse"

#: Plain fleet: three capped jobs on three nodes; the failure model kills
#: two nodes mid-job, so one job requeues twice.
FLEET_JOBS = (
    ClusterJob("j0", "sort", 0.0, seed=1, max_time_s=6.0),
    ClusterJob("j1", "bfs", 2.0, seed=2, max_time_s=6.0),
    ClusterJob("j2", "srad", 4.0, seed=3, max_time_s=6.0),
)
FLEET_FAILURES = NodeFailureModel(
    mtbf_s=10.0, seed=SEED, restart_delay_s=1.0, lost_work_fraction=0.5
)
#: Coordinated fleet: staggered jobs over a ~20 s cluster horizon, a budget
#: below the ample one (so caps bind) and the full control-plane campaign.
COORDINATED_JOBS = (
    ClusterJob("j0", "sort", 0.0, seed=1, max_time_s=8.0),
    ClusterJob("j1", "bfs", 6.0, seed=2, max_time_s=8.0),
    ClusterJob("j2", "srad", 12.0, seed=3, max_time_s=8.0),
)
COORDINATED_HORIZON_S = 20.0
COORDINATED_BUDGET_FRACTION = 0.8
#: Batch: two scaled applications back to back under one daemon.
BATCH_APPS = ("sort", "bfs")
BATCH_APP_S = 4.0
BATCH_GAP_S = 1.0


class Cell(NamedTuple):
    """One run of the matrix."""

    preset: str
    app: Optional[str]  # None = idle
    governor: str
    faulted: bool = False
    obs: bool = False
    #: ``"run"`` (one ``run_application``), ``"fleet"``, ``"coordinated"``
    #: or ``"batch"``.
    layer: str = "run"
    #: Switch-latency preset for the control backend (``None``: instant).
    latency: Optional[str] = None
    #: Fault campaign of a faulted cell: ``"standard"`` or ``"silent"``.
    campaign: str = "standard"

    @property
    def key(self) -> str:
        if self.layer != "run":
            return f"{self.layer}/{self.preset}/{self.governor}"
        if self.faulted and self.campaign != "standard":
            tail = f"/{self.campaign}"
        elif self.latency is not None:
            tail = f"/{self.latency}"
        else:
            tail = "/faulted" if self.faulted else "/obs" if self.obs else ""
        return f"{self.preset}/{self.app or 'idle'}/{self.governor}{tail}"


def cells() -> List[Cell]:
    """The fingerprint matrix, in manifest order."""
    out = [Cell(p, a, g) for p, a in PRESET_APPS.items() for g in GOVERNORS]
    out.append(Cell("intel_a100", None, "magus"))
    out.append(Cell("intel_a100", "srad", "ups", faulted=True))
    out.append(Cell("amd_mi210", "gromacs", "magus", faulted=True))
    out.append(Cell("intel_4a100", "resnet50", "magus", obs=True))
    out.append(Cell("intel_a100", None, "magus", layer="fleet"))
    out.append(Cell("intel_a100", None, "ups", layer="coordinated"))
    out.append(Cell("intel_a100", None, "magus", layer="batch"))
    out.append(Cell("intel_a100", "srad", "magus", latency="msr_fast"))
    out.append(Cell("amd_mi210", "gromacs", "ups", latency="hsmp_mailbox"))
    out.append(Cell("intel_a100", "srad", "magus", faulted=True, campaign="silent"))
    out.append(Cell("intel_a100", SPARSE_APP, "ups"))
    return out


def sparse_workload() -> Workload:
    """Phases at 0.1-0.3 % CPU utilisation: only the hottest cores count as
    active, so the per-socket IPC mean runs over a strict, varying subset.
    Memory demand alternates so the governor still moves the uncore."""
    segments = []
    for i in range(16):
        segments.append(
            Segment(
                duration_s=0.5,
                mem_bw_gbps=(6.0, 22.0, 14.0, 30.0)[i % 4],
                mem_intensity=0.6,
                cpu_util=(0.001, 0.002, 0.003)[i % 3],
                gpu_util=0.4,
                name=f"sparse{i}",
            )
        )
    return Workload(SPARSE_APP, tuple(segments), "sparse-activity synthetic phases")


def fault_plan(cell: Cell) -> Optional[FaultPlan]:
    """The fault campaign of ``cell`` (``None`` when it is fault-free)."""
    if not cell.faulted:
        return None
    if cell.campaign == "silent":
        plan = silent_campaign(SEED, horizon_s=NOMINAL_S)
        wrap = FaultSpec("msr", "wrap", SILENT_WRAP_S, 0.0, count=1)
        return FaultPlan((*plan.specs, wrap), seed=SEED, name="silent+wrap")
    return standard_campaign(SEED, horizon_s=NOMINAL_S)


def run_cell(cell: Cell) -> RunResult:
    """Run one cell exactly as the manifest was generated."""
    governor = make_governor(cell.governor, **GOVERNOR_OPTIONS.get(cell.governor, {}))
    if cell.app is None:
        return run_application(cell.preset, None, governor, seed=SEED, max_time_s=IDLE_S)
    if cell.app == SPARSE_APP:
        workload = sparse_workload()
    else:
        workload = get_workload(cell.app, seed=SEED)
        workload = workload.scaled(NOMINAL_S / workload.nominal_duration_s)
    return run_application(
        cell.preset,
        workload,
        governor,
        seed=SEED,
        fault_plan=fault_plan(cell),
        guard=True if cell.faulted else None,
        obs=ObsConfig(enabled=True) if cell.obs else None,
        actuation_latency=cell.latency,
    )


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:DIGEST_HEX]


def _canon(obj: Any) -> bytes:
    """Canonical JSON bytes; floats keep every bit through ``repr``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr).encode()


def scalar_payload(result: RunResult) -> Dict[str, Any]:
    """Everything of a result except its traces, as plain JSON data."""
    payload: Dict[str, Any] = {}
    for name, value in vars(result).items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            payload[name] = value
        elif name.startswith("guard_") and isinstance(value, dict):
            payload[name] = dict(sorted(value.items()))
    payload["decisions"] = [dataclasses.asdict(d) for d in result.decisions]
    payload["incidents"] = [dataclasses.asdict(i) for i in result.incidents]
    if result.metrics is not None:
        payload["metrics"] = registry_to_dict(result.metrics)
    payload["spans"] = [dataclasses.asdict(s) for s in result.spans]
    return payload


def trace_matrix(traces: Dict[str, TimeSeries]) -> Dict[str, np.ndarray]:
    """``time_s`` plus every channel's values, keyed by channel name."""
    columns = {"time_s": next(iter(traces.values())).times}
    for name, series in traces.items():
        columns[name] = series.values
    return columns


def entry(payload: Dict[str, Any], columns: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """The manifest entry over a scalar payload and equal-length columns."""
    names = sorted(columns)
    rows = np.column_stack([np.asarray(columns[n], dtype=np.float64) for n in names])
    ticks = rows.shape[0]
    return {
        "ticks": ticks,
        "scalars": _digest(_canon(payload)),
        "channels": {n: _digest(np.ascontiguousarray(columns[n]).tobytes()) for n in names},
        "blocks": [
            _digest(np.ascontiguousarray(rows[b : b + BLOCK_TICKS]).tobytes())
            for b in range(0, ticks, BLOCK_TICKS)
        ],
    }


def fingerprint(result: RunResult) -> Dict[str, Any]:
    """The manifest entry of one run."""
    return entry(scalar_payload(result), trace_matrix(result.traces))


def fleet_payload(fleet: FleetResult) -> Dict[str, Any]:
    """Placements, failures, executions and every job outcome of a fleet."""
    return {
        "summary": fleet.summary_dict(),
        "idle_node_power_w": fleet.idle_node_power_w,
        "placements": {n: dataclasses.asdict(p) for n, p in fleet.placements.items()},
        "failures": [dataclasses.asdict(e) for e in fleet.failures],
        "executions": {
            n: [dataclasses.asdict(seg) for seg in segs] for n, segs in fleet.executions.items()
        },
        "outcomes": [
            {
                "job": dataclasses.asdict(o.job),
                "runtime_s": o.runtime_s,
                "completed": o.completed,
                "total_energy_j": o.total_energy_j,
                "power_times_s": o.power_times_s.tolist(),
                "power_values_w": o.power_values_w.tolist(),
            }
            for o in fleet.outcomes
        ],
    }


def fleet_cell(cell: Cell) -> Dict[str, Any]:
    """Plain fleet with node failures: the aggregate grid is the trace."""
    fleet = ClusterSimulator(cell.preset, FLEET_JOBS).run_fleet(
        cell.governor, n_workers=1, failure_model=FLEET_FAILURES
    )
    columns = {"time_s": fleet.grid_times_s, "aggregate_power_w": fleet.aggregate_power_w}
    return entry(fleet_payload(fleet), columns)


def coordinated_cell(cell: Cell) -> Dict[str, Any]:
    """Coordinated fleet under control-plane chaos, plus its grant journal."""
    sim = ClusterSimulator(cell.preset, COORDINATED_JOBS)
    demand = sim.run_fleet(cell.governor, n_workers=1)
    floor = safe_floor_w(demand.idle_node_power_w)
    budget = COORDINATED_BUDGET_FRACTION * ample_budget_w(demand, sim.n_nodes, floor)
    plan = coordinated_campaign(SEED, horizon_s=COORDINATED_HORIZON_S, n_nodes=sim.n_nodes)
    with tempfile.TemporaryDirectory() as tmp:
        journal = GrantJournal(os.path.join(tmp, "grants.jsonl"))
        result = run_coordinated_fleet(
            sim, cell.governor, budget_w=budget, plan=plan, journal=journal,
            demand_fleet=demand,
        )
        journal.close()
        with open(journal.path, "rb") as fh:
            journal_lines = fh.read().splitlines()
    payload = {
        "result": result.to_dict(),
        "partition_downlinks": result.partition_downlinks,
        "incidents": [dataclasses.asdict(i) for i in result.incidents],
        "fleet": fleet_payload(result.fleet),
    }
    columns: Dict[str, np.ndarray] = {
        "time_s": result.tick_times_s,
        "granted_sum_w": result.granted_sum_w,
    }
    for node in range(result.n_nodes):
        columns[f"node{node}_demand_w"] = result.node_demand_w[node]
        columns[f"node{node}_cap_w"] = result.node_cap_w[node]
        columns[f"node{node}_delivered_w"] = result.node_delivered_w[node]
    out = entry(payload, columns)
    out["journal"] = _digest(*journal_lines)
    return out


def batch_cell(cell: Cell) -> Dict[str, Any]:
    """Back-to-back scaled applications under one persistent daemon."""
    apps = []
    for name in BATCH_APPS:
        workload = get_workload(name, seed=SEED)
        apps.append(workload.scaled(BATCH_APP_S / workload.nominal_duration_s))
    batch = run_batch(
        cell.preset, apps, make_governor(cell.governor), gap_s=BATCH_GAP_S, seed=SEED
    )
    payload = {
        "system_name": batch.system_name,
        "governor_name": batch.governor_name,
        "total_runtime_s": batch.total_runtime_s,
        "total_energy_j": batch.total_energy_j,
        "windows": [dataclasses.asdict(w) for w in batch.windows],
        "decisions": [dataclasses.asdict(d) for d in batch.decisions],
    }
    return entry(payload, trace_matrix(batch.traces))


def fingerprint_cell(cell: Cell) -> Dict[str, Any]:
    """Run one cell and return its manifest entry."""
    if cell.layer == "fleet":
        return fleet_cell(cell)
    if cell.layer == "coordinated":
        return coordinated_cell(cell)
    if cell.layer == "batch":
        return batch_cell(cell)
    return fingerprint(run_cell(cell))


def diff(expected: Dict[str, Any], got: Dict[str, Any]) -> Optional[str]:
    """One-line description of how ``got`` diverges, or ``None`` if equal."""
    if expected == got:
        return None
    parts = []
    blocks = [
        i
        for i in range(max(len(expected["blocks"]), len(got["blocks"])))
        if i >= len(expected["blocks"])
        or i >= len(got["blocks"])
        or expected["blocks"][i] != got["blocks"][i]
    ]
    if blocks:
        first = blocks[0]
        parts.append(
            f"first diverging block {first} (ticks {first * BLOCK_TICKS}-"
            f"{(first + 1) * BLOCK_TICKS - 1})"
        )
    if expected["ticks"] != got["ticks"]:
        parts.append(f"ticks {expected['ticks']} -> {got['ticks']}")
    names = sorted(set(expected["channels"]) | set(got["channels"]))
    channels = [n for n in names if expected["channels"].get(n) != got["channels"].get(n)]
    if channels:
        parts.append("channels " + ", ".join(channels))
    if expected["scalars"] != got["scalars"]:
        parts.append("run scalars differ")
    if expected.get("journal") != got.get("journal"):
        parts.append("grant journal differs")
    return "; ".join(parts)


def main() -> None:
    manifest = {
        "seed": SEED,
        "block_ticks": BLOCK_TICKS,
        "cells": {cell.key: fingerprint_cell(cell) for cell in cells()},
    }
    with open(MANIFEST_PATH, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MANIFEST_PATH}: {len(manifest['cells'])} cells")


if __name__ == "__main__":
    main()
