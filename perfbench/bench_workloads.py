"""The three benchmark workloads and the digests that pin their outputs.

Each workload turns ``--seed`` into a fixed list of operations (keys), sets
itself up once, and then runs operations by key.  An operation reduces its
simulated output to a SHA-256 digest; the same key run twice must give the
same digest, and at the default seed it must match the reference file
(see ``run.py``).

* ``sweep`` — Fig. 4-style paired sweep: ``run_application`` in-process
  over four presets, one application from each preset's suite, x {default,
  magus, ups}, with full per-core channels.  A quarter of the cells run
  MAGUS or UPS under ``standard_campaign`` with the telemetry guard on.
  One op = one run.
* ``fleet`` — ``ClusterSimulator.run_fleet`` on a mixed-suite schedule of
  eight jobs on five nodes (FIFO queueing) through an ``nproc``-wide pool,
  alternating an ``obs=True, tsdb=True`` leg with a ``NodeFailureModel``
  leg.  One op = one ``run_fleet``.
* ``coordinate`` — a 32-node demand pass in set-up, then one op per
  ``run_coordinated_fleet(demand_fleet=...)`` scenario under
  ``coordinated_campaign`` chaos with a file-backed ``GrantJournal``,
  ``tsdb=True`` and ``default_fleet_rules``, cycling over budget fractions.

The size ``tiny`` shrinks every workload to seconds for the self-tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.failures import NodeFailureModel
from repro.cluster.job import ClusterJob
from repro.cluster.simulator import ClusterSimulator, FleetResult
from repro.coordinator.config import safe_floor_w
from repro.coordinator.fleet import ample_budget_w
from repro.coordinator.journal import GrantJournal
from repro.experiments.coordination import coordination_row_dict, score_coordination
from repro.faults.plan import coordinated_campaign, standard_campaign
from repro.obs.scrape import default_fleet_rules
from repro.runtime.session import RunResult, make_governor, run_application

import repro.coordinator.fleet as coordinator_fleet

SIZES = ("full", "tiny")


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class OpOutcome:
    """What one operation produced."""

    key: str
    digest: str
    #: Simulated node-seconds the op advanced.
    sim_node_s: float
    #: Empty when the op succeeded; otherwise why it counts as failed.
    error: str = ""
    #: Per-op facts the summary and the per-layer counters draw on.
    info: Dict[str, Any] = field(default_factory=dict)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _canon(obj: Any) -> bytes:
    """Canonical JSON bytes; floats keep every bit through ``repr``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr).encode()


def run_result_digest(result: RunResult) -> str:
    """SHA-256 of a run's scalars plus every trace channel's bytes."""
    scalars = {}
    for name, value in vars(result).items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            scalars[name] = value
        elif name.startswith("guard_") and isinstance(value, dict):
            scalars[name] = dict(sorted(value.items()))
    scalars["n_decisions"] = len(result.decisions)
    scalars["n_incidents"] = len(result.incidents)
    parts = [_canon(scalars)]
    for channel in sorted(result.traces):
        series = result.traces[channel]
        parts += [channel.encode(), series.times.tobytes(), series.values.tobytes()]
    return _sha(*parts)


def fleet_digest(fleet: FleetResult) -> str:
    """SHA-256 of a fleet's summary plus its aggregate power trace."""
    return _sha(
        _canon(fleet.summary_dict()),
        np.ascontiguousarray(fleet.grid_times_s).tobytes(),
        np.ascontiguousarray(fleet.aggregate_power_w).tobytes(),
    )


class Workload:
    """Seeded inputs, a one-off set-up, and operations run by key."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.workers = nproc()

    def keys(self) -> List[str]:
        """Every op key, in the order ops cycle through them."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build what every op shares (the set-up cost)."""

    def run_op(self, key: str, *, serial: bool = False) -> OpOutcome:
        """Run one op; ``serial`` pins any pool to one in-process worker."""
        raise NotImplementedError

    def summary(self, outcomes: List[OpOutcome]) -> Dict[str, Any]:
        """Simulated outcomes worth reporting beside the host metrics."""
        return {}


# -- sweep --------------------------------------------------------------------

#: One application per preset, each from that system's Fig. 4 suite, so the
#: sweep spans four suites.  One 12-cell cycle takes about 5 s, so a run
#: times every cell several times.
SWEEP_APPS = {
    "intel_a100": "srad",
    "intel_max1550": "kmeans",
    "intel_4a100": "resnet50",
    "amd_mi210": "gromacs",
}
SWEEP_GOVERNORS = ("default", "magus", "ups")
#: A quarter of the cells run under ``standard_campaign`` with the guard on,
#: covering both governors and both the Intel and the AMD backends.
SWEEP_FAULTED = {("intel_a100", "ups"), ("intel_4a100", "magus"), ("amd_mi210", "ups")}


class Sweep(Workload):
    """Paired single-node runs in the style of Fig. 4."""

    name = "sweep"

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        apps = SWEEP_APPS if size == "full" else {"intel_a100": "srad"}
        # (preset, app) pairs; the pair index seeds all three governors'
        # runs alike, so each pair is a paired comparison.
        self.pairs: List[Tuple[str, str]] = list(apps.items())
        self.cells: Dict[str, Tuple[int, str, bool]] = {}
        for governor in SWEEP_GOVERNORS:
            for index, (preset, app) in enumerate(self.pairs):
                faulted = (preset, governor) in SWEEP_FAULTED
                key = f"{preset}/{app}/{governor}" + ("/faulted" if faulted else "")
                self.cells[key] = (index, governor, faulted)

    def keys(self) -> List[str]:
        return list(self.cells)

    def cell_seed(self, pair_index: int) -> int:
        return self.seed * 1000 + pair_index

    def run_op(self, key: str, *, serial: bool = False) -> OpOutcome:
        index, governor, faulted = self.cells[key]
        preset, app = self.pairs[index]
        seed = self.cell_seed(index)
        result = run_application(
            preset,
            app,
            make_governor(governor),
            seed=seed,
            fault_plan=standard_campaign(seed) if faulted else None,
            guard=True if faulted else None,
        )
        info = {
            "pair": index,
            "governor": governor,
            "faulted": faulted,
            "runtime_s": result.runtime_s,
            "total_energy_j": result.total_energy_j,
            "failsafes": result.failsafe_count,
            "injections": sum(1 for i in result.incidents if i.source == "injector"),
            "switches": result.actuation_switches,
            "guard_quarantines": result.guard_quarantines,
            "guard_validated": sum(result.guard_reads_by_device.values()),
        }
        return OpOutcome(
            key=key,
            digest=run_result_digest(result),
            sim_node_s=result.runtime_s,
            error="" if result.completed else "run did not complete",
            info=info,
        )

    def summary(self, outcomes: List[OpOutcome]) -> Dict[str, Any]:
        """MAGUS against the vendor default over the clean paired cells.

        Uses the first outcome of each cell, so the figures depend on the
        seed only, not on how many ops fitted in the run.
        """
        first: Dict[str, OpOutcome] = {}
        for outcome in outcomes:
            first.setdefault(outcome.key, outcome)
        by_pair: Dict[int, Dict[str, OpOutcome]] = {}
        for outcome in first.values():
            if not outcome.info["faulted"]:
                by_pair.setdefault(outcome.info["pair"], {})[outcome.info["governor"]] = outcome
        savings, losses = [], []
        for cells in by_pair.values():
            if "default" in cells and "magus" in cells:
                base, magus = cells["default"].info, cells["magus"].info
                savings.append(100.0 * (1.0 - magus["total_energy_j"] / base["total_energy_j"]))
                losses.append(100.0 * (magus["runtime_s"] / base["runtime_s"] - 1.0))
        if not savings:
            return {}
        return {
            "energy_saving_pct": statistics.fmean(savings),
            "perf_loss_pct": statistics.fmean(losses),
            "paired_cells": len(savings),
        }


# -- fleet --------------------------------------------------------------------

#: Altis, ECP proxies, a real application and MLPerf in one schedule,
#: longest first so the pool's workers finish close together.
FLEET_APPS = ("bfs", "lammps", "resnet50", "laghos", "kmeans", "cradl", "srad", "gemm")
FLEET_GOVERNOR = "magus"


def _schedule(rng: np.random.Generator, apps: Tuple[str, ...], seed: int,
              gap_s: Tuple[float, float]) -> List[ClusterJob]:
    """Jobs with seeded arrival gaps and seeds.

    The job order stays fixed: it is the pool's task order, and a seeded
    order would change how evenly the workers are loaded, so host time
    would follow the seed rather than the code.
    """
    starts = np.cumsum(rng.uniform(*gap_s, size=len(apps))) - gap_s[0]
    return [
        ClusterJob(
            f"job{i:02d}-{app}",
            app,
            start_time_s=round(float(starts[i]), 3),
            seed=seed * 1000 + i,
        )
        for i, app in enumerate(apps)
    ]


class Fleet(Workload):
    """Plain fleets with queueing, through the process pool."""

    name = "fleet"

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng([seed, 2])
        apps = FLEET_APPS if size == "full" else ("gemm", "srad", "sort")
        self.n_nodes = 5 if size == "full" else 2
        self.jobs = _schedule(rng, apps, seed, (0.5, 2.5))
        self.failure_model = NodeFailureModel(
            mtbf_s=200.0, seed=self._failure_seed(seed), restart_delay_s=2.0
        )
        self.sim: Optional[ClusterSimulator] = None

    def _failure_seed(self, seed: int) -> int:
        """First failure seed from ``seed`` whose deaths leave the fleet able
        to drain: at least one node dies within 150 s, at most a third of
        them (one on the tiny fleet) do."""
        limit = max(1, self.n_nodes // 3)
        for k in range(10_000):
            candidate = seed * 10_007 + k
            deaths = NodeFailureModel(mtbf_s=200.0, seed=candidate).death_times(self.n_nodes)
            if 1 <= int((deaths < 150.0).sum()) <= limit:
                return candidate
        raise RuntimeError("no usable failure seed")  # pragma: no cover

    def keys(self) -> List[str]:
        return ["obs_tsdb", "node_failures"]

    def setup(self) -> None:
        self.sim = ClusterSimulator("intel_a100", self.jobs, n_nodes=self.n_nodes)
        self.sim.idle_node_power_w()

    def run_op(self, key: str, *, serial: bool = False) -> OpOutcome:
        if self.sim is None:
            raise RuntimeError("setup() must run before run_op()")
        workers = 1 if serial else self.workers
        if key == "obs_tsdb":
            fleet = self.sim.run_fleet(FLEET_GOVERNOR, n_workers=workers, obs=True, tsdb=True)
        elif key == "node_failures":
            fleet = self.sim.run_fleet(
                FLEET_GOVERNOR, n_workers=workers, failure_model=self.failure_model
            )
        else:
            raise KeyError(key)
        incomplete = [o.job.name for o in fleet.outcomes if not o.completed]
        return OpOutcome(
            key=key,
            digest=fleet_digest(fleet),
            sim_node_s=float(sum(o.runtime_s for o in fleet.outcomes)),
            error=f"incomplete jobs {incomplete}" if incomplete else "",
            info={"requeues": sum(fleet.requeue_counts.values())},
        )


# -- coordinate ---------------------------------------------------------------

COORD_APPS = ("gemm", "srad", "kmeans", "bfs", "sort", "cradl", "laghos", "where")
COORD_FRACTIONS = (0.95, 0.85, 0.75, 0.65)


class Coordinate(Workload):
    """Budget-coordinated fleet scenarios over one demand pass."""

    name = "coordinate"

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng([seed, 3])
        n = 32 if size == "full" else 4
        apps = tuple(COORD_APPS[i % len(COORD_APPS)] for i in range(n))
        self.n_nodes = n
        self.jobs = _schedule(rng, apps, seed, (0.0, 0.5))
        self.fractions = COORD_FRACTIONS if size == "full" else COORD_FRACTIONS[:2]
        self.sim: Optional[ClusterSimulator] = None
        self.demand: Optional[FleetResult] = None

    def keys(self) -> List[str]:
        return [f"budget_frac={frac}" for frac in self.fractions]

    def setup(self) -> None:
        self.sim = ClusterSimulator("intel_a100", self.jobs, n_nodes=self.n_nodes)
        self.demand = self.sim.run_fleet(FLEET_GOVERNOR, n_workers=self.workers, tsdb=True)
        self.floor_w = safe_floor_w(self.demand.idle_node_power_w)
        self.ample_w = ample_budget_w(self.demand, self.n_nodes, self.floor_w)
        self.horizon_s = float(self.demand.grid_times_s[-1])

    def run_op(self, key: str, *, serial: bool = False) -> OpOutcome:
        if self.sim is None or self.demand is None:
            raise RuntimeError("setup() must run before run_op()")
        frac = float(key.split("=", 1)[1])
        # Same floor reserve as `repro coordinate --budget-frac`.
        budget = max(frac * self.ample_w, self.n_nodes * self.floor_w * 1.05)
        path = os.path.join(self.workdir, f"grants-{os.getpid()}.jsonl")
        if os.path.exists(path):
            os.remove(path)
        journal = GrantJournal(path)
        try:
            result = coordinator_fleet.run_coordinated_fleet(
                self.sim,
                FLEET_GOVERNOR,
                budget_w=budget,
                plan=coordinated_campaign(
                    self.seed, horizon_s=self.horizon_s, n_nodes=self.n_nodes
                ),
                journal=journal,
                demand_fleet=self.demand,
                tsdb=True,
                alert_rules=default_fleet_rules(budget),
            )
        finally:
            journal.close()
        score = score_coordination(result, journal)
        os.remove(path)
        events = [e.to_dict() for e in result.alerts.events] if result.alerts else []
        error = ""
        if score.overshoot_ticks or score.journal_overshoot_ticks:
            error = (
                f"budget overshoot: {score.overshoot_ticks} trace / "
                f"{score.journal_overshoot_ticks} journal ticks"
            )
        return OpOutcome(
            key=key,
            digest=_sha(_canon(coordination_row_dict(score)), _canon(events)),
            sim_node_s=self.n_nodes * float(result.tick_times_s[-1]),
            error=error,
        )


WORKLOADS = {cls.name: cls for cls in (Sweep, Fleet, Coordinate)}
