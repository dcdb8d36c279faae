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
observability enabled.  Regenerate only together with a CHANGES.md note
that explains the behaviour change; a pure speed-up must pass unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, List, NamedTuple, Optional

import numpy as np

from repro.faults.plan import standard_campaign
from repro.obs.config import ObsConfig
from repro.obs.exporters import registry_to_dict
from repro.runtime.session import RunResult, make_governor, run_application
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


class Cell(NamedTuple):
    """One run of the matrix."""

    preset: str
    app: Optional[str]  # None = idle
    governor: str
    faulted: bool = False
    obs: bool = False

    @property
    def key(self) -> str:
        tail = "/faulted" if self.faulted else "/obs" if self.obs else ""
        return f"{self.preset}/{self.app or 'idle'}/{self.governor}{tail}"


def cells() -> List[Cell]:
    """The fingerprint matrix, in manifest order."""
    out = [Cell(p, a, g) for p, a in PRESET_APPS.items() for g in GOVERNORS]
    out.append(Cell("intel_a100", None, "magus"))
    out.append(Cell("intel_a100", "srad", "ups", faulted=True))
    out.append(Cell("amd_mi210", "gromacs", "magus", faulted=True))
    out.append(Cell("intel_4a100", "resnet50", "magus", obs=True))
    return out


def run_cell(cell: Cell) -> RunResult:
    """Run one cell exactly as the manifest was generated."""
    governor = make_governor(cell.governor, **GOVERNOR_OPTIONS.get(cell.governor, {}))
    if cell.app is None:
        return run_application(cell.preset, None, governor, seed=SEED, max_time_s=IDLE_S)
    workload = get_workload(cell.app, seed=SEED)
    workload = workload.scaled(NOMINAL_S / workload.nominal_duration_s)
    return run_application(
        cell.preset,
        workload,
        governor,
        seed=SEED,
        fault_plan=standard_campaign(SEED, horizon_s=NOMINAL_S) if cell.faulted else None,
        guard=True if cell.faulted else None,
        obs=ObsConfig(enabled=True) if cell.obs else None,
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


def trace_matrix(result: RunResult) -> Dict[str, np.ndarray]:
    """``time_s`` plus every channel's values, keyed by channel name."""
    columns = {"time_s": next(iter(result.traces.values())).times}
    for name, series in result.traces.items():
        columns[name] = series.values
    return columns


def fingerprint(result: RunResult) -> Dict[str, Any]:
    """The manifest entry of one run."""
    columns = trace_matrix(result)
    names = sorted(columns)
    rows = np.column_stack([np.asarray(columns[n], dtype=np.float64) for n in names])
    ticks = rows.shape[0]
    return {
        "ticks": ticks,
        "scalars": _digest(_canon(scalar_payload(result))),
        "channels": {n: _digest(np.ascontiguousarray(columns[n]).tobytes()) for n in names},
        "blocks": [
            _digest(np.ascontiguousarray(rows[b : b + BLOCK_TICKS]).tobytes())
            for b in range(0, ticks, BLOCK_TICKS)
        ],
    }


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
    return "; ".join(parts)


def main() -> None:
    manifest = {
        "seed": SEED,
        "block_ticks": BLOCK_TICKS,
        "cells": {cell.key: fingerprint(run_cell(cell)) for cell in cells()},
    }
    with open(MANIFEST_PATH, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MANIFEST_PATH}: {len(manifest['cells'])} cells")


if __name__ == "__main__":
    main()
