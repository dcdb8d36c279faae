"""RAPL-style energy counters for the PKG and DRAM domains.

RAPL exposes cumulative energy as a 32-bit register counting in units of
``2^-14 J``; clients take deltas and must handle wraparound (a 270 W socket
wraps roughly every 16 minutes).  Both the wrapping register view and a
convenient non-wrapping float view are provided — the runtimes use the
register view (with :func:`rapl_energy_delta_j`), the analysis layer uses
the float view.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import TelemetryError
from repro.hw.node import HeterogeneousNode
from repro.hw.presets import TelemetryCosts
from repro.sim.clock import running_sum
from repro.telemetry.sampling import AccessMeter
from repro.units import JOULES_PER_RAPL_UNIT

__all__ = ["RAPL_PKG", "RAPL_DRAM", "RAPLCounters", "rapl_energy_delta_j"]

#: Domain identifiers.
RAPL_PKG = "package"
RAPL_DRAM = "dram"

_REGISTER_MOD = 1 << 32


def rapl_energy_delta_j(later_reg: int, earlier_reg: int) -> float:
    """Joules between two raw RAPL register reads, handling one wrap."""
    return ((later_reg - earlier_reg) % _REGISTER_MOD) * JOULES_PER_RAPL_UNIT


class RAPLCounters:
    """Cumulative PKG and DRAM energy counters over the node's power model.

    Parameters
    ----------
    node:
        Node whose power breakdown is integrated.
    costs:
        Per-access cost model (``rapl_read_*`` fields).
    """

    def __init__(self, node: HeterogeneousNode, costs: TelemetryCosts):
        self.node = node
        self.costs = costs
        self._energy_j: Dict[str, float] = {RAPL_PKG: 0.0, RAPL_DRAM: 0.0}

    def on_tick(self, dt_s: float) -> None:
        """Integrate the node's power draw over every tick of its latest step."""
        if dt_s <= 0:
            raise TelemetryError(f"dt must be positive, got {dt_s!r}")
        block = self.node.last_block
        if block is None:
            return
        energy = self._energy_j
        energy[RAPL_PKG] = float(running_sum(energy[RAPL_PKG], block.package_w * dt_s)[-1])
        energy[RAPL_DRAM] = float(running_sum(energy[RAPL_DRAM], block.dram_w * dt_s)[-1])

    def energy_j(self, domain: str, meter: Optional[AccessMeter] = None) -> float:
        """Cumulative energy of a domain in joules (non-wrapping view)."""
        if domain not in self._energy_j:
            raise TelemetryError(f"unknown RAPL domain {domain!r}; have {sorted(self._energy_j)}")
        if meter is not None:
            meter.charge("rapl_read", self.costs.rapl_read_time_s, self.costs.rapl_read_energy_j)
        return self._energy_j[domain]

    def read_register(self, domain: str, meter: Optional[AccessMeter] = None) -> int:
        """Raw 32-bit wrapping register view (units of 2^-14 J)."""
        joules = self.energy_j(domain, meter)
        return int(joules / JOULES_PER_RAPL_UNIT) % _REGISTER_MOD

    def power_w(self, domain: str, meter: Optional[AccessMeter] = None) -> float:
        """Instantaneous power of a domain (sysfs-style convenience read)."""
        state = self.node.last_state
        if meter is not None:
            meter.charge("rapl_read", self.costs.rapl_read_time_s, self.costs.rapl_read_energy_j)
        if state is None:
            return 0.0
        if domain == RAPL_PKG:
            return state.power.package_w
        if domain == RAPL_DRAM:
            return state.power.dram_w
        raise TelemetryError(f"unknown RAPL domain {domain!r}")
