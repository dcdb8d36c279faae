"""CPU core complex model: per-core DVFS, power, and IPC.

One :class:`CPUCoreModel` represents the *core* side of one socket (the
uncore lives in :mod:`repro.hw.uncore`).  Three behaviours matter for the
reproduction:

* **Per-core DVFS (paper Fig. 1a).** Core frequencies follow per-core
  utilisation — the vendor-default behaviour the paper contrasts with the
  stuck-at-max uncore. A fixed weight profile concentrates utilisation on
  low-index cores (data-loader / driver threads of GPU workloads), so the
  plotted cores show realistic spread.
* **Power.** ``P = static + Σ_i (idle_core + peak_core * util_i *
  (0.3 + 0.7 (f_i/f_max)^2))`` — calibrated so a dual-socket Xeon 8380 node
  running a GPU-dominant workload draws far below TDP, which is precisely
  why the vendor-default uncore governor never downscales.
* **IPC.** UPS (the baseline runtime) reads per-core instructions/cycles
  MSRs and reacts to IPC loss. IPC here degrades when memory demand is
  unmet and, mildly, with uncore frequency itself (higher LLC latency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PowerModelError
from repro.units import clamp

__all__ = ["CPUPowerParams", "CPUCoreModel"]


@dataclass(frozen=True)
class CPUPowerParams:
    """Coefficients of the per-socket core-domain power model."""

    static_w: float = 20.0
    idle_core_w: float = 0.30
    peak_core_w: float = 3.5

    def __post_init__(self) -> None:
        if min(self.static_w, self.idle_core_w, self.peak_core_w) < 0:
            raise PowerModelError("CPU power coefficients must be non-negative")


class CPUCoreModel:
    """The core complex of one socket.

    Parameters
    ----------
    n_cores:
        Physical core count of the socket.
    min_ghz / max_ghz:
        Core DVFS range (max includes turbo headroom).
    power:
        Power model coefficients.
    peak_ipc:
        Per-core IPC when fully fed (no memory stalls, max uncore).
    rng:
        Generator for per-core utilisation jitter. Deterministic runs pass
        a stream from :class:`~repro.sim.rng.RngStreams`.
    """

    def __init__(
        self,
        n_cores: int = 40,
        *,
        min_ghz: float = 0.8,
        max_ghz: float = 3.4,
        power: CPUPowerParams = CPUPowerParams(),
        peak_ipc: float = 2.0,
        rng: np.random.Generator | None = None,
    ):
        if n_cores < 1:
            raise PowerModelError(f"need at least one core, got {n_cores!r}")
        if not (0 < min_ghz < max_ghz):
            raise PowerModelError(f"invalid core DVFS range [{min_ghz}, {max_ghz}]")
        self.n_cores = int(n_cores)
        self.min_ghz = float(min_ghz)
        self.max_ghz = float(max_ghz)
        self.power_params = power
        self.peak_ipc = float(peak_ipc)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Fixed per-core weight profile: a handful of hot cores (GPU driver,
        # data-loader workers) and a long cold tail. Normalised to mean 1.
        ranks = np.arange(self.n_cores, dtype=float)
        weights = 1.0 / (1.0 + 0.35 * ranks)
        self._weights = weights * (self.n_cores / weights.sum())
        self._utils = np.zeros(self.n_cores)
        self._freqs = np.full(self.n_cores, self.min_ghz)
        self._ipc = np.zeros(self.n_cores)
        self._active = np.zeros(self.n_cores, dtype=bool)

    # ------------------------------------------------------------------
    # State update
    # ------------------------------------------------------------------
    def step(self, socket_util: float, mem_stall_factor: float, uncore_ratio: float) -> None:
        """Advance one tick.

        Parameters
        ----------
        socket_util:
            Average utilisation demanded of the socket, in [0, 1].
        mem_stall_factor:
            1.0 when memory demand is fully served, < 1 proportional to the
            served fraction otherwise — stalls depress IPC.
        uncore_ratio:
            Effective uncore frequency over max; low uncore adds LLC/mesh
            latency that mildly depresses IPC even when bandwidth suffices.
        """
        if not (0.0 <= socket_util <= 1.0):
            raise PowerModelError(f"socket_util must be in [0, 1], got {socket_util!r}")
        jitter = self._rng.normal(1.0, 0.06, self.n_cores)
        # Clipping is spelled as the minimum/maximum ufuncs: the same bits
        # as np.clip without its Python wrapper, which dominates at this size.
        self._utils = np.minimum(np.maximum(socket_util * self._weights * jitter, 0.0), 1.0)
        # DVFS: frequency tracks utilisation with a mild floor; a lightly
        # loaded core sits near min frequency, a saturated core turbos.
        span = self.max_ghz - self.min_ghz
        self._freqs = np.minimum(
            np.maximum(self.min_ghz + span * np.minimum(self._utils * 1.3, 1.0), self.min_ghz),
            self.max_ghz,
        )
        latency_term = 0.88 + 0.12 * clamp(uncore_ratio, 0.0, 1.0)
        stall_term = clamp(mem_stall_factor, 0.05, 1.0)
        self._active = self._utils > 1e-3
        self._ipc = np.where(self._active, self.peak_ipc * stall_term * latency_term, 0.0)

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def core_utils(self) -> np.ndarray:
        """Per-core utilisation after the latest :meth:`step` (read-only view)."""
        return self._utils

    @property
    def core_freqs_ghz(self) -> np.ndarray:
        """Per-core frequencies after the latest :meth:`step`."""
        return self._freqs

    @property
    def core_ipc(self) -> np.ndarray:
        """Per-core IPC after the latest :meth:`step`."""
        return self._ipc

    def mean_core_freq_ghz(self) -> float:
        """Socket-average core frequency (``core_freqs_ghz.mean()``, bit for bit)."""
        return float(np.add.reduce(self._freqs) / self.n_cores)

    def mean_ipc(self) -> float:
        """Socket-average IPC over *active* cores (0 if all idle)."""
        k = np.count_nonzero(self._active)
        if k == 0:
            return 0.0
        return float(np.add.reduce(self._ipc[self._active]) / k)

    def power_w(self) -> float:
        """Instantaneous core-domain power of the socket."""
        p = self.power_params
        f_ratio_sq = (self._freqs / self.max_ghz) ** 2
        per_core = p.idle_core_w + p.peak_core_w * self._utils * (0.3 + 0.7 * f_ratio_sq)
        return float(p.static_w + np.add.reduce(per_core))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CPUCoreModel(n_cores={self.n_cores}, util={self._utils.mean():.2f})"
