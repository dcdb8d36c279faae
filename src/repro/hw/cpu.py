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
        # Per-tick (ticks x cores) arrays of the latest block; before the
        # first step, one tick of idle state.
        self._block_utils = np.zeros((1, self.n_cores))
        self._block_freqs = np.full((1, self.n_cores), self.min_ghz)
        self._block_ipc = np.zeros((1, self.n_cores))
        self._block_active = np.zeros((1, self.n_cores), dtype=bool)

    # ------------------------------------------------------------------
    # State update
    # ------------------------------------------------------------------
    def step(self, socket_util, mem_stall_factor, uncore_ratio) -> None:
        """Advance one tick per entry of the per-tick column inputs.

        Scalars advance a single tick. Every tick's core arrays are kept
        as ``(ticks, cores)`` rows (:attr:`block_freqs_ghz` ...); the
        per-core observables report the block's last tick. Jitter for the
        whole block is one ``(ticks, cores)`` draw, which is the same
        stream as one ``cores``-sized draw per tick.

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
        util = np.asarray(socket_util, dtype=float).reshape(-1)
        in_range = (util >= 0.0) & (util <= 1.0)
        if not in_range.all():
            tick = int(np.flatnonzero(~in_range)[0])
            raise PowerModelError(
                f"socket_util must be in [0, 1], got {float(util[tick])!r} at tick {tick}"
            )
        jitter = self._rng.normal(1.0, 0.06, (util.size, self.n_cores))
        # Clipping is spelled as the minimum/maximum ufuncs: the same bits
        # as np.clip without its Python wrapper.
        utils = np.minimum(np.maximum(util[:, None] * self._weights * jitter, 0.0), 1.0)
        # DVFS: frequency tracks utilisation with a mild floor; a lightly
        # loaded core sits near min frequency, a saturated core turbos.
        span = self.max_ghz - self.min_ghz
        freqs = np.minimum(
            np.maximum(self.min_ghz + span * np.minimum(utils * 1.3, 1.0), self.min_ghz),
            self.max_ghz,
        )
        ratio = np.asarray(uncore_ratio, dtype=float).reshape(-1)
        stall = np.asarray(mem_stall_factor, dtype=float).reshape(-1)
        latency_term = 0.88 + 0.12 * np.minimum(np.maximum(ratio, 0.0), 1.0)
        stall_term = np.minimum(np.maximum(stall, 0.05), 1.0)
        active = utils > 1e-3
        ipc = np.where(active, (self.peak_ipc * stall_term * latency_term)[:, None], 0.0)
        self._block_utils = utils
        self._block_freqs = freqs
        self._block_ipc = ipc
        self._block_active = active

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def core_utils(self) -> np.ndarray:
        """Per-core utilisation at the latest tick (read-only view)."""
        return self._block_utils[-1]

    @property
    def core_freqs_ghz(self) -> np.ndarray:
        """Per-core frequencies at the latest tick."""
        return self._block_freqs[-1]

    @property
    def core_ipc(self) -> np.ndarray:
        """Per-core IPC at the latest tick."""
        return self._block_ipc[-1]

    @property
    def block_utils(self) -> np.ndarray:
        """``(ticks, cores)`` utilisation of every tick of the latest step."""
        return self._block_utils

    @property
    def block_freqs_ghz(self) -> np.ndarray:
        """``(ticks, cores)`` frequencies of every tick of the latest step."""
        return self._block_freqs

    @property
    def block_ipc(self) -> np.ndarray:
        """``(ticks, cores)`` IPC of every tick of the latest step."""
        return self._block_ipc

    def mean_core_freq_ghz(self) -> float:
        """Socket-average core frequency at the latest tick."""
        return float(self.block_mean_core_freq_ghz()[-1])

    def mean_ipc(self) -> float:
        """Socket-average IPC over *active* cores at the latest tick (0 if all idle)."""
        return float(self.block_mean_ipc()[-1])

    def power_w(self) -> float:
        """Core-domain power of the socket at the latest tick."""
        return float(self.block_power_w()[-1])

    def block_mean_core_freq_ghz(self) -> np.ndarray:
        """Per-tick socket-average core frequency (``freqs.mean()`` bit for bit).

        A row-wise reduction over the contiguous core axis sums each row
        exactly as a one-row reduction would.
        """
        return np.add.reduce(self._block_freqs, axis=1) / self.n_cores

    def block_mean_ipc(self) -> np.ndarray:
        """Per-tick socket-average IPC over the *active* cores (0 if all idle).

        Rows with every core active reduce the whole row; a row with only
        some cores active reduces its compacted active subset, as a
        zero-padded row can round differently.
        """
        active = self._block_active
        sums = np.add.reduce(self._block_ipc, axis=1)
        if active.all():
            return sums / self.n_cores
        k = np.count_nonzero(active, axis=1)
        for tick in np.flatnonzero((k > 0) & (k < self.n_cores)):
            sums[tick] = np.add.reduce(self._block_ipc[tick][active[tick]])
        return np.where(k > 0, sums / np.maximum(k, 1), 0.0)

    def block_power_w(self) -> np.ndarray:
        """Per-tick core-domain power of the socket."""
        p = self.power_params
        f_ratio_sq = (self._block_freqs / self.max_ghz) ** 2
        per_core = p.idle_core_w + p.peak_core_w * self._block_utils * (0.3 + 0.7 * f_ratio_sq)
        return p.static_w + np.add.reduce(per_core, axis=1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CPUCoreModel(n_cores={self.n_cores}, util={self.core_utils.mean():.2f})"
