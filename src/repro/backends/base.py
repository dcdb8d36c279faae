"""ControlBackend: the property/mechanism split for actuation + telemetry.

pepc-style separation: *what* is being controlled is a named, typed
property over a named domain (``uncore.max_ratio`` on socket 1,
``gpu.sm_clock`` on GPU 0); *how* it is accessed is the backend's business
(simulated MSR/HSMP/NVML devices today; a real ``/dev/cpu/*/msr`` or TPMI
backend later, slotted in without touching a single governor).

The contract every backend honours:

* **Typed properties.** :data:`PROPERTIES` names each property once, with
  its unit, domain scope and writability. ``read``/``write`` validate
  against the table, so an unknown property or a write to a read-only one
  fails identically on every backend.
* **Metered access.** Every read/write accepts the caller's
  :class:`~repro.telemetry.sampling.AccessMeter` and charges exactly what
  the underlying mechanism costs — the backend adds no hidden cost and
  removes none.
* **In-flight transitions.** Actuation may take modeled switch latency;
  while a transition settles, :attr:`actuation_pending` is True and a
  frequency read returns the ramping value, not the target.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from repro.errors import BackendError
from repro.telemetry.sampling import AccessMeter

if TYPE_CHECKING:  # typing-only: the hub constructs (and binds) backends,
    # so a runtime import here would be circular.
    from repro.obs.registry import MetricsRegistry
    from repro.telemetry.hub import TelemetryHub

__all__ = ["PropertySpec", "PROPERTIES", "ControlBackend"]


@dataclass(frozen=True)
class PropertySpec:
    """One named control/telemetry property.

    Attributes
    ----------
    name:
        Dotted property name (``"uncore.max_ratio"``).
    unit:
        Value unit: ``"ratio"`` (integer frequency bins) or ``"ghz"``.
    scope:
        Domain the index addresses: ``"socket"`` or ``"gpu"``.
    writable:
        Whether :meth:`ControlBackend.write` accepts the property.
    """

    name: str
    unit: str
    scope: str
    writable: bool
    description: str = ""


#: The property table every backend serves. Names follow the RL006
#: lowercase-dotted grammar; units are the canonical repro.units set.
PROPERTIES: Mapping[str, PropertySpec] = {
    spec.name: spec
    for spec in (
        PropertySpec(
            "uncore.max_ratio", "ratio", "socket", True,
            "Programmed uncore/fabric frequency ceiling (100 MHz bins). "
            "Reads return the last written limit immediately, as on "
            "hardware; the clock settles later.",
        ),
        PropertySpec(
            "uncore.min_ratio", "ratio", "socket", False,
            "Uncore frequency floor (min-ratio bits / part minimum).",
        ),
        PropertySpec(
            "uncore.freq_ghz", "ghz", "socket", False,
            "Frequency the mesh is running at *now*: during switch latency "
            "the old value, during slew the ramping value — never the "
            "not-yet-adopted target.",
        ),
        PropertySpec(
            "core.pstate", "ratio", "socket", False,
            "Socket mean core P-state (100 MHz bins of the mean core clock).",
        ),
        PropertySpec(
            "gpu.sm_clock", "ghz", "gpu", False,
            "SM clock of one GPU.",
        ),
    )
}


class ControlBackend(abc.ABC):
    """Abstract property-based access layer over one node's controls.

    Lifecycle: construct, then :meth:`bind` to exactly one
    :class:`~repro.telemetry.hub.TelemetryHub` (the hub does this in its
    constructor). All device access happens through the hub *at call
    time*, so fault-injection proxies installed on the hub keep
    intercepting backend-routed traffic.
    """

    #: Mechanism name, used in reports.
    name: str = "backend"

    def __init__(self) -> None:
        self._hub: Optional["TelemetryHub"] = None
        self._metrics: Optional["MetricsRegistry"] = None
        #: Actuations routed through :meth:`set_uncore_max_ghz`.
        self.switch_count = 0
        #: Total modeled switch latency charged to cycle meters, seconds.
        self.latency_charged_s = 0.0
        #: Ticks observed with some frequency transition still settling.
        self.settling_ticks = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, hub: "TelemetryHub") -> None:
        """Attach the backend to its hub. Called exactly once, by the hub."""
        if self._hub is not None:
            raise BackendError(f"backend {self.name!r} is already bound to a hub")
        self._hub = hub

    @property
    def hub(self) -> "TelemetryHub":
        """The bound hub (raises until :meth:`bind` has run)."""
        if self._hub is None:
            raise BackendError(f"backend {self.name!r} is not bound to a hub")
        return self._hub

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Route actuation metrics into ``registry`` (purely observational)."""
        self._metrics = registry

    # ------------------------------------------------------------------
    # Property surface
    # ------------------------------------------------------------------
    def properties(self) -> Mapping[str, PropertySpec]:
        """The property table this backend serves."""
        return PROPERTIES

    def spec(self, prop: str, *, write: bool = False) -> PropertySpec:
        """Validate a property name (and writability) against the table."""
        found = self.properties().get(prop)
        if found is None:
            raise BackendError(
                f"unknown property {prop!r}; known: {', '.join(sorted(self.properties()))}"
            )
        if write and not found.writable:
            raise BackendError(f"property {prop!r} is read-only")
        return found

    @abc.abstractmethod
    def read(self, prop: str, domain: int = 0, meter: Optional[AccessMeter] = None) -> float:
        """Read one property on one domain, charging ``meter``."""

    @abc.abstractmethod
    def write(
        self, prop: str, value: float, domain: int = 0, meter: Optional[AccessMeter] = None
    ) -> None:
        """Write one property on one domain, charging ``meter``."""

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def set_uncore_max_ghz(self, freq_ghz: float, meter: Optional[AccessMeter] = None) -> None:
        """Program the uncore/fabric ceiling on every socket.

        The vendor-neutral bulk actuation the daemon uses; one switch
        latency is sampled per call (the node settles once, not once per
        socket).
        """

    @property
    @abc.abstractmethod
    def actuation_pending(self) -> bool:
        """True while a programmed transition has not been adopted yet."""

    def on_tick(self, dt_s: float) -> None:
        """Per-step hook (settling accounting over the node's latest
        block of ticks). Purely observational."""
