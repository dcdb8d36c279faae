"""Metric instruments and the registry that owns them.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotone event count (device reads, cycles, retries);
* :class:`Gauge` — last-written value (run energy totals, runtime);
* :class:`Histogram` — fixed-bucket distribution (invocation times,
  per-cycle monitoring energy). Buckets are chosen at registration, so
  ``observe`` is allocation-free: one bisect over a tuple plus two integer
  increments.

Metric names are **lowercase dotted identifiers** (``repro.daemon.cycles``)
validated at registration — lint rule RL006 enforces the same grammar
statically, so ad-hoc f-string metric names cannot creep in. Instruments
hold only ints/floats/lists, which keeps a registry picklable across pool
workers and makes :meth:`MetricsRegistry.merge` associative: counters add,
gauges keep the last merged write, histograms add bucket-wise.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ObsError

__all__ = [
    "METRIC_NAME_RE",
    "validate_metric_name",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_JOULES_BUCKETS",
]

#: Grammar shared with lint rule RL006: at least two lowercase dotted
#: segments, digits/underscores allowed after the leading letter.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: Default histogram buckets for durations, seconds.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0,
)

#: Default histogram buckets for per-cycle energies, joules.
DEFAULT_JOULES_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
)


@lru_cache(maxsize=1024)
def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid lowercase dotted identifier.

    Names are static literals (RL006), so each is matched once per process.

    Raises
    ------
    ObsError
        When the name does not match :data:`METRIC_NAME_RE`.
    """
    if not METRIC_NAME_RE.match(name):
        raise ObsError(
            f"invalid metric/span name {name!r}: expected lowercase dotted "
            "identifiers like 'repro.daemon.cycles' (RL006 grammar)"
        )
    return name


class Counter:
    """Monotone event counter."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease (inc({amount!r}))")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value!r})"


class Gauge:
    """Last-written value (``None`` until first set)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge(self, other: "Gauge") -> None:
        # Last-set-wins in merge order; an unset gauge never clobbers.
        if other.value is not None:
            self.value = other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value!r})"


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``bounds`` are the finite upper bucket edges (ascending); an implicit
    ``+Inf`` bucket always exists. ``observe`` costs one binary search on
    a tuple plus two scalar updates — no allocation.
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, bounds: Sequence[float], help: str = "") -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ObsError(f"histogram {name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(edges, edges[1:])):
            raise ObsError(f"histogram {name!r} bounds must be strictly ascending: {edges!r}")
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = edges
        #: Per-bucket (non-cumulative) counts; index ``len(bounds)`` is +Inf.
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)
        self.count: int = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        """Record one observation.

        Bucket edges are inclusive upper bounds (Prometheus ``le``), so a
        value landing exactly on an edge counts in that edge's bucket.
        """
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts in Prometheus ``le`` order (ending +Inf)."""
        out: List[int] = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ObsError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ "
                f"({self.bounds!r} vs {other.bounds!r})"
            )
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.sum += other.sum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, sum={self.sum!r})"


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for every instrument of one run (or one merge).

    The accessors are idempotent: asking for an existing name returns the
    existing instrument (so call sites need no caching), but asking for a
    name that exists *as a different kind* raises — a name identifies one
    instrument forever.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        inst = self._instruments.get(name)
        if inst is None:
            inst = Counter(validate_metric_name(name), help)
            self._instruments[name] = inst
        elif not isinstance(inst, Counter):
            raise ObsError(f"metric {name!r} already registered as {type(inst).__name__}")
        return inst

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge called ``name``."""
        inst = self._instruments.get(name)
        if inst is None:
            inst = Gauge(validate_metric_name(name), help)
            self._instruments[name] = inst
        elif not isinstance(inst, Gauge):
            raise ObsError(f"metric {name!r} already registered as {type(inst).__name__}")
        return inst

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, help: str = ""
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        ``bounds`` applies only at creation; passing different bounds for
        an existing histogram raises (bucket layout is part of the metric's
        identity — merges depend on it).
        """
        inst = self._instruments.get(name)
        if inst is None:
            inst = Histogram(
                validate_metric_name(name),
                bounds if bounds is not None else DEFAULT_SECONDS_BUCKETS,
                help,
            )
            self._instruments[name] = inst
        elif not isinstance(inst, Histogram):
            raise ObsError(f"metric {name!r} already registered as {type(inst).__name__}")
        elif bounds is not None and tuple(float(b) for b in bounds) != inst.bounds:
            raise ObsError(
                f"histogram {name!r} re-registered with different bounds "
                f"({tuple(bounds)!r} vs {inst.bounds!r})"
            )
        return inst

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Instrument]:
        """The instrument called ``name``, or ``None``."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        for name in sorted(self._instruments):
            yield self._instruments[name]

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: object) -> bool:
        return name in self._instruments

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place; returns self).

        Associative and preserving of merge order for gauges: counters
        add, gauges take the last merged (set) value, histograms add
        bucket-wise. Merging registries that registered the same name as
        different kinds raises.
        """
        for name in sorted(other._instruments):
            theirs = other._instruments[name]
            mine = self._instruments.get(name)
            if mine is None:
                clone = _clone(theirs)
                self._instruments[name] = clone
                continue
            if isinstance(mine, Counter) and isinstance(theirs, Counter):
                mine.merge(theirs)
            elif isinstance(mine, Gauge) and isinstance(theirs, Gauge):
                mine.merge(theirs)
            elif isinstance(mine, Histogram) and isinstance(theirs, Histogram):
                mine.merge(theirs)
            else:
                raise ObsError(
                    f"cannot merge metric {name!r}: {type(mine).__name__} vs "
                    f"{type(theirs).__name__}"
                )
        return self


def _clone(inst: Instrument) -> Instrument:
    if isinstance(inst, Counter):
        out_c = Counter(inst.name, inst.help)
        out_c.value = inst.value
        return out_c
    if isinstance(inst, Gauge):
        out_g = Gauge(inst.name, inst.help)
        out_g.value = inst.value
        return out_g
    out_h = Histogram(inst.name, inst.bounds, inst.help)
    out_h.bucket_counts = list(inst.bucket_counts)
    out_h.count = inst.count
    out_h.sum = inst.sum
    return out_h
