"""Span tracing of the ``repro`` layers, installed from outside the package.

The benchmark never edits the program it measures: :func:`install` swaps
each public entry point named in :data:`ALL_TARGETS` for a thin wrapper that
opens a span, calls the original and closes the span, and the returned
:class:`Installed` handle puts every original back.  Wrappers only read
the host clock, so simulated state is untouched; the benchmark proves it
by comparing the digests of traced and untraced runs of the same inputs.

Spans are kept in memory as ``(id, name, start, end, parent, op)`` tuples
and written once the run ends (:meth:`Tracer.write_chrome_trace`).  Self
time is accumulated online: a span's duration minus the part covered by
its direct child spans.  A span nested directly inside a span of the same
name (a supervised daemon cycle around the plain daemon cycle, say) adds
its self time but is not counted as a second call.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Spans kept for the Chrome trace; later spans still count in the totals.
MAX_KEPT_SPANS = 60_000


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.dropped_spans = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.op_id = 0
        self.origin = time.perf_counter()
        self._stack: List[list] = []
        self._next_id = 1
        #: Results whose pickled size is measured after the op (off-span).
        self.pending_results: List[Any] = []

    def wrap(self, fn: Callable[..., Any], name: str,
             post: Optional[Callable[["Tracer", Any, tuple, dict], None]] = None
             ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span called ``name``.

        ``post(tracer, result, args, kwargs)`` runs after the span has
        closed, so the (small) work of deriving a counter is charged to the
        enclosing span, if any, not to this one.
        """
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [name, 0.0, 0.0, span_id, stack[-1][3] if stack else 0]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, clock())
            if post is not None:
                post(self, result, args, kwargs)
            return result

        functools.update_wrapper(traced, fn)
        traced.perfbench_span = name  # type: ignore[attr-defined]
        return traced

    def _close(self, frame: list, end: float) -> None:
        stack = self._stack
        stack.pop()
        name, start, child_s, span_id, parent_id = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if parent is None or parent[0] != name:
            self.calls[name] += 1
            self.total_s[name] += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, name, start, end, parent_id, self.op_id))
        else:
            self.dropped_spans += 1

    def begin_op(self, op_id: int) -> None:
        """Tag the spans that follow with ``op_id``."""
        self.op_id = op_id

    def end_op(self) -> None:
        """Settle the counters that are measured outside any span."""
        for result in self.pending_results:
            self.counters["parallel.result_bytes"] += len(
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            )
        self.pending_results.clear()

    def write_chrome_trace(self, path: str, metadata: Dict[str, Any]) -> None:
        """Write the kept spans as Chrome trace-event JSON (``ph: X``)."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {"id": span_id, "parent": parent, "op": op},
            }
            for span_id, name, start, end, parent, op in self.spans
        ]
        metadata = dict(metadata, kept_spans=len(self.spans), dropped_spans=self.dropped_spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "otherData": metadata}, fh)

    def layer_table(self) -> str:
        """Plain-text per-span table: calls, total and self seconds."""
        names = sorted(self.calls, key=lambda n: -self.self_s[n])
        grand = sum(self.self_s.values()) or 1.0
        lines = [f"{'span':28s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'self%':>7s}"]
        for name in names:
            lines.append(
                f"{name:28s} {self.calls[name]:10d} {self.total_s[name]:10.4f} "
                f"{self.self_s[name]:10.4f} {100 * self.self_s[name] / grand:6.1f}%"
            )
        return "\n".join(lines)


# -- what gets wrapped -------------------------------------------------------

def _count_firing(tracer: Tracer, events, args, kwargs) -> None:
    tracer.counters["obs.alerts.fired"] += sum(1 for e in events if e.state == "firing")


def _count_trace_bytes(tracer: Tracer, result, args, kwargs) -> None:
    recorder = result.recorder
    if recorder is not None:
        tracer.counters["sim.trace_bytes"] += len(recorder.channels) * len(recorder) * 8


def _count_tasks(tracer: Tracer, results, args, kwargs) -> None:
    from repro.parallel.retry import TaskFailure

    tasks = kwargs.get("kwargs_list", args[1] if len(args) > 1 else ())
    tracer.counters["parallel.tasks"] += len(tasks)
    tracer.counters["parallel.failed_tasks"] += sum(
        1 for r in results if isinstance(r, TaskFailure)
    )
    tracer.pending_results.append(results)


#: (module, attribute path, span name, post hook).  Methods are patched on
#: the class that defines them; functions in every ``repro`` module that
#: holds a reference to them (``from x import f`` copies the binding).
PHYSICS_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.hw.node", "HeterogeneousNode.step", "hw.step", None),
    ("repro.telemetry.hub", "TelemetryHub.on_tick", "telemetry.tick", None),
    ("repro.telemetry.hub", "TelemetryHub.set_uncore_max_ghz", "telemetry.actuate", None),
    ("repro.workloads.base", "WorkloadExecution.advance", "workloads.advance", None),
    ("repro.workloads.base", "WorkloadExecution.current", "workloads.current", None),
    ("repro.sim.engine", "SimulationEngine.run", "sim.engine", _count_trace_bytes),
    ("repro.sim.observers", "NodeStateObserver.on_tick", "sim.observers", None),
    ("repro.sim.observers", "CoreFrequencyObserver.on_tick", "sim.observers", None),
    ("repro.sim.trace", "TraceRecorder.record_row", "sim.record", None),
    ("repro.runtime.daemon", "MonitorDaemon.invoke", "runtime.cycle", None),
    ("repro.runtime.supervisor", "SupervisedDaemon.invoke", "runtime.cycle", None),
    ("repro.governors.default", "VendorDefaultGovernor.sample_and_decide", "governors.decide", None),
    ("repro.governors.static", "StaticUncoreGovernor.sample_and_decide", "governors.decide", None),
    ("repro.governors.ups", "UPSGovernor.sample_and_decide", "governors.decide", None),
    ("repro.governors.powercap", "PowerCapGovernor.sample_and_decide", "governors.decide", None),
    ("repro.governors.leased", "LeasedPowerCapGovernor.sample_and_decide", "governors.decide", None),
    ("repro.governors.oracle", "OracleGovernor.sample_and_decide", "governors.decide", None),
    ("repro.core.magus", "MagusGovernor.sample_and_decide", "governors.decide", None),
    ("repro.guard.core", "TelemetryGuard.read_throughput_mbps", "guard.read", None),
    ("repro.guard.core", "TelemetryGuard.read_all_core_counters", "guard.read", None),
    ("repro.guard.core", "TelemetryGuard.energy_j", "guard.read", None),
    ("repro.guard.core", "TelemetryGuard.power_w", "guard.read", None),
    ("repro.guard.core", "TelemetryGuard.actuate_uncore_max_ghz", "guard.actuate", None),
)

#: Parent-side layers: safe to keep installed across a fork into pool
#: workers, because workers never call them.
FLEET_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.parallel.pool", "map_parallel", "parallel.map", _count_tasks),
    ("repro.cluster.simulator", "ClusterSimulator.run_fleet", "cluster.run_fleet", None),
    ("repro.coordinator.fleet", "run_coordinated_fleet", "coordinator.loop", None),
    ("repro.coordinator.core", "BudgetCoordinator.arbitrate", "coordinator.arbitrate", None),
    ("repro.coordinator.core", "BudgetCoordinator.receive", "coordinator.receive", None),
    ("repro.coordinator.journal", "GrantJournal.record_grant", "coordinator.journal", None),
)

OBS_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.obs.tsdb", "TimeSeriesDB.record", "obs.tsdb.record", None),
    ("repro.obs.tsdb", "merge_tsdbs", "obs.tsdb.merge", None),
    ("repro.obs.alerts", "AlertEngine.evaluate", "obs.alerts.eval", _count_firing),
)

ALL_TARGETS = PHYSICS_TARGETS + FLEET_TARGETS + OBS_TARGETS


@dataclass
class Installed:
    """Handle on installed wrappers; :meth:`restore` puts the originals back."""

    patches: List[Tuple[Any, str, Any]]

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer, targets: Sequence[Tuple[str, str, str, Optional[Callable]]]
            ) -> Installed:
    """Wrap every target; return the handle that undoes it."""
    patches: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, path, span, post in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(original, span, post))
                continue
            original = getattr(module, path)
            wrapped = tracer.wrap(original, span, post)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "") or "").startswith("repro") and \
                        getattr(mod, path, None) is original:
                    patches.append((mod, path, original))
                    setattr(mod, path, wrapped)
    except BaseException:
        Installed(patches).restore()
        raise
    return Installed(patches)


def installed_wrappers() -> List[str]:
    """Targets that are currently wrapped (empty after a clean restore)."""
    found = []
    for module_name, path, _, _ in ALL_TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            fn = getattr(module, cls_name).__dict__[attr]
            if hasattr(fn, "perfbench_span"):
                found.append(f"{module_name}.{path}")
            continue
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "") or "").startswith("repro") and \
                    hasattr(getattr(mod, path, None), "perfbench_span"):
                found.append(f"{mod.__name__}.{path}")
    return found
