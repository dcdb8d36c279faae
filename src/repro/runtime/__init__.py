"""Runtime harness: daemons, sessions and overhead measurement.

* :mod:`~repro.runtime.daemon` — wraps a governor into the engine's
  :class:`~repro.sim.observers.ScheduledRuntime` protocol, owning all cost
  accounting (invocation time, monitoring power);
* :mod:`~repro.runtime.session` — ``run_application``: one workload under
  one governor on one system, returning a :class:`RunResult`;
* :mod:`~repro.runtime.overhead` — the paper's Table 2 procedure: idle
  runs isolating each runtime's power and invocation overhead;
* :mod:`~repro.runtime.supervisor` — ``SupervisedDaemon``: retry,
  exception containment, fail-safe actuation and degraded-mode accounting
  around a daemon (the crash-proof deployment shell).
"""

from repro.runtime.daemon import MonitorDaemon
from repro.runtime.session import RunResult, run_application, make_governor
from repro.runtime.overhead import OverheadResult, measure_overhead
from repro.runtime.batch import AppWindow, BatchResult, run_batch
from repro.runtime.supervisor import SupervisedDaemon, SupervisorConfig

__all__ = [
    "MonitorDaemon",
    "SupervisedDaemon",
    "SupervisorConfig",
    "RunResult",
    "run_application",
    "make_governor",
    "OverheadResult",
    "measure_overhead",
    "AppWindow",
    "BatchResult",
    "run_batch",
]
