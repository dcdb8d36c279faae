"""Perf-trajectory publishing + regression sentry for the engine benches.

The ``BENCH_*.json`` files at the repo root record how the hot-loop
numbers move across PRs: each publish appends one entry (bench name,
metrics, interpreter, git revision) to the bench's trajectory file, so a
regression shows up as a kink in the series rather than a silent drift.

Publishing is opt-in — set ``REPRO_BENCH_PUBLISH=1`` — because bench
numbers from an arbitrary laptop or a loaded CI worker are noise. The
checked-in entries come from deliberate publish runs::

    REPRO_BENCH_PUBLISH=1 pytest benchmarks/test_perf_engine.py --benchmark-only

Only the perf-engine micro-benchmarks publish: the figure/table benches
time multi-second simulations whose wall time tracks the machine, not
the code.

The regression sentry is a second, orthogonal channel: set
``REPRO_BENCH_CURRENT=<path>`` to capture the current run's metrics to a
scratch file (always written, no publish gate — it is throwaway CI
state, not history), then diff it against the last trajectory entry per
bench::

    REPRO_BENCH_CURRENT=current.json pytest benchmarks/test_perf_engine.py --benchmark-only
    python benchmarks/perf_log.py compare --current current.json

``compare`` exits 1 when any ``*ticks_per_s`` metric regressed by more
than the tolerance (default 10 %) — the CI ``perf-sentry`` gate.

Every entry carries a host fingerprint (``nproc``, CPU model, numpy
version). Throughput only compares on like hardware, so ``compare`` gates
each bench against the newest trajectory entry from the *same* fingerprint
and reports every bench it skipped, and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy

__all__ = [
    "publish",
    "trajectory_path",
    "host_fingerprint",
    "last_entries",
    "compare_entries",
    "main",
]

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Only throughput metrics gate: ratios and counts are informational.
_GATED_SUFFIX = "ticks_per_s"


def trajectory_path(series: str = "perf_engine") -> Path:
    """Repo-root path of one bench series' trajectory file."""
    return _REPO_ROOT / f"BENCH_{series}.json"


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> Dict[str, object]:
    """What must match for two throughput entries to be comparable."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {"cpu_model": _cpu_model(), "nproc": nproc, "numpy": numpy.__version__}


def _entry(bench: str, metrics: Dict[str, float]) -> Dict[str, object]:
    return {
        "bench": bench,
        "metrics": {k: round(float(v), 3) for k, v in sorted(metrics.items())},
        "python": platform.python_version(),
        "host": host_fingerprint(),
        "git_rev": _git_rev(),
        "recorded_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def _append(path: Path, entry: Dict[str, object]) -> None:
    entries: List[Dict[str, object]] = []
    if path.exists():
        entries = json.loads(path.read_text())
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def publish(bench: str, metrics: Dict[str, float], *, series: str = "perf_engine") -> None:
    """Record one bench result.

    Two independent sinks:

    * the checked-in trajectory file — only with ``REPRO_BENCH_PUBLISH=1``
      (trajectory entries are deliberate acts, not side effects of every
      test run);
    * the ``REPRO_BENCH_CURRENT`` capture file, whenever that variable
      names a path — scratch state for ``compare``, never committed.

    Parameters
    ----------
    bench:
        Benchmark name (the test function, minus the ``test_`` prefix).
    metrics:
        Named scalar results — throughputs, ratios. Keys should stay
        stable across entries so the series plots.
    series:
        Which ``BENCH_<series>.json`` file to append to.
    """
    entry = _entry(bench, metrics)
    capture = os.environ.get("REPRO_BENCH_CURRENT")
    if capture:
        _append(Path(capture), entry)
    if os.environ.get("REPRO_BENCH_PUBLISH") == "1":
        _append(trajectory_path(series), entry)


def last_entries(entries: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """The newest entry per bench name, in file (= chronological) order."""
    latest: Dict[str, Dict[str, object]] = {}
    for entry in entries:
        latest[str(entry["bench"])] = entry
    return latest


def compare_entries(
    current: Sequence[Dict[str, object]],
    trajectory: Sequence[Dict[str, object]],
    *,
    tolerance: float = 0.10,
) -> Tuple[List[Tuple[str, str, float, float, float]], List[str], List[str]]:
    """Diff the current run against the trajectory, per bench and host.

    Each current bench is compared with the newest trajectory entry of the
    same bench *and* the same host fingerprint. Returns ``(rows, failures,
    skipped)``: one row per gated metric as ``(bench, metric, previous,
    current, delta_frac)`` (``delta_frac`` negative = slower), one failure
    string per ``*ticks_per_s`` metric that regressed by more than
    ``tolerance``, and one reason per bench that had no comparable
    baseline — a new bench, or one published only from other hosts (an
    entry without a fingerprint counts as another host).
    """
    rows: List[Tuple[str, str, float, float, float]] = []
    failures: List[str] = []
    skipped: List[str] = []
    for entry in last_entries(current).values():
        bench = str(entry["bench"])
        history = [e for e in trajectory if e["bench"] == bench]
        if not history:
            skipped.append(f"{bench}: new bench, no baseline")
            continue
        same_host = [e for e in history if e.get("host") == entry.get("host")]
        if not same_host:
            newest = history[-1]
            skipped.append(
                f"{bench}: no baseline from this host {entry.get('host')}; newest is "
                f"rev {newest.get('git_rev', '?')} on {newest.get('host', 'an unrecorded host')}"
            )
            continue
        prev = same_host[-1]
        prev_metrics = prev["metrics"]
        cur_metrics = entry["metrics"]
        assert isinstance(prev_metrics, dict) and isinstance(cur_metrics, dict)
        for metric in sorted(cur_metrics):
            if not metric.endswith(_GATED_SUFFIX) or metric not in prev_metrics:
                continue
            was = float(prev_metrics[metric])
            now = float(cur_metrics[metric])
            if was <= 0:
                continue
            delta = now / was - 1.0
            rows.append((bench, metric, was, now, delta))
            if delta < -tolerance:
                failures.append(
                    f"{bench}.{metric}: {now:,.0f} ticks/s is {-delta * 100:.1f}% "
                    f"below the last published {was:,.0f} "
                    f"(rev {prev.get('git_rev', '?')}, gate {tolerance * 100:.0f}%)"
                )
    return rows, failures, skipped


def _cmd_compare(args: argparse.Namespace) -> int:
    current_path = Path(args.current)
    if not current_path.exists():
        print(f"error: no current-run capture at {current_path}", file=sys.stderr)
        return 2
    trajectory_file = Path(args.trajectory) if args.trajectory else trajectory_path(args.series)
    trajectory = json.loads(trajectory_file.read_text()) if trajectory_file.exists() else []
    current = json.loads(current_path.read_text())
    rows, failures, skipped = compare_entries(current, trajectory, tolerance=args.tolerance)
    for reason in skipped:
        print(f"perf-sentry: skipped {reason}")
    if not rows:
        print("perf-sentry: no comparable benches (new benches or other hosts only)")
        return 0
    width = max(len(f"{b}.{m}") for b, m, _, _, _ in rows)
    print(f"perf-sentry vs {trajectory_file.name} (gate: -{args.tolerance * 100:.0f}%)")
    for bench, metric, was, now, delta in rows:
        flag = "REGRESSED" if delta < -args.tolerance else "ok"
        print(
            f"  {f'{bench}.{metric}':<{width}}  {was:>12,.0f} -> {now:>12,.0f}  "
            f"{delta * 100:+6.1f}%  {flag}"
        )
    for failure in failures:
        print(f"GATE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_log", description="bench trajectory tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmp_p = sub.add_parser(
        "compare", help="diff a current-run capture against the trajectory"
    )
    cmp_p.add_argument(
        "--current", required=True, metavar="PATH",
        help="capture file written via REPRO_BENCH_CURRENT",
    )
    cmp_p.add_argument(
        "--trajectory", default=None, metavar="PATH",
        help="trajectory file (default: BENCH_<series>.json at the repo root)",
    )
    cmp_p.add_argument("--series", default="perf_engine")
    cmp_p.add_argument(
        "--tolerance", type=float, default=0.10, metavar="FRACTION",
        help="max tolerated ticks_per_s regression (default 0.10)",
    )
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
