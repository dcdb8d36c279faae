"""The repository benchmark: one workload, one seed, one measured run.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same operations untraced and then traced, and reports per-layer counts
and self times.  Either way every operation's simulated output is reduced
to a digest, checked against its own repeats and, at the default seed,
against ``reference_digests.json``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Full results, the host fingerprint, the Chrome trace and the per-layer
table are written under ``.bench_out/`` in the working directory.

``--write-reference`` regenerates the reference digests at the default
seed; do that only in a change that says why the simulated output moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_digests.json"
OUT_DIR = Path(".bench_out")

#: Set-up samples per untraced run: this process plus fresh child processes.
SETUP_SAMPLES = 3

#: The seed whose digests are pinned by the reference file.
DEFAULT_SEED = 1

#: :func:`probe_s` on the 2-vCPU Intel Xeon VM the benchmark was built on,
#: while that host was quiet.  Timings are scaled to this probe speed.
REF_PROBE_S = 0.0021

#: Metric names and units come from the contract, so the two cannot drift.
CONTRACT = ROOT / "BENCHMARK.json"


def contract_units(kind: str) -> Dict[str, str]:
    """``name -> unit`` for the ``end_to_end`` or ``per_layer`` metrics."""
    data = json.loads(CONTRACT.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in data[kind]}


class Checker:
    """Counts attempted and failed ops and checks digests.

    A key's first digest in the run is its local reference; at the default
    seed the reference file's digest takes that role from the start.
    """

    def __init__(self, reference: Optional[Dict[str, str]]) -> None:
        self.expected: Dict[str, str] = dict(reference or {})
        self.from_file = reference is not None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, key: str, digest: Optional[str], error: str = "") -> bool:
        self.attempted += 1
        if not error and digest is not None:
            want = self.expected.get(key)
            if want is None and self.from_file:
                error = "no reference digest for this op at the default seed"
            elif want is None:
                self.expected[key] = digest
            elif want != digest:
                error = f"digest {digest[:12]} != expected {want[:12]}"
        if error:
            self.failed += 1
            self.problems.append(f"{key}: {error}")
            print(f"FAILED op {key}: {error}", file=sys.stderr)
            return False
        return True


def fingerprint() -> Dict[str, Any]:
    """What the numbers were measured on and with."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0:
                git_rev = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # The checkout may not be a git repository, so also hash the sources.
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    from bench_workloads import nproc

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu_model": cpu,
        "git_rev": git_rev,
        "src_sha256": h.hexdigest()[:16],
    }


def load_reference(size: str, workload: str) -> Dict[str, str]:
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return data["digests"][size][workload]


def attempt(wl, key: str, *, serial: bool = False):
    """One op, timed: ``(outcome or None, error, wall seconds)``.

    An exception becomes the op's error, so it is a failed op, not a
    crashed run.
    """
    t0 = time.perf_counter()
    try:
        outcome = wl.run_op(key, serial=serial)
    except Exception:  # noqa: BLE001 - any op error counts as a failure
        traceback.print_exc()
        error = traceback.format_exc().strip().splitlines()[-1]
        return None, error, time.perf_counter() - t0
    return outcome, outcome.error, time.perf_counter() - t0


def run_op(wl, key: str, checker: Checker, *, serial: bool = False):
    """One op, timed and checked; returns the outcome (None if failed) and wall."""
    outcome, error, wall = attempt(wl, key, serial=serial)
    ok = checker.check(key, outcome.digest if outcome else None, error)
    return (outcome if ok else None), wall


def set_up(workload: str, seed: int, size: str, workdir: str):
    """Import the program, build the workload and run its warm-up op.

    Returns the workload, the warm-up ``(key, digest, error)`` and the
    set-up time.
    """
    t0 = time.perf_counter()
    import bench_workloads

    wl = bench_workloads.WORKLOADS[workload](seed, size, workdir)
    wl.setup()
    key = wl.keys()[0]
    warm, error, _ = attempt(wl, key)
    digest = warm.digest if warm else None
    return wl, (key, digest, error), time.perf_counter() - t0


def child_setup(args, checker: Checker) -> Optional[float]:
    """One set-up in a fresh interpreter; checks its warm-up op and returns
    its time, or None when the child failed (a failed op)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
        child = json.loads(out.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        stderr = getattr(exc, "stderr", "") or ""
        checker.check("setup (fresh process)", None,
                      f"{type(exc).__name__}: {stderr.strip()[-500:] or exc}")
        return None
    checker.check(child["warmup_key"], child["warmup_digest"], child["warmup_error"])
    return child["setup_s"]


def probe_s() -> float:
    """Best of three timings of a fixed pure-Python loop.

    Shared hosts slow the CPU by up to 1.7x in spells of seconds to
    minutes that no code change causes; an op's CPU time grows with its
    wall time, so there is no steal time to subtract.  The probe does not
    touch the program, so only the host's speed moves it, and it slows in
    step with the simulator's Python-bound loops.  Each timing is scaled
    by ``REF_PROBE_S`` over the mean of the probes taken just before and
    just after it.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = [0.0] * 64
        total = 0.0
        for i in range(20_000):
            x = table[(i * 7) & 63] * 0.5 + i
            table[i & 63] = x
            total += x * 1e-6
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall: float, probe_before: float, probe_after: float) -> float:
    """``wall`` at the reference probe speed."""
    return wall * 2.0 * REF_PROBE_S / (probe_before + probe_after)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(args, wl, setup_s: float, checker: Checker, out: Dict[str, Any]):
    """``setup_s`` is this process's set-up, already scaled."""
    samples = [setup_s]
    probe = probe_s()
    for _ in range(SETUP_SAMPLES - 1):
        child_s = child_setup(args, checker)
        after = probe_s()
        if child_s is not None:
            samples.append(scaled(child_s, probe, after))
        probe = after
    # Closed loop: ops back to back, cycling over the keys, for at least
    # the run time and at least one full cycle.  ``records`` hold the
    # scaled wall times; the raw ones and the probes go to the result file.
    keys = wl.keys()
    records = []
    raw = []
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    while len(records) < len(keys) or time.perf_counter() < deadline:
        key = keys[len(records) % len(keys)]
        outcome, wall = run_op(wl, key, checker)
        after = probe_s()
        records.append((key, scaled(wall, probe, after), outcome))
        raw.append((key, wall, after))
        probe = after
    elapsed = time.perf_counter() - t0
    # Statistics use whole cycles only, so every run times the same op mix.
    timed = records[: len(records) // len(keys) * len(keys)]
    # Each key's median over its repeats, then the median over keys, so
    # every key weighs the same however many times it ran.
    walls: Dict[str, List[float]] = {}
    rates: Dict[str, List[float]] = {}
    for key, wall, outcome in timed:
        if outcome is not None:
            walls.setdefault(key, []).append(wall)
            rates.setdefault(key, []).append(outcome.sim_node_s / wall)
    metrics = {
        "sim_node_s_per_s": median_of_medians(rates),
        "op_p50_ms": 1000.0 * median_of_medians(walls),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.update(
        setup_samples_s=samples,
        measured_s=elapsed,
        ops=len(records),
        timed_ops=len(timed),
        op_walls_s=[(key, wall) for key, wall, _ in raw],
        op_probes_s=[after for _, _, after in raw],
        host_speed=REF_PROBE_S / statistics.median(after for _, _, after in raw),
        summary=wl.summary([o for _, _, o in records if o is not None]),
    )
    return metrics


def median_of_medians(samples: Dict[str, List[float]]) -> float:
    if not samples:
        return 0.0
    return statistics.median(statistics.median(values) for values in samples.values())


def _self(tracer, *names: str) -> float:
    return sum(tracer.self_s.get(name, 0.0) for name in names)


def traced(args, wl, checker: Checker, out: Dict[str, Any]):
    import bench_trace

    keys = wl.keys()
    is_fleet = wl.name == "fleet"
    tracer = bench_trace.Tracer()
    # A fleet's physics runs in pool workers, out of sight of wrappers in
    # this process, so its traced op runs serially; one more pooled op,
    # wrapped only on parent-side layers (forked workers inherit whatever
    # is installed), gives the pool's figures.
    pool = bench_trace.Tracer() if is_fleet else None

    def traced_op(tr, targets, key: str, op_id: int, serial: bool):
        handle = bench_trace.install(tr, targets)
        try:
            tr.begin_op(op_id)
            return run_op(wl, key, checker, serial=serial)
        finally:
            handle.restore()
            tr.end_op()

    plain_s: List[float] = []
    traced_s: List[float] = []
    pooled_s: List[float] = []
    outcomes = []
    deadline = time.perf_counter() + args.seconds
    while len(plain_s) < min(2, len(keys)) or time.perf_counter() < deadline:
        op_id = len(plain_s)
        key = keys[op_id % len(keys)]
        # Each op runs untraced, then traced, back to back, so host-speed
        # drift hits both alike.  The checker holds the untraced digest,
        # so a traced op whose digest differs counts as failed.
        plain_s.append(run_op(wl, key, checker, serial=is_fleet)[1])
        outcome, wall = traced_op(tracer, bench_trace.ALL_TARGETS, key, op_id, is_fleet)
        traced_s.append(wall)
        if outcome is not None:
            outcomes.append(outcome)
        if pool is not None:
            pooled_s.append(traced_op(pool, bench_trace.FLEET_TARGETS, key, op_id, False)[1])
    leftover = bench_trace.installed_wrappers()
    if leftover:
        checker.check("restore", None, f"wrappers still installed: {leftover}")
    run_keys = [keys[i % len(keys)] for i in range(len(plain_s))]

    infos = [o.info for o in outcomes]

    def info_sum(field: str) -> float:
        return float(sum(i.get(field, 0) for i in infos))

    validated = info_sum("guard_validated")
    # Workloads without a pooled pass report the pool's figures as zero.
    par = pool if pool is not None else bench_trace.Tracer()
    metrics = {
        "hw.step.calls": tracer.calls.get("hw.step", 0),
        "hw.step.self_s": _self(tracer, "hw.step"),
        "telemetry.tick.self_s": _self(tracer, "telemetry.tick"),
        "telemetry.actuate.calls": tracer.calls.get("telemetry.actuate", 0),
        "telemetry.actuate.self_s": _self(tracer, "telemetry.actuate"),
        "workloads.advance.self_s": _self(tracer, "workloads.advance", "workloads.current"),
        "sim.engine.self_s": _self(tracer, "sim.engine"),
        "sim.observers.self_s": _self(tracer, "sim.observers"),
        "sim.record.self_s": _self(tracer, "sim.record"),
        "sim.trace_bytes": tracer.counters.get("sim.trace_bytes", 0.0),
        "runtime.cycle.calls": tracer.calls.get("runtime.cycle", 0),
        "runtime.cycle.self_s": _self(tracer, "runtime.cycle"),
        "runtime.failsafes": info_sum("failsafes"),
        "governors.decide.calls": tracer.calls.get("governors.decide", 0),
        "governors.decide.self_s": _self(tracer, "governors.decide"),
        "guard.reads": tracer.calls.get("guard.read", 0),
        "guard.self_s": _self(tracer, "guard.read", "guard.actuate"),
        "guard.quarantine_ratio": info_sum("guard_quarantines") / validated if validated else 0.0,
        "faults.injections": info_sum("injections"),
        "backends.switches": info_sum("switches"),
        "parallel.map_s": par.total_s.get("parallel.map", 0.0),
        "parallel.tasks": par.counters.get("parallel.tasks", 0.0),
        "parallel.failed_tasks": par.counters.get("parallel.failed_tasks", 0.0),
        "parallel.result_bytes": par.counters.get("parallel.result_bytes", 0.0),
        "parallel.efficiency": statistics.median(
            p / (wl.workers * q) for p, q in zip(plain_s, pooled_s)
        ) if pooled_s else 0.0,
        "cluster.aggregate_s": _self(par, "cluster.run_fleet"),
        "cluster.requeues": info_sum("requeues"),
        "coordinator.loop.self_s": _self(tracer, "coordinator.loop"),
        "coordinator.arbitrate.calls": tracer.calls.get("coordinator.arbitrate", 0),
        "coordinator.arbitrate.self_s": _self(tracer, "coordinator.arbitrate"),
        "coordinator.receive.self_s": _self(tracer, "coordinator.receive"),
        "coordinator.journal.appends": tracer.calls.get("coordinator.journal", 0),
        "coordinator.journal.self_s": _self(tracer, "coordinator.journal"),
        "obs.tsdb.records": tracer.calls.get("obs.tsdb.record", 0),
        "obs.tsdb.record_s": _self(tracer, "obs.tsdb.record"),
        "obs.tsdb.merge_s": _self(tracer, "obs.tsdb.merge"),
        "obs.alerts.evals": tracer.calls.get("obs.alerts.eval", 0),
        "obs.alerts.eval_s": _self(tracer, "obs.alerts.eval"),
        "obs.alerts.fired": tracer.counters.get("obs.alerts.fired", 0.0),
        "trace_overhead_pct": 100.0 * (
            statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1.0
        ),
    }
    OUT_DIR.mkdir(exist_ok=True)
    meta = {"workload": wl.name, "seed": args.seed, "ops": run_keys}
    tracer.write_chrome_trace(str(OUT_DIR / f"{wl.name}.trace.json"), meta)
    table = tracer.layer_table()
    if pool is not None:
        pool.write_chrome_trace(str(OUT_DIR / f"{wl.name}.pool.trace.json"), meta)
        table += "\n\npooled pass (parent-side spans only):\n" + pool.layer_table()
    (OUT_DIR / f"{wl.name}.layers.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    out.update(ops=len(run_keys), untraced_s=plain_s, traced_s=traced_s, pooled_s=pooled_s)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "fleet", "coordinate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.write_reference:
            return write_reference(workdir)
        if args.setup_only:
            _, (key, digest, error), setup_s = set_up(args.workload, args.seed, args.size, workdir)
            print(json.dumps({"setup_s": setup_s, "warmup_key": key,
                              "warmup_digest": digest, "warmup_error": error}))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = load_reference(args.size, args.workload)
    checker = Checker(reference)
    probe = probe_s()
    wl, warm, setup_s = set_up(args.workload, args.seed, args.size, workdir)
    setup_s = scaled(setup_s, probe, probe_s())
    checker.check(*warm)
    out: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "host": fingerprint(),
    }
    if args.trace:
        values = traced(args, wl, checker, out)
        units = contract_units("per_layer")
    else:
        values = untraced(args, wl, setup_s, checker, out)
        units = contract_units("end_to_end")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    out.update(metrics=metrics, attempted=checker.attempted, failed=checker.failed,
               problems=checker.problems)
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, default=repr)
    print("host: " + json.dumps(out["host"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"ops {out['ops']} attempted {checker.attempted} failed {checker.failed}")
    if "host_speed" in out:
        print(f"host speed against the reference probe: {out['host_speed']:.3f}")
    for name, value in out.get("summary", {}).items():
        print(f"{name:32s} {value:>16.6g} (simulated)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def write_reference(workdir: str) -> int:
    """Digest every op of every workload and size at the default seed."""
    import bench_workloads

    digests: Dict[str, Dict[str, Dict[str, str]]] = {}
    for size in bench_workloads.SIZES:
        for name, cls in bench_workloads.WORKLOADS.items():
            wl = cls(DEFAULT_SEED, size, workdir)
            wl.setup()
            entry = digests.setdefault(size, {}).setdefault(name, {})
            for key in wl.keys():
                outcome = wl.run_op(key)
                if outcome.error:
                    print(f"{size}/{name}/{key}: {outcome.error}", file=sys.stderr)
                    return 1
                entry[key] = outcome.digest
                print(f"{size}/{name}/{key}: {outcome.digest}")
    data = {"seed": DEFAULT_SEED, "digests": digests}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
