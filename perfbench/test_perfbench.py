"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run every workload at the ``tiny`` size, so the whole file takes about
a minute.  They are not part of the repository's tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _bench(cwd: Path, *args: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _copy_benchmark(dest: Path) -> Path:
    """A checkout holding only the benchmark and its contract; returns its run.py."""
    shutil.copytree(HERE, dest / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest / HERE.name / "run.py"


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_named_metric(tmp_path, workload, trace):
    proc = _bench(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        host = json.loads((tmp_path / ".bench_out" / f"{workload}-trace0.json").read_text())["host"]
        assert {"python", "numpy", "nproc", "cpu_model", "git_rev"} <= set(host)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digests_equal_untraced_and_wrappers_are_removed(tmp_path, workload):
    wl = bench_workloads.WORKLOADS[workload](2, "tiny", str(tmp_path))
    wl.setup()
    key = wl.keys()[0]
    plain = wl.run_op(key, serial=True)
    tracer = bench_trace.Tracer()
    handle = bench_trace.install(tracer, bench_trace.ALL_TARGETS)
    try:
        assert bench_trace.installed_wrappers()
        traced = wl.run_op(key, serial=True)
    finally:
        handle.restore()
    assert traced.digest == plain.digest
    assert sum(tracer.calls.values()) > 0
    assert bench_trace.installed_wrappers() == []


def test_wrappers_are_removed_when_the_traced_call_raises():
    from repro.hw.node import HeterogeneousNode

    original = HeterogeneousNode.__dict__["step"]
    handle = bench_trace.install(bench_trace.Tracer(), bench_trace.ALL_TARGETS)
    try:
        with pytest.raises(TypeError):
            HeterogeneousNode.step()  # wrong arity: the wrapper re-raises
    finally:
        handle.restore()
    assert HeterogeneousNode.__dict__["step"] is original
    assert bench_trace.installed_wrappers() == []


def test_self_time_excludes_child_spans():
    tracer = bench_trace.Tracer()

    def child():
        return sum(range(20_000))

    traced_child = tracer.wrap(child, "child")
    traced_parent = tracer.wrap(lambda: [traced_child() for _ in range(3)], "parent")
    traced_parent()
    assert tracer.calls == {"child": 3, "parent": 1}
    parent_total = tracer.total_s["parent"]
    assert tracer.self_s["parent"] == pytest.approx(
        parent_total - tracer.total_s["child"], abs=1e-9
    )
    ids = {span[0]: span for span in tracer.spans}
    assert all(ids[span[4]][1] == "parent" for span in tracer.spans if span[1] == "child")


def test_wrong_reference_registers_failed_ops(tmp_path):
    script = _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = script.parent / "reference_digests.json"
    reference = json.loads(path.read_text())
    digests = reference["digests"]["tiny"]["coordinate"]
    first = sorted(digests)[0]
    digests[first] = "0" * 64
    path.write_text(json.dumps(reference))
    proc = _bench(tmp_path, "--workload", "coordinate", "--seed", "1", "--seconds", "1",
                  "--size", "tiny", script=script)
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert first in proc.stderr


def test_failing_ops_are_counted_and_the_result_still_prints(tmp_path):
    script = _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    with open(script.parent / "bench_workloads.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\ndef _broken(self, key, *, serial=False):\n"
            "    raise RuntimeError('deliberately broken op')\n\n\n"
            "Coordinate.run_op = _broken\n"
        )
    proc = _bench(tmp_path, "--workload", "coordinate", "--seed", "2", "--seconds", "1",
                  "--size", "tiny", script=script)
    result = _result(proc)
    assert result["correct"] is False
    # Every op failed, the warm-up ops of this process and of the fresh
    # set-up processes included.
    assert result["failed"] == result["attempted"] >= 3
    assert "deliberately broken op" in proc.stderr


def test_exits_nonzero_without_the_program(tmp_path):
    script = _copy_benchmark(tmp_path)
    proc = _bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", script=script)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
