"""Unit tests for the perf-trajectory sentry (``benchmarks/perf_log.py``)."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "perf_log.py")
_spec = importlib.util.spec_from_file_location("perf_log", _PATH)
perf_log = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_log)

HERE = {"cpu_model": "Xeon A", "nproc": 2, "numpy": "2.4.6"}
THERE = {"cpu_model": "EPYC B", "nproc": 16, "numpy": "2.4.6"}


def entry(bench, ticks_per_s, host=HERE, rev="abc1234"):
    return {"bench": bench, "metrics": {"ticks_per_s": ticks_per_s}, "host": host, "git_rev": rev}


class TestCompareEntries:
    def test_regression_over_the_gate_fails(self):
        rows, failures, skipped = perf_log.compare_entries(
            [entry("engine", 8000.0)], [entry("engine", 10000.0)], tolerance=0.10
        )
        assert rows == [("engine", "ticks_per_s", 10000.0, 8000.0, pytest.approx(-0.2))]
        assert len(failures) == 1 and failures[0].startswith("engine.ticks_per_s")
        assert skipped == []

    def test_within_the_gate_passes(self):
        rows, failures, _ = perf_log.compare_entries(
            [entry("engine", 9500.0)], [entry("engine", 10000.0)], tolerance=0.10
        )
        assert len(rows) == 1 and failures == []

    def test_new_bench_is_skipped(self):
        rows, failures, skipped = perf_log.compare_entries(
            [entry("brand_new", 1.0)], [entry("engine", 10000.0)]
        )
        assert rows == [] and failures == []
        assert skipped == ["brand_new: new bench, no baseline"]

    def test_foreign_host_is_skipped(self):
        # Published far faster on another machine: not a regression here.
        rows, failures, skipped = perf_log.compare_entries(
            [entry("engine", 5000.0)], [entry("engine", 50000.0, host=THERE, rev="0fe2f54")]
        )
        assert rows == [] and failures == []
        assert len(skipped) == 1
        assert skipped[0].startswith("engine: no baseline from this host")
        assert "0fe2f54" in skipped[0]

    def test_entry_without_fingerprint_counts_as_foreign(self):
        legacy = entry("engine", 50000.0)
        del legacy["host"]
        _, failures, skipped = perf_log.compare_entries([entry("engine", 5000.0)], [legacy])
        assert failures == [] and len(skipped) == 1

    def test_gates_against_newest_same_host_entry(self):
        trajectory = [
            entry("engine", 5000.0, rev="old"),
            entry("engine", 9000.0, rev="mine"),
            entry("engine", 50000.0, host=THERE, rev="theirs"),
        ]
        rows, failures, skipped = perf_log.compare_entries([entry("engine", 8800.0)], trajectory)
        assert [r[2] for r in rows] == [9000.0]
        assert failures == [] and skipped == []


def test_publish_records_host_fingerprint(tmp_path, monkeypatch):
    capture = tmp_path / "current.json"
    monkeypatch.setenv("REPRO_BENCH_CURRENT", str(capture))
    monkeypatch.delenv("REPRO_BENCH_PUBLISH", raising=False)
    perf_log.publish("engine", {"ticks_per_s": 1234.5})
    (recorded,) = json.loads(capture.read_text())
    assert recorded["host"] == perf_log.host_fingerprint()
    assert set(recorded["host"]) == {"cpu_model", "nproc", "numpy"}


def test_compare_cli_prints_skips(tmp_path, capsys):
    current = tmp_path / "current.json"
    trajectory = tmp_path / "trajectory.json"
    current.write_text(json.dumps([entry("engine", 5000.0)]))
    trajectory.write_text(json.dumps([entry("engine", 50000.0, host=THERE)]))
    code = perf_log.main(["compare", "--current", str(current), "--trajectory", str(trajectory)])
    assert code == 0
    out = capsys.readouterr().out
    assert "skipped engine: no baseline from this host" in out
