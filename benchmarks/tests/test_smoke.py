"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest benchmarks/tests -q

Each workload runs end to end through ``run.py`` (untraced and traced), so
the harness, its checks and its layer table cannot drift away from the
library or from ``BENCHMARK.json`` unnoticed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import pace  # noqa: E402
from tracing import metric_specs  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import Op, ReportedFailure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(tmp_path, *args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args,
           "--out-dir", str(tmp_path / "out")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def test_spec_matches_harness():
    assert SPEC["per_layer"] == metric_specs()
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert SPEC["paths"] == ["benchmarks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced(workload, tmp_path):
    proc = _run(tmp_path, "--workload", workload, "--seed", "2", "--seconds", "0.1",
                "--trace", "0", "--size", "tiny")
    result = _result(proc)
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0
    assert "fail_ratio" in proc.stdout
    record = json.loads((tmp_path / "out" / f"{workload}-seed2-trace0.json").read_text())
    assert record["machine"]["cores"] >= 1 and "blas_threads" in record["machine"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced(workload, tmp_path):
    proc = _run(tmp_path, "--workload", workload, "--seed", "2", "--seconds", "0.1",
                "--trace", "1", "--size", "tiny")
    metrics = _result(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # the traced functions (cli.main included) cover nearly all of the
    # operations' wall time; they miss only untraced calls such as saft_plan
    assert 0.9 <= metrics["trace.self_sum_ratio"]["value"] <= 1.0 + 1e-9
    assert (tmp_path / "out" / f"{workload}-seed2-trace1-spans.npz").is_file()


def test_fails_without_sources(tmp_path):
    (tmp_path / "bare").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "bare")
    shutil.copytree(BENCH, tmp_path / "bare" / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path / "bare")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _FakeWorkload:
    def __init__(self, error):
        self.error = error

    def ops(self, iteration):
        def run():
            raise self.error

        return [Op("boom", run, lambda out: (None, {})),
                Op("fine", lambda: 1, lambda out: (None, {})),
                Op("wrong", lambda: 2, lambda out: ("value 2 != 1", {}))]


@pytest.mark.parametrize("error", [MemoryError(), ReportedFailure("exit code 2"),
                                   ValueError("bad")])
def test_failures_are_counted(error):
    events = []
    Runner(_FakeWorkload(error), events.append).run_pass("plain", 0)
    ops = {op["name"]: op for op in events[0]["ops"]}
    assert not ops["boom"]["ok"] and not ops["boom"]["wrong"]
    assert ops["fine"]["ok"]
    assert not ops["wrong"]["ok"] and ops["wrong"]["wrong"]


def test_pacer_scales_each_gap_by_its_probes():
    # probes (start, end, cpu, factor): the host runs at half speed around
    # the first two gaps and at full speed around the last one
    before = (0.0, 0.5, 0.0, 2.0)
    inside = [(1.5, 1.6, 0.1, 2.0), (2.6, 2.7, 0.1, 1.0)]
    after = (3.8, 3.9, 0.0, 1.0)
    timing = pace.Timing()
    pace._fill(timing, 0.5, 3.7, 3.2, before, inside, after)
    assert timing.raw_wall_s == pytest.approx(3.0)
    assert timing.raw_cpu_s == pytest.approx(3.0)
    # factors per gap: median(2, 2, 1) = 2, median(2, 2, 1, 1) = 1.5, median(2, 1, 1) = 1
    assert timing.wall_s == pytest.approx(1.0 / 2 + 1.0 / 1.5 + 1.0 / 1)
    assert timing.cpu_s == pytest.approx(timing.wall_s)
    assert timing.probes == 2


def test_pacer_probes_while_python_runs():
    pacer = pace.Pacer()
    with pacer.timed() as timing:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert timing.probes >= 2
    assert 0.2 < timing.raw_wall_s < 0.35
    assert timing.wall_s > 0 and timing.cpu_s > 0
