"""Toy-size smoke test of the benchmark.

Runs every workload at a small input scale and checks that the last
output line names every metric with its unit, that the DuckDB oracle
check passes, and that the traced spans nest. Takes a few minutes
(each untraced run starts Ray twice).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import spec  # noqa: E402
from perfbench.host import Stopwatch  # noqa: E402
from perfbench.ledger import Ledger  # noqa: E402

WORKLOADS = [w["name"] for w in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == spec.benchmark_json()


def test_ledger_self_time():
    led = Ledger("t")
    with led.span("root"):
        with led.span("a"):
            pass
        with led.span("b"):
            pass
    st = led.self_times()
    root, a, b = led.spans
    assert root.start <= a.start <= a.end <= b.start <= b.end <= root.end
    assert st[0] == pytest.approx(
        (root.end - root.start) - sum(s.end - s.start for s in led.spans[1:])
    )


def test_stopwatch_takes_out_at_most_the_wall_time():
    with Stopwatch() as sw:
        sum(range(200_000))
    assert 0.0 <= sw.stolen_share <= 1.0
    assert 0.0 <= sw.s <= sw.wall


def test_end_to_end_metrics_named():
    res = _result(_run("--workload", "flagship_join", "--seed", "7", "--seconds", "1",
                       "--trace", "0", "--scale", "0.05"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {n for n, *_ in spec.END_TO_END}
    for name, unit, *_ in spec.END_TO_END:
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    res = _result(_run("--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", "1", "--scale", "0.05"))
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {n for n, *_ in spec.PER_LAYER}
    for name, unit, _ in spec.PER_LAYER:
        assert res["metrics"][name]["unit"] == unit
    with open(os.path.join(ROOT, ".perfbench_work", f"trace-{workload}-seed7.json")) as f:
        trace = json.load(f)
    spans = trace["spans"]
    assert spans and all(s["run_id"] == trace["run_id"] for s in spans)
    for s in spans:
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
    assert min(trace["self_s"]) >= -1e-9


def test_fails_without_engine():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    try:
        proc = _run("--workload", "flagship_join", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
