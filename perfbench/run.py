"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload flagship_join --seed 1 --seconds 10 --trace 0

An untraced run sets up ``SETUP_REPS`` times (Ray start, seeded inputs,
DuckDB oracle, checked warm-up iteration) and reports the median as
``setup_s``; a traced run sets up once. With ``--trace 0`` one
closed-loop client runs timed
iterations for ``--seconds / SETUP_REPS`` after each set-up, so the
``--seconds`` measured are spread over the whole run, and every output
is checked against the oracle; the end-to-end metrics are medians over
all these untraced iterations. End-to-end times are wall times less
the share the hypervisor stole (``host.Stopwatch``), and so are the
per-layer times; the spans in the ledger file are plain wall times.
With ``--trace 1`` the ``--seconds``
after the set-up go to the traced ledger instead, in rounds of an
untraced reference iteration, the Ray pass over cumulative pipeline
prefixes and the single-process kernel pass; per-layer metrics come
from it. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is non-zero when any output fails its check.

``--write-benchmark-json`` regenerates the repository's
``BENCHMARK.json`` from ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.host import Stopwatch, host_cpus  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
RAY_TMP = os.path.join(ROOT, ".pbray")
SETUP_REPS = 2
OBJECT_STORE_BYTES = 320 * 1024 * 1024
# Ray's session sockets live under its temp dir, about 64 bytes below
# it, and a Unix socket path is limited to 107 bytes: a checkout path
# longer than about 37 bytes falls back to Ray's default temp dir.
_MAX_RAY_TMP = 43


def _ray_tmp() -> str | None:
    return RAY_TMP if len(RAY_TMP) <= _MAX_RAY_TMP else None


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    tmp = _ray_tmp()
    if tmp:
        os.makedirs(tmp, exist_ok=True)
    else:
        print(f"note: {RAY_TMP} is too long for Ray's sockets; using Ray's default temp dir",
              file=sys.stderr)
    ray.init(
        address="local",
        num_cpus=host_cpus(),
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=tmp,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_auto_log_stats = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    from perfbench.procmem import descendants

    if ray.is_initialized():
        ray.shutdown()
    deadline = time.monotonic() + 20
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in descendants():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while descendants() and time.monotonic() < deadline + 10:
        time.sleep(0.1)


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    iterations beyond it, and never below the median."""
    w = sorted(walls)
    k = max(len(w) - 10, len(w) // 2 + 1)
    return w[k - 1], 100.0 * k / len(w)


def _attempt(fn, check) -> tuple[bool, Stopwatch | None]:
    """Run and check one iteration; an exception counts as a failure."""
    try:
        with Stopwatch() as sw:
            out = fn()
        return bool(check(out)), sw
    except Exception:  # noqa: BLE001 - a failed iteration is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return False, None


class ClosedLoop:
    """One closed-loop client: the next timed iteration starts only when
    the previous one has ended and been checked. ``run_for`` can be
    called once per Ray session; the results pool every window."""

    def __init__(self):
        self.walls: list[float] = []
        self.failed = 0
        self.peak_mb = 0.0
        self.stolen: list[float] = []

    def run_for(self, wl, seconds: float) -> None:
        from perfbench.procmem import PeakRss

        first = len(self.walls)
        deadline = time.perf_counter() + seconds
        with PeakRss() as mem:
            while len(self.walls) == first or time.perf_counter() < deadline:
                ok, sw = _attempt(wl.iterate, wl.check)
                self.walls.append(sw.s if sw else float("nan"))
                self.stolen.append(sw.stolen_share if sw else float("nan"))
                self.failed += not ok
        self.peak_mb = max(self.peak_mb, mem.peak_mb)

    def result(self, input_rows: int) -> dict:
        good = [w for w in self.walls if not math.isnan(w)] or [float("nan")]
        wall = statistics.median(good)
        tail_s, tail_pct = tail(good)
        return {
            "attempted": len(self.walls),
            "failed": self.failed,
            "metrics": {
                "input_rows_per_s": input_rows / wall,
                "wall_s": wall,
                "wall_s_tail": tail_s,
                "peak_rss_mb": self.peak_mb,
            },
            "notes": {
                "iterations": len(self.walls),
                "tail_percentile": tail_pct,
                "wall_s each": " ".join(f"{w:.3f}" for w in self.walls),
                "stolen share each": " ".join(f"{x:.3f}" for x in self.stolen),
            },
        }


def traced(wl, seconds: float, run_id: str) -> dict:
    from perfbench import raystats, spec
    from perfbench.ledger import Ledger
    from perfbench.workloads import KERNEL_LAYERS

    led = Ledger(run_id)
    deadline = time.perf_counter() + 0.95 * seconds
    attempted = failed = 0

    # Each round runs, back to back: the full pipeline untraced (for
    # trace.overhead_ratio), the Ray pass over cumulative prefixes, and
    # the single-process kernel pass. Interleaved, the three parts see
    # the same host speed, which drifts over tens of seconds. Each
    # prefix, and each kernel pass as a whole, is also timed with a
    # Stopwatch; the layer times below are spans less the stolen share.
    *_, (_, full, want_full) = wl.prefixes()
    ref, prefix_runs, kernel_stolen = [], {}, []
    stats_text = ""
    rounds = 0
    while rounds < 3 or time.perf_counter() < deadline:
        ok, sw = _attempt(full, lambda out: out[0] == want_full)
        ref.append(sw.s if sw else float("nan"))
        attempted += 1
        failed += not ok
        # the traced time of a prefix includes reading its Dataset.stats()
        with led.span("ray_pass"):
            for name, fn, want in wl.prefixes():
                with Stopwatch() as sw, led.span(f"prefix.{name}"):
                    rows, ds = fn()
                    text = ds.stats() if ds is not None else ""
                prefix_runs.setdefault(name, []).append(sw.s)
                attempted += 1
                failed += rows != want
                stats_text = text or stats_text
        with Stopwatch() as sw, led.span("kernel_pass"):
            wl.kernel_pass(led, record=rounds == 0)
        kernel_stolen.append(sw.stolen_share)
        rounds += 1
    prefix_s = {name: statistics.median(v) for name, v in prefix_runs.items()}
    full_wall = list(prefix_s.values())[-1]
    per_round = led.by_root("kernel_pass")
    kernel_s = {
        layer: statistics.median(
            rd.get(layer, 0.0) * (1.0 - share) for rd, share in zip(per_round, kernel_stolen)
        )
        for layer in KERNEL_LAYERS
    }

    a, f = wl.extra_traced(led)
    attempted += a
    failed += f

    stats = raystats.parse_stats(stats_text)
    m = {name: 0.0 for name, *_ in spec.PER_LAYER}
    m.update({f"{layer}_s": t for layer, t in kernel_s.items()})
    m.update(wl.layer_metrics(led, prefix_s, stats))
    explained = sum(kernel_s.values()) + sum(m[k] for k in wl.ray_layers)
    m["ray_data.tasks"] = raystats.total_tasks(stats)
    m["ray_data.spilled_bytes"] = stats["spilled_bytes"]
    m["ray_data.overhead_s"] = full_wall - explained
    m["trace.overhead_ratio"] = full_wall / statistics.median(ref)
    if wl.gap:
        first, last, layers = wl.gap
        added = prefix_s[last] - prefix_s[first]
        m["ledger.kernel_gap_ratio"] = abs(added - sum(kernel_s[k] for k in layers)) / full_wall
    ledger_file = os.path.join(WORK, f"trace-{wl.name}-seed{wl.seed}.json")
    led.dump(
        ledger_file,
        {
            "workload": wl.name,
            "seed": wl.seed,
            "prefix_s": prefix_s,
            "kernel_s": kernel_s,
            "traced_wall_s": full_wall,
            "untraced_wall_s": ref,
            "prefix_runs_s": prefix_runs,
            "kernel_pass_stolen_share": kernel_stolen,
            "operators": stats["operators"],
            "metrics": m,
        },
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": m,
        "notes": {
            "prefix_s": prefix_s,
            "traced_wall_s": full_wall,
            "kernel_self_s_sum": sum(kernel_s.values()),
            "ledger_file": os.path.relpath(ledger_file, ROOT),
        },
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: float) -> int:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    from perfbench import spec
    from perfbench.workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    setup_s, phases, warm_ok, wl = [], [], True, None
    loop = ClosedLoop()
    reps = 1 if trace else SETUP_REPS
    try:
        for k in range(reps):
            if k:
                stop_ray()
            with Stopwatch() as sw:
                t = [time.perf_counter()]
                start_ray()
                t.append(time.perf_counter())
                wl = WORKLOADS[name](seed, scale, WORK)
                t.append(time.perf_counter())
                wl.compute_oracle()
                t.append(time.perf_counter())
                warm_ok &= bool(wl.warm_up())
                t.append(time.perf_counter())
            setup_s.append(sw.s)
            phases.append([b - a for a, b in zip(t, t[1:])])
            if not trace:
                loop.run_for(wl, seconds / SETUP_REPS)
        if trace:
            res = traced(wl, seconds, f"{name}-{seed}-{os.getpid()}")
        else:
            res = loop.result(wl.input_rows)
    finally:
        stop_ray()
        if wl is not None:
            shutil.rmtree(wl.dir, ignore_errors=True)
        if _ray_tmp():
            shutil.rmtree(_ray_tmp(), ignore_errors=True)

    failed = res["failed"] + (not warm_ok)
    attempted = res["attempted"] + reps
    metrics = dict(res["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setup_s)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  nproc {host_cpus()}  "
          f"ray num_cpus {host_cpus()}  scale {scale}")
    print(f"setup_s per repetition: {', '.join(f'{s:.3f}' for s in setup_s)}")
    print("setup phases (median s): " + ", ".join(
        f"{p} {statistics.median(r[i] for r in phases):.3f}"
        for i, p in enumerate(("ray_start", "inputs", "oracle", "warm_up"))))
    for key, val in res["notes"].items():
        print(f"{key}: {val}")
    print(f"{'failed_ratio':40s} {failed / attempted:14.6g} ratio   ({failed} of {attempted} checks)")
    for key, val in metrics.items():
        print(f"{key:40s} {val:14.6g} {spec.UNITS[key]}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; the last line merges them."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        one = json.loads(lines[-1])
        merged["correct"] &= one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
        rc = rc or proc.returncode
    print(json.dumps(merged))
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="input size multiplier (tests)")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "rsgislib_ray", "__init__.py")):
        print(f"error: engine sources (rsgislib_ray/) not found under {ROOT}", file=sys.stderr)
        return 2
    from perfbench import spec
    from perfbench.workloads import WORKLOADS

    if args.write_benchmark_json:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main())
