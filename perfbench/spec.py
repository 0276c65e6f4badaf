"""The benchmark's metric catalogue; ``BENCHMARK.json`` is generated from it."""

from __future__ import annotations

import json
import os

RUN_SECONDS = 10
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("input_rows_per_s", "rows/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("wall_s_tail", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better
PER_LAYER = [
    ("sources.read_s", "s", "lower"),
    ("sources.read_bytes", "bytes", "lower"),
    ("spans.parse_s", "s", "lower"),
    ("spans.geom_rows", "count", "higher"),
    ("spans.poly_rows", "count", "higher"),
    ("tiling.tag_s", "s", "lower"),
    ("tiling.off_frame_rows", "count", "lower"),
    ("strtree.build_s", "s", "lower"),
    ("strtree.entries_per_zone", "entries/zone", "lower"),
    ("spatial_join.probe_s", "s", "lower"),
    ("spatial_join.candidates_per_point", "pairs/point", "lower"),
    ("spatial_join.match_ratio", "ratio", "higher"),
    ("spatial_join.matches_per_point", "pairs/point", "higher"),
    ("spatial_join.take_s", "s", "lower"),
    ("spatial_join.out_rows", "count", "higher"),
    ("spatial_join.out_bytes_per_row", "B/row", "lower"),
    ("spatial_join.sortmerge_s", "s", "lower"),
    ("spatial_join.shuffle_bytes", "bytes", "lower"),
    ("spatial_join.shuffle_task_skew", "ratio", "lower"),
    ("spatial_join.hot_point_share", "ratio", "lower"),
    ("zonal.self_s", "s", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("checkpoint.partitions", "count", "higher"),
    ("checkpoint.bytes_per_input_byte", "B/B", "lower"),
    ("checkpoint.resume_s", "s", "lower"),
    ("checkpoint.resume_rows_recomputed", "count", "lower"),
    ("ray_data.tasks", "count", "lower"),
    ("ray_data.spilled_bytes", "bytes", "lower"),
    ("ray_data.overhead_s", "s", "lower"),
    ("ledger.kernel_gap_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {n: u for n, u, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    from perfbench.workloads import WORKLOADS

    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: str) -> str:
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w") as f:
        json.dump(benchmark_json(), f, indent=2)
        f.write("\n")
    return path
