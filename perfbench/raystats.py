"""Per-operator numbers parsed from the text of ``Dataset.stats()``."""

from __future__ import annotations

import re

_HEAD = re.compile(r"^\s*(Operator|Suboperator) \d+ (.+?): (.*)$")
_TASKS = re.compile(r"(\d+) tasks executed")
_WALL = re.compile(
    r"Remote wall time: ([\d.]+)(us|ms|s) min, ([\d.]+)(us|ms|s) max, "
    r"([\d.]+)(us|ms|s) mean, ([\d.]+)(us|ms|s) total"
)
_BYTES = re.compile(r"Output size bytes per block: .* (\d+) total")
_ROWS = re.compile(r"Output num rows per block: .* (\d+) total")
_SPILL = re.compile(r"Spilled to disk: (\d+)MB")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(text: str) -> dict:
    """``{"operators": [...], "spilled_bytes": int}``. Each operator is a
    dict with ``name``, ``sub`` (suboperator of an all-to-all op),
    ``parent`` (enclosing operator name), ``tasks``, ``wall_min/max/
    mean/total`` (s, per block), ``out_bytes`` and ``out_rows``.
    Sections marked ``[execution cached]`` repeat an earlier operator
    and are skipped."""
    ops: list[dict] = []
    cur = None
    top = None
    spilled = 0
    for line in text.splitlines():
        m = _HEAD.match(line)
        if m:
            kind, name, rest = m.groups()
            cur = None
            if kind == "Operator":
                top = name
            if "[execution cached]" in rest:
                continue
            t = _TASKS.search(rest)
            cur = {
                "name": name,
                "sub": kind == "Suboperator",
                "parent": top if kind == "Suboperator" else None,
                "tasks": int(t.group(1)) if t else 0,
                "wall_min": 0.0,
                "wall_max": 0.0,
                "wall_mean": 0.0,
                "wall_total": 0.0,
                "out_bytes": 0,
                "out_rows": 0,
            }
            ops.append(cur)
            continue
        s = _SPILL.search(line)
        if s:
            spilled = max(spilled, int(s.group(1)) * 1_000_000)
        if cur is None:
            continue
        w = _WALL.search(line)
        if w:
            g = w.groups()
            vals = [float(g[i]) * _UNIT[g[i + 1]] for i in range(0, 8, 2)]
            cur["wall_min"], cur["wall_max"], cur["wall_mean"], cur["wall_total"] = vals
        b = _BYTES.search(line)
        if b:
            cur["out_bytes"] = int(b.group(1))
        r = _ROWS.search(line)
        if r:
            cur["out_rows"] = int(r.group(1))
    return {"operators": ops, "spilled_bytes": spilled}


def total_tasks(parsed: dict) -> int:
    return sum(op["tasks"] for op in parsed["operators"])


def first_op(parsed: dict, prefix: str) -> dict | None:
    for op in parsed["operators"]:
        if op["name"].startswith(prefix):
            return op
    return None
