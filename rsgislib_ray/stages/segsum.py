"""Partial combine — the engine's ``GROUP BY key`` over exact int64
partial rows.

Every stage that pre-reduces each block to per-key integer partial
rows (README "Partials before groupbys" lists them) finishes here,
through one measured decision and two implementations that return
bit-identical rows. :func:`combine` and :func:`combine_dataset` take
the partials as held ``(ref, metadata)`` blocks, which
``partition.map_blocks(ds, partial, ...)`` builds: over a Dataset that
already holds its blocks, the partial kernel runs as one plain task
per block and no Ray Data execution starts.

- :func:`route` counts the partials' held blocks from their metadata
  against :data:`AUTO_NATIVE_ROWS` — the one adaptive choice;
- at or below it, :func:`combine_arrays` reduces on the driver:
  ``np.unique(return_inverse=True)`` per key column plus int64
  ``ufunc.at`` scatters, keys sorted in the result;
- above it, :func:`segment_sum` reduces distributed, with no driver
  pull of the partials, on ``stages/partition.py``'s plain tasks: one
  task per block splits its rows by the hash of their keys, and one
  task per partition reduces all the rows of its keys with the same
  kernel. No Ray Data all-to-all runs.

Ray's native ``groupby().aggregate(...)`` runs its combine per GROUP
in Python: it took 31 s at 1.2M rows / 1M keys, where the hash
partitions take 0.38 s at 3M rows / 1M keys on one CPU (BASELINE.md).

Key and value columns must be integer: a float column raises
``ValueError`` naming it, since int64 arithmetic would truncate it.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages import partition
from rsgislib_ray.stages.partition import held_blocks

_UFUNC = {"sum": np.add, "min": np.minimum, "max": np.maximum}
_INIT = {"sum": 0, "min": np.iinfo(np.int64).max, "max": np.iinfo(np.int64).min}

#: Partial row count above which :func:`route` picks the distributed
#: :func:`segment_sum` — below it one driver combine beats a full
#: shuffle (measured); above it, the driver pull is the 100x cap.
AUTO_NATIVE_ROWS = 2_000_000


def _keys(key_col: str | list[str]) -> list[str]:
    return [key_col] if isinstance(key_col, str) else list(key_col)


def _integer(name: str, col) -> np.ndarray:
    """``col`` as an int64 array (no copy when it already is one), or
    ValueError naming it: the combine is exact integer arithmetic, so a
    float column would be truncated."""
    a = np.asarray(col)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"segsum: column {name!r} is {a.dtype}, not an integer type")
    return a.astype(np.int64, copy=False)


def combine_arrays(
    keys: dict[str, np.ndarray],
    values: dict[str, np.ndarray],
    aggs: list[str] | None = None,
) -> pa.Table:
    """``SELECT keys, AGG(v1), ... GROUP BY keys ORDER BY keys`` over
    in-memory int64 columns: the driver kernel. ``aggs`` picks
    per-column reducers from sum/min/max (default: all sum). Several
    key columns are ranked one at a time, each step re-ranking
    ``rank * n_unique + code`` so codes stay below ``rows**2``. Zero
    rows give a zero-row table with the same int64 columns."""
    aggs = aggs or ["sum"] * len(values)
    cols = [_integer(n, k) for n, k in keys.items()]
    uniq, inv = np.unique(cols[0], return_inverse=True)
    if len(cols) == 1:
        out = {next(iter(keys)): uniq}
    else:
        for c in cols[1:]:
            u, code = np.unique(c, return_inverse=True)
            uniq, inv = np.unique(inv * len(u) + code, return_inverse=True)
        first = np.empty(len(uniq), dtype=np.int64)
        first[inv] = np.arange(len(inv))
        out = {name: c[first] for name, c in zip(keys, cols)}
    for (name, v), a in zip(values.items(), aggs):
        acc = np.full(len(uniq), _INIT[a], dtype=np.int64)
        _UFUNC[a].at(acc, inv, _integer(name, v))
        out[name] = acc
    return pa.table(out)


def combine_blocks(
    blocks: list[pa.Table],
    key_col: str | list[str],
    value_cols: list[str],
    aggs: list[str] | None = None,
) -> pa.Table:
    """:func:`combine_arrays` over collected partial blocks. Empty
    blocks are skipped: Ray passes them along without a schema."""
    blocks = [b for b in blocks if b.num_rows]

    def col(name: str) -> np.ndarray:
        parts = [b[name].to_numpy() for b in blocks]
        return np.concatenate(parts) if parts else np.empty(0, np.int64)

    return combine_arrays(
        {k: col(k) for k in _keys(key_col)}, {v: col(v) for v in value_cols}, aggs
    )


def _reduce(keys, value_cols, aggs, finish, *parts: pa.Table) -> pa.Table:
    """One hash partition's parts, fully reduced: every row of its keys
    is here."""
    out = combine_blocks(list(parts), keys, value_cols, aggs)
    return finish(out) if finish else out


def _segment(
    blocks: list,
    key_col: str | list[str],
    value_cols: list[str],
    aggs: list[str] | None = None,
    finish: Callable[[pa.Table], pa.Table] | None = None,
) -> ray.data.Dataset:
    """:func:`segment_sum` over held ``(ref, metadata)`` blocks, with
    ``finish`` mapping each partition's result in its reduce task."""
    keys = _keys(key_col)
    return partition.hash_reduce(
        blocks, keys, partial(_reduce, keys, value_cols, aggs, finish)
    )


def segment_sum(
    ds: ray.data.Dataset,
    key_col: str | list[str],
    value_cols: list[str],
    aggs: list[str] | None = None,
) -> ray.data.Dataset:
    """Distributed ``SELECT keys, AGG(v1), ... GROUP BY keys`` (int64
    values, exact) for arbitrarily high key cardinality. ``key_col`` is
    one column or a list; ``aggs`` picks per-column reducers from
    sum/min/max (default: all sum). Output columns keep their input
    names; rows are in key order within a block, and blocks are hash
    partitions, not key ranges."""
    return _segment(held_blocks(ds)[1], key_col, value_cols, aggs)


def route(blocks: list) -> bool:
    """The combine decision, made from MEASURED size: ``True``
    (distributed) when the partials' held ``(ref, metadata)`` blocks
    hold more than :data:`AUTO_NATIVE_ROWS` rows, counted from their
    metadata (no driver data pull). Zero partial rows never
    distribute. A Dataset raises ``TypeError``: the combines take
    held blocks."""
    if isinstance(blocks, ray.data.Dataset):
        raise TypeError(
            "segsum combines take held (ref, metadata) partial blocks, not a "
            "Dataset: build them with partition.map_blocks(ds, partial, ...)"
        )
    return sum(m.num_rows for _, m in blocks) > AUTO_NATIVE_ROWS


def combine(
    blocks: list,
    key_col: str | list[str],
    value_cols: list[str],
    aggs: list[str] | None = None,
) -> pa.Table:
    """Held ``(ref, metadata)`` partial ``blocks`` (from
    ``partition.map_blocks``, or a task's ``(table,
    BlockMetadataWithSchema)`` returns) reduced to one row per key,
    collected as a table sorted by key — for outputs bounded by what
    the driver already holds (a zone layer, a tile grid)."""
    if route(blocks):
        # one row per key already; the kernel only sorts and types it
        blocks = held_blocks(_segment(blocks, key_col, value_cols, aggs))[1]
    refs = [ref for ref, _ in blocks]
    return combine_blocks(ray.get(refs), key_col, value_cols, aggs)


def lookup(keys: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, found) of each ``want`` value in the ascending unique
    ``keys`` of a :func:`combine` result: a left join onto ``want``.
    ``position`` is only meaningful where ``found``."""
    pos = np.searchsorted(keys, want)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == want[hit]
    return pos, hit


def combine_dataset(
    blocks: list,
    key_col: str | list[str],
    value_cols: list[str],
    finish: Callable[[pa.Table], pa.Table] | None = None,
) -> ray.data.Dataset:
    """Held ``(ref, metadata)`` partial ``blocks`` summed to one row per
    key, as a Dataset — for outputs with no bound: the distributed
    route never lands them on the driver. ``finish`` maps the summed
    rows: in each reduce task, or once on the driver route, always on a
    typed table, so an empty result keeps the caller's columns."""
    if route(blocks):
        return _segment(blocks, key_col, value_cols, finish=finish)
    tbl = combine_blocks(ray.get([ref for ref, _ in blocks]), key_col, value_cols)
    return ray.data.from_arrow(finish(tbl) if finish else tbl)
