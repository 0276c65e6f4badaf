"""Sampling / splitting / spatial thinning stages.

Reimplements the reference's seeded sampling family with DETERMINISTIC
KEY-HASH sampling instead of stateful RNGs, so results are independent
of partitioning and reproducible across the N / 4N runs:

- ``random_sample_hdf5_file`` / ``perform_random_pxl_sample_in_mask``
  (/root/reference/python/src/zonalstats.cpp:326,
   /root/reference/python/src/imageutils.cpp:2560) -> :func:`hash_sample`
- ``split_vec_lyr_random_subset`` / train-test splits
  (/root/reference/python/rsgislib/vectorutils/__init__.py:3248,3301)
  -> :func:`hash_split`
- ``thin_vector_geoms`` min-distance thinning
  (/root/reference/python/rsgislib/vectorgeoms/__init__.py:3621)
  -> :func:`thin_by_cell` (first-by-key per cell — the cell-grid
  approximation of min-distance thinning; distance floor = cell size).

The sampling predicate is Knuth multiplicative hashing on the int64
key — ``(key * 2654435761) % 2^32 < frac * 2^32`` — chosen because a
SQL oracle can evaluate the identical expression.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.functions.cells import cells_from_xy
from rsgislib_ray.stages.partition import held_blocks, map_blocks
from rsgislib_ray.stages.segsum import combine, combine_arrays
from rsgislib_ray.state.broadcast import cached

KNUTH = 2654435761


def _bucket(keys: np.ndarray) -> np.ndarray:
    """(key * KNUTH) mod 2^32 — uniform bucket in [0, 2^32)."""
    return (keys.astype(np.int64) * KNUTH) % (1 << 32)


def hash_sample(
    ds: ray.data.Dataset, key_col: str, frac: float
) -> ray.data.Dataset:
    """Deterministic ~frac sample by key hash (seeded-sample analog)."""
    thresh = int(frac * (1 << 32))

    def f(batch: pa.Table) -> pa.Table:
        keep = _bucket(batch[key_col].to_numpy()) < thresh
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def hash_split(
    ds: ray.data.Dataset,
    key_col: str,
    fractions: dict[str, float],
    out_col: str = "split",
) -> ray.data.Dataset:
    """Label rows into train/test/(valid) splits by cumulative hash
    ranges; fractions must sum to 1."""
    names = list(fractions)
    cum = np.cumsum([fractions[n] for n in names])
    if abs(cum[-1] - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    bounds = (cum * (1 << 32)).astype(np.int64)

    def f(batch: pa.Table) -> pa.Table:
        b = _bucket(batch[key_col].to_numpy())
        idx = np.searchsorted(bounds, b, side="right")
        idx = np.minimum(idx, len(names) - 1)
        labels = np.asarray(names, dtype=object)[idx]
        return batch.append_column(out_col, pa.array(labels, type=pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")


def thin_by_cell(
    ds: ray.data.Dataset,
    key_col: str,
    level: int,
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Spatial thinning: keep the lowest-key row per cell at ``level``
    (deterministic first-wins; guarantees a minimum spacing of one cell
    between survivors of different cells). Partial min per batch ->
    :func:`rsgislib_ray.stages.segsum.combine` (a min) -> broadcast
    semi-join back by key. Integer key column required. A lazy ``ds``
    executes once: it is held at entry and both passes read its
    blocks."""
    ds = held_blocks(ds)[0]

    def partial(batch: pa.Table) -> pa.Table:
        cell = cells_from_xy(batch[x_col].to_numpy(), batch[y_col].to_numpy(), level)
        return combine_arrays({"__cell": cell}, {"k": batch[key_col].to_numpy()}, ["min"])

    winners = combine(
        map_blocks(ds, partial),
        "__cell",
        ["k"],
        ["min"],
    )
    if winners.num_rows == 0:
        # no input rows; the input keeps its schema, a mapped empty
        # block would not
        return ds
    ref = ray.put(np.sort(winners["k"].to_numpy()))

    def filt(batch: pa.Table) -> pa.Table:
        kk = cached(ref)
        keys = batch[key_col].to_numpy()
        pos = np.clip(np.searchsorted(kk, keys), 0, len(kk) - 1)
        return batch.filter(pa.array(kk[pos] == keys))

    return ds.map_batches(filt, batch_format="pyarrow")


def stratified_hash_sample(
    ds: "ray.data.Dataset",
    group_col: str,
    id_col: str,
    n_per_group: int,
) -> "ray.data.Dataset":
    """Deterministic stratified sample: the ``n_per_group`` rows with
    the SMALLEST splitmix64(id) per group — a seedless, shuffle-free
    analog of the reference's per-class sample extraction
    (imageutils/__init__.py perform_random_pxl_sample_in_mask_low_pxl_count
    family): any partitioning yields the same sample because hash order
    is global.

    Shape: per-batch top-N per group (sort + rank, vectorized) ->
    bounded combine of (blocks x groups x N) candidate rows -> final
    winners broadcast back as a filter. Output: the sampled rows."""
    import numpy as np
    import pyarrow as pa
    import ray

    from rsgislib_ray.functions.hashing import splitmix64

    def partial(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy().astype(np.int64)
        i = batch[id_col].to_numpy().astype(np.int64)
        h = splitmix64(i.astype(np.uint64))
        order = np.lexsort((i, h, g))
        g2, i2, h2 = g[order], i[order], h[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(g2)) + 1])
        run_id = np.cumsum(
            np.concatenate([[0], (np.diff(g2) != 0).astype(np.int64)])
        )
        rank = np.arange(len(g2)) - starts[run_id]
        keep = rank < n_per_group
        return pa.table(
            {
                group_col: g2[keep],
                id_col: i2[keep],
                "_h": h2[keep].astype(np.int64),
            }
        )

    cands = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=65536
    ).to_pandas()  # bounded: blocks x groups x N rows
    cands["_hu"] = cands["_h"].to_numpy().astype(np.uint64)
    cands = cands.sort_values([group_col, "_hu", id_col], kind="stable")
    winners = cands.groupby(group_col, sort=True).head(n_per_group)
    wid = np.sort(winners[id_col].to_numpy().astype(np.int64))
    ref = ray.put(wid)

    def keep_rows(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached

        w = cached(ref)
        i = batch[id_col].to_numpy().astype(np.int64)
        pos = np.searchsorted(w, i)
        pos = np.minimum(pos, len(w) - 1) if len(w) else pos
        ok = (w[pos] == i) if len(w) else np.zeros(len(i), dtype=bool)
        return batch.filter(pa.array(ok))

    return ds.map_batches(keep_rows, batch_format="pyarrow")


def top_n_per_group(
    ds: "ray.data.Dataset",
    group_col: str,
    id_col: str,
    value_col: str,
    n: int,
    ascending: bool = False,
) -> "ray.data.Dataset":
    """Top-``n`` rows per group by ``value_col`` (ties -> lowest id),
    distributed: per-batch top-n partials -> bounded combine -> winner
    id filter. ``id_col`` must be unique. The per-group ORDER BY
    value, id contract matches ``row_number()`` oracles."""
    import numpy as np
    import pyarrow as pa
    import ray

    sign = 1.0 if ascending else -1.0

    def partial(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy().astype(np.int64)
        i = batch[id_col].to_numpy().astype(np.int64)
        v = batch[value_col].to_numpy().astype(np.float64) * sign
        order = np.lexsort((i, v, g))
        g2, i2, v2 = g[order], i[order], v[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(g2)) + 1])
        run_id = np.cumsum(
            np.concatenate([[0], (np.diff(g2) != 0).astype(np.int64)])
        )
        rank = np.arange(len(g2)) - starts[run_id]
        keep = rank < n
        return pa.table(
            {
                group_col: g2[keep],
                id_col: i2[keep],
                "_v": v2[keep],
            }
        )

    cands = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=65536
    ).to_pandas()  # bounded: blocks x groups x n
    cands = cands.sort_values([group_col, "_v", id_col], kind="stable")
    winners = cands.groupby(group_col, sort=True).head(n)
    wid = np.sort(winners[id_col].to_numpy().astype(np.int64))
    ref = ray.put(wid)

    def keep_rows(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached

        w = cached(ref)
        i = batch[id_col].to_numpy().astype(np.int64)
        if len(w) == 0:
            return batch.slice(0, 0)
        pos = np.minimum(np.searchsorted(w, i), len(w) - 1)
        return batch.filter(pa.array(w[pos] == i))

    return ds.map_batches(keep_rows, batch_format="pyarrow")
