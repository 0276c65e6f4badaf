"""Scattered-point-to-raster gridding (gdal_grid semantics).

Reimplements ``imageutils.grid_scattered_pts``
(/root/reference/python/rsgislib/imageutils/__init__.py:5140-5219),
which shells out to GDAL Grid. The algorithms mirrored here are the
gdal_grid family the reference docstring enumerates (:5157-5176):

- ``nearest``   — value of the closest in-radius point (we break exact
  distance ties by LOWEST point id, the deterministic analogue of
  GDAL's unspecified order),
- ``invdist``   — inverse-distance-to-a-power-2 weighting,
- ``average``   — moving average inside the radius,
- data metrics  — ``minimum`` / ``maximum`` / ``count``.

Physical plan (the 100 TB shape): the point layer is broadcast ONCE
via ``ray.put`` as the cell-bucket ``_TargetIndex`` from
``stages/knn.py``; pixel centers stream through ``map_batches`` and
each pixel distance-checks only the O((2r/cell_w+1)^2) nearby buckets.
Zero shuffles; output is one row per pixel.

Exactness contract: coordinates are snapped to an integer lattice
(``int_scale`` units per coordinate unit — fixture coords are odd
multiples of 1/200, pixel centers even multiples, so scale 200 makes
every dx/dy an exact int64 and d^2 an exact integer). All reducers
are then order-independent:

- count / min / max / sum: int64,
- average: ONE float division ``sum / count`` at the end,
- invdist: per-point micro-unit terms ``(v * SCALE) // d2`` and
  ``SCALE // d2`` (floor over non-negative ints), int64-summed; the
  quotient ``num / den`` is the single float op — DuckDB's integer
  division produces the identical value, so the query is bit-exact
  against SQL,
- nearest: lexicographic (d2, id) minimum via one encoded int64 key.

GDAL's true invdist uses float ``1/d^p`` accumulation whose result
depends on summation order; the micro-unit floor is our deterministic
(and distributable) stand-in, documented here and mirrored in the
oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.functions.arrayops import run_lookup
from rsgislib_ray.functions.cells import DEFAULT_FRAME
from rsgislib_ray.stages.knn import _TargetIndex, broadcast_targets

IDW_SCALE = 10**8  # micro-units per weight unit for invdist terms


def make_grid_centers(
    grid_n: int,
    frame=DEFAULT_FRAME,
    num_blocks: int = 16,
) -> ray.data.Dataset:
    """Pixel-center dataset for a grid_n x grid_n raster over ``frame``:
    ``pix_id = row * grid_n + col`` (row-major), centers at
    ``(col + 0.5) * w, (row + 0.5) * h``."""
    cw = frame.width / grid_n
    ch = frame.height / grid_n
    x0, y0 = frame.x0, frame.y0

    def centers(batch) -> pa.Table:
        pid = batch["id"].to_numpy().astype(np.int64)
        r, c = np.divmod(pid, grid_n)
        return pa.table(
            {
                "pix_id": pid,
                "x": x0 + (c + 0.5) * cw,
                "y": y0 + (r + 0.5) * ch,
            }
        )

    return (
        ray.data.range(grid_n * grid_n, override_num_blocks=num_blocks)
        .map_batches(centers, batch_format="pyarrow", batch_size=65536)
    )


def grid_scattered_points(
    pixels: ray.data.Dataset,
    targets_tbl: pa.Table,
    radius: float,
    value_col: str,
    id_col: str = "target_id",
    x_col: str = "x",
    y_col: str = "y",
    int_scale: int = 200,
    idw_scale: int = IDW_SCALE,
    pix_x_col: str = "x",
    pix_y_col: str = "y",
) -> ray.data.Dataset:
    """Append per-pixel gridding columns to ``pixels``:

    ``n_pts`` (count in radius), ``v_min``/``v_max``/``v_sum`` (int64,
    null-free only where n_pts>0 for min/max), ``v_avg`` (float,
    null when empty), ``idw_num``/``idw_den`` (int64 micro-unit sums),
    ``idw`` (float num/den, null when empty), ``nearest_id`` /
    ``nearest_val`` (closest point, ties to lowest id, null when
    empty). Distances compare ``<= radius`` on the scaled lattice.

    Values must be non-negative int64 (micro-unit floors assume it).
    """
    vals = targets_tbl[value_col].to_numpy().astype(np.int64)
    if (vals < 0).any():
        raise ValueError("grid_scattered_points requires non-negative values")
    # grid level sized so one ring of cells covers the radius
    level = int(
        np.clip(
            np.floor(np.log2(DEFAULT_FRAME.width / max(radius, 1e-9))), 0, 10
        )
    )
    ref = broadcast_targets(
        targets_tbl, id_col, x_col, y_col, attr_cols=[value_col],
        grid_level=level,
    )
    r2_scaled = int(round(radius * int_scale)) ** 2
    sc = float(int_scale)

    def grid_batch(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached

        idx: _TargetIndex = cached(ref)
        tvals = idx.attrs[value_col].to_numpy().astype(np.int64)
        itx = np.rint(idx.tx * sc).astype(np.int64)
        ity = np.rint(idx.ty * sc).astype(np.int64)
        # id-ascending rank per target row: nearest ties -> lowest id
        rank = np.empty(len(idx.ids), dtype=np.int64)
        rank[idx.id_order] = np.arange(len(idx.ids))
        T = len(idx.ids)

        px = batch[pix_x_col].to_numpy().astype(np.float64)
        py = batch[pix_y_col].to_numpy().astype(np.float64)
        ipx = np.rint(px * sc).astype(np.int64)
        ipy = np.rint(py * sc).astype(np.int64)
        B = len(px)

        n_pts = np.zeros(B, dtype=np.int64)
        v_min = np.full(B, np.iinfo(np.int64).max, dtype=np.int64)
        v_max = np.full(B, np.iinfo(np.int64).min, dtype=np.int64)
        v_sum = np.zeros(B, dtype=np.int64)
        idw_num = np.zeros(B, dtype=np.int64)
        idw_den = np.zeros(B, dtype=np.int64)
        # encoded (d2 * T + rank) lexicographic minimum; d2 <= r2_scaled
        # and rank < T keep the key well inside int64
        best = np.full(B, np.iinfo(np.int64).max, dtype=np.int64)

        n, cw = idx.n_side, idx.cell_w
        pcol = np.clip(
            np.floor((px - DEFAULT_FRAME.x0) / cw), 0, n - 1
        ).astype(np.int64)
        prow = np.clip(
            np.floor((py - DEFAULT_FRAME.y0) / cw), 0, n - 1
        ).astype(np.int64)
        rc = int(np.ceil(radius / cw)) + 1
        for dc in range(-rc, rc + 1):
            for dr in range(-rc, rc + 1):
                c2 = pcol + dc
                r2 = prow + dr
                ok = (c2 >= 0) & (c2 < n) & (r2 >= 0) & (r2 < n)
                if not ok.any():
                    continue
                key = r2[ok] * n + c2[ok]
                lo, cnt = run_lookup(idx.cells, idx.starts, key)
                nz = cnt > 0
                if not nz.any():
                    continue
                p_sel = np.flatnonzero(ok)[nz]
                lo, cnt = lo[nz], cnt[nz]
                total = int(cnt.sum())
                pp = np.repeat(p_sel, cnt)
                base = np.repeat(lo, cnt)
                within = np.arange(total) - np.repeat(
                    np.cumsum(cnt) - cnt, cnt
                )
                tt = idx.order[base + within]
                dx = ipx[pp] - itx[tt]
                dy = ipy[pp] - ity[tt]
                d2 = dx * dx + dy * dy
                hit = d2 <= r2_scaled
                if not hit.any():
                    continue
                pp, tt, d2 = pp[hit], tt[hit], d2[hit]
                v = tvals[tt]
                n_pts += np.bincount(pp, minlength=B)
                np.minimum.at(v_min, pp, v)
                np.maximum.at(v_max, pp, v)
                np.add.at(v_sum, pp, v)
                # coincident pixel/point (d2 == 0) would divide by zero;
                # the scaled fixture lattice guarantees d2 >= 2, but be
                # safe for arbitrary callers: treat d2==0 as d2==1
                d2s = np.maximum(d2, 1)
                np.add.at(idw_num, pp, (v * idw_scale) // d2s)
                np.add.at(idw_den, pp, idw_scale // d2s)
                np.minimum.at(best, pp, d2 * T + rank[tt])

        has = n_pts > 0
        near_rank = np.where(has, best % T, 0)
        near_row = idx.id_order[near_rank]
        # nullable columns: empty pixels (no point in radius) -> null
        out = {
            "n_pts": pa.array(n_pts),
            "v_min": pa.Array.from_pandas(
                np.where(has, v_min, 0), mask=~has, type=pa.int64()
            ),
            "v_max": pa.Array.from_pandas(
                np.where(has, v_max, 0), mask=~has, type=pa.int64()
            ),
            "v_sum": pa.array(v_sum),
            "v_avg": pa.Array.from_pandas(
                np.where(has, v_sum / np.maximum(n_pts, 1), 0.0),
                mask=~has,
                type=pa.float64(),
            ),
            "idw_num": pa.array(idw_num),
            "idw_den": pa.array(idw_den),
            "idw": pa.Array.from_pandas(
                np.where(
                    has, idw_num / np.maximum(idw_den, 1).astype(np.float64), 0.0
                ),
                mask=~has,
                type=pa.float64(),
            ),
            "nearest_id": pa.Array.from_pandas(
                np.where(has, idx.ids[near_row], 0), mask=~has, type=pa.int64()
            ),
            "nearest_val": pa.Array.from_pandas(
                np.where(has, tvals[near_row], 0), mask=~has, type=pa.int64()
            ),
        }
        res = batch
        for name, col in out.items():
            res = res.append_column(name, col)
        return res

    return pixels.map_batches(
        grid_batch, batch_format="pyarrow", batch_size=16384
    )


def row_window_pairs(
    r: np.ndarray, pr_sorted: np.ndarray, order: np.ndarray, w: int
):
    """Candidate (pixel_idx, point_row) pairs for Chebyshev-window
    gathers: points sorted by row; per pixel a searchsorted window
    bounds the row distance, so work is O(B log P + candidates)
    instead of the dense B x P matrix. ``order`` maps sorted positions
    back to point rows. Callers still filter by column distance."""
    lo = np.searchsorted(pr_sorted, r - w, side="left")
    hi = np.searchsorted(pr_sorted, r + w, side="right")
    cnt = hi - lo
    nz = cnt > 0
    if not nz.any():
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pi_sel = np.flatnonzero(nz)
    lo, cnt = lo[nz], cnt[nz]
    total = int(cnt.sum())
    pi = np.repeat(pi_sel, cnt)
    base = np.repeat(lo, cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt
    )
    return pi, order[base + within]
