"""Geostatistics: empirical semivariogram over a scattered point layer.

Reimplements ``tools.stats.calc_semivariogram``
(/root/reference/python/rsgislib/tools/stats.py:1083-1150), which
wraps ``skgstat.Variogram``: the Matheron estimator
``gamma(h) = sum_{pairs in lag bin h} (v_i - v_j)^2 / (2 N_h)`` over
equal-width lag bins up to ``max_lag``, returning (distance bin,
semivariance, pair count).

The reference materializes the full O(n^2) pairwise distance matrix
(skgstat default). Ours is the 100 TB shape: the point layer is
broadcast once as the cell-bucket ``_TargetIndex`` (cell width ~
max_lag), the pair kernel runs once per block of the SAME points
(``partition.map_blocks``), and each base point gathers only the
O((2·max_lag/cell_w+1)^2) nearby buckets.
Each unordered pair is counted exactly once via ``target_id >
base_id``. Per-bin reducers are exact int64 (pair count + squared
value-difference sum); the semivariance is ONE float division per
bin, so the whole query is bit-exact against a SQL mirror.

Exactness: coordinates snap to the ``int_scale`` lattice (fixture
coords are odd multiples of 1/200) and lag-bin membership is decided
on integer squared distances against integer squared bin edges —
``bin b`` holds pairs with ``edge_{b-1}^2 < d2 <= edge_b^2`` (d2 = 0
coincident-point pairs land in bin 1, matching skgstat's right-closed
first bin).

At true 100 TB point counts the broadcast side no longer fits; the
scale path is :func:`semivariogram_copart` — cell co-partitioning:
each point is duplicated into its home cell plus the (at most 4)
LOWER-keyed ring cells within max_lag, ONE ``groupby(cell_id)``
shuffle co-locates every qualifying pair, pairing runs vectorized
per cell, and the per-cell (lag_bin, count, sq_sum) partials reduce
through :func:`rsgislib_ray.stages.segsum.combine`. Same exact int64
reducers — the two paths are bit-identical (pytest-enforced).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.functions.arrayops import run_lookup
from rsgislib_ray.functions.cells import DEFAULT_FRAME
from rsgislib_ray.stages.knn import _TargetIndex, broadcast_targets
from rsgislib_ray.stages.partition import held_blocks, map_blocks
from rsgislib_ray.stages.segsum import combine


def semivariogram(
    points: ray.data.Dataset,
    points_tbl: pa.Table,
    max_lag: float,
    n_lags: int,
    value_col: str,
    id_col: str = "cell_key",
    x_col: str = "x",
    y_col: str = "y",
    int_scale: int = 200,
) -> pa.Table:
    """Empirical semivariogram of ``points`` (streamed) against
    ``points_tbl`` (the same layer, broadcast). Returns one row per
    lag bin: ``lag_bin`` (1-based), ``lag_upper`` (bin right edge),
    ``n_pairs``, ``sq_diff_sum`` (exact int64), ``semivariance``
    (``sq_diff_sum / (2 n_pairs)``, null for empty bins)."""
    # cell width ~ max_lag/4: the candidate square tracks the circle
    # closely (a cell-per-radius grid scans ~20x the circle's area at
    # high point density), and corner cells of the square whose minimal
    # distance already exceeds max_lag are skipped below
    level = int(
        np.clip(
            np.floor(np.log2(DEFAULT_FRAME.width / max(max_lag, 1e-9))) + 2,
            0,
            10,
        )
    )
    ref = broadcast_targets(
        points_tbl, id_col, x_col, y_col, attr_cols=[value_col],
        grid_level=level,
    )
    sc = float(int_scale)
    # integer squared right edges of the equal-width lag bins
    edges_sq = np.array(
        [
            int(round(max_lag * int_scale * (b + 1) / n_lags)) ** 2
            for b in range(n_lags)
        ],
        dtype=np.int64,
    )

    def pair_partials(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached

        idx: _TargetIndex = cached(ref)
        tvals = idx.attrs[value_col].to_numpy().astype(np.int64)
        itx = np.rint(idx.tx * sc).astype(np.int64)
        ity = np.rint(idx.ty * sc).astype(np.int64)

        bx = batch[x_col].to_numpy().astype(np.float64)
        by = batch[y_col].to_numpy().astype(np.float64)
        bid = batch[id_col].to_numpy().astype(np.int64)
        bval = batch[value_col].to_numpy().astype(np.int64)
        ibx = np.rint(bx * sc).astype(np.int64)
        iby = np.rint(by * sc).astype(np.int64)

        n_pairs = np.zeros(n_lags, dtype=np.int64)
        sq_sum = np.zeros(n_lags, dtype=np.int64)
        n, cw = idx.n_side, idx.cell_w
        pcol = np.clip(
            np.floor((bx - DEFAULT_FRAME.x0) / cw), 0, n - 1
        ).astype(np.int64)
        prow = np.clip(
            np.floor((by - DEFAULT_FRAME.y0) / cw), 0, n - 1
        ).astype(np.int64)
        rc = int(np.ceil(max_lag / cw)) + 1
        r2max = int(edges_sq[-1])
        for dc in range(-rc, rc + 1):
            for dr in range(-rc, rc + 1):
                # canonical half-plane: each cross-cell pair is seen
                # once (from its lexicographically-lower cell); the
                # same-cell offset keeps the id> filter below
                if dr < 0 or (dr == 0 and dc < 0):
                    continue
                # minimal possible distance between a point in the base
                # cell and one in the (dc, dr)-offset cell
                min_d = np.hypot(
                    max(abs(dc) - 1, 0) * cw, max(abs(dr) - 1, 0) * cw
                )
                if min_d > max_lag:
                    continue
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
                if dc == 0 and dr == 0:
                    # same cell: order by id so each pair counts once
                    keep = idx.ids[tt] > bid[pp]
                    if not keep.any():
                        continue
                    pp, tt = pp[keep], tt[keep]
                dx = ibx[pp] - itx[tt]
                dy = iby[pp] - ity[tt]
                d2 = dx * dx + dy * dy
                hit = d2 <= r2max
                if not hit.any():
                    continue
                pp, tt, d2 = pp[hit], tt[hit], d2[hit]
                b = np.searchsorted(edges_sq, d2, side="left")
                dv = bval[pp] - tvals[tt]
                n_pairs += np.bincount(b, minlength=n_lags)
                np.add.at(sq_sum, b, dv * dv)
        return pa.table(
            {
                "lag_bin": np.arange(1, n_lags + 1, dtype=np.int64),
                "n_partial": n_pairs,
                "sq_partial": sq_sum,
            }
        )

    return _finish(map_blocks(points, pair_partials), max_lag, n_lags)


def _finish(partials: list, max_lag: float, n_lags: int) -> pa.Table:
    """Shared final assembly: the held per-bin partial blocks combined,
    then one float division per bin (bins with no partial row count
    zero)."""
    agg = combine(partials, "lag_bin", ["n_partial", "sq_partial"])
    n_pairs = np.zeros(n_lags, dtype=np.int64)
    sq = np.zeros(n_lags, dtype=np.int64)
    b = agg["lag_bin"].to_numpy() - 1
    n_pairs[b] = agg["n_partial"].to_numpy()
    sq[b] = agg["sq_partial"].to_numpy()
    has = n_pairs > 0
    return pa.table(
        {
            "lag_bin": np.arange(1, n_lags + 1, dtype=np.int64),
            "lag_upper": np.arange(1, n_lags + 1) * (max_lag / n_lags),
            "n_pairs": n_pairs,
            "sq_diff_sum": sq,
            "semivariance": pa.Array.from_pandas(
                np.where(has, sq / np.maximum(2 * n_pairs, 1), 0.0),
                mask=~has,
                type=pa.float64(),
            ),
        }
    )


def semivariogram_copart(
    points: ray.data.Dataset,
    max_lag: float,
    n_lags: int,
    value_col: str,
    id_col: str = "cell_key",
    x_col: str = "x",
    y_col: str = "y",
    int_scale: int = 200,
) -> pa.Table:
    """Co-partitioned semivariogram — the 100-TB path: no broadcast
    layer, no driver-side table. Cells are ``max_lag`` wide, so any
    pair within ``max_lag`` spans at most one cell step per axis. Each
    point fans out to its home cell (``is_base=1``) plus the <= 4
    LOWER-keyed ring cells whose rectangle lies within ``max_lag``
    (``is_base=0`` ghosts); one ``groupby(cell_id)`` shuffle then
    co-locates every qualifying pair exactly once under the canonical
    rule *count (b, t) iff t.home > b.home, or same home and
    t.id > b.id* (ghosts only ever come from higher-keyed homes, bases
    share the home, so the rule is local). Pairing is chunked numpy;
    reducers are the same exact int64 as :func:`semivariogram`, so the
    result is bit-identical."""
    fr = DEFAULT_FRAME
    cw = float(max_lag)
    n = max(int(np.ceil(fr.width / cw)), 1)
    sc = float(int_scale)
    edges_sq = np.array(
        [
            int(round(max_lag * int_scale * (b + 1) / n_lags)) ** 2
            for b in range(n_lags)
        ],
        dtype=np.int64,
    )
    r2max = int(edges_sq[-1])

    def fanout(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy().astype(np.float64)
        y = batch[y_col].to_numpy().astype(np.float64)
        ids = batch[id_col].to_numpy().astype(np.int64)
        val = batch[value_col].to_numpy().astype(np.int64)
        ix = np.rint(x * sc).astype(np.int64)
        iy = np.rint(y * sc).astype(np.int64)
        col = np.clip(np.floor((x - fr.x0) / cw), 0, n - 1).astype(np.int64)
        row = np.clip(np.floor((y - fr.y0) / cw), 0, n - 1).astype(np.int64)
        home = row * n + col
        cells = [home]
        base = [np.ones(len(home), np.int8)]
        sel = [np.arange(len(home))]
        # ghosts into the 4 lower-keyed ring cells, pruned by the
        # point-to-cell-rectangle distance (slack keeps boundary pairs)
        for dr, dc in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
            r2, c2 = row + dr, col + dc
            ok = (r2 >= 0) & (r2 < n) & (c2 >= 0) & (c2 < n)
            gx0, gy0 = fr.x0 + c2 * cw, fr.y0 + r2 * cw
            ddx = np.maximum(np.maximum(gx0 - x, x - (gx0 + cw)), 0.0)
            ddy = np.maximum(np.maximum(gy0 - y, y - (gy0 + cw)), 0.0)
            ok &= np.hypot(ddx, ddy) <= max_lag + 1e-9
            idx = np.flatnonzero(ok)
            if len(idx):
                cells.append(r2[idx] * n + c2[idx])
                base.append(np.zeros(len(idx), np.int8))
                sel.append(idx)
        take = np.concatenate(sel)
        return pa.table(
            {
                "cell_id": np.concatenate(cells),
                "is_base": np.concatenate(base),
                "home": np.concatenate([home[s] for s in sel]),
                "pid": ids[take],
                "ix": ix[take],
                "iy": iy[take],
                "v": val[take],
            }
        )

    def pair_group(g: pa.Table) -> pa.Table:
        isb = g["is_base"].to_numpy().astype(bool)
        home = g["home"].to_numpy()
        pid = g["pid"].to_numpy()
        ix = g["ix"].to_numpy()
        iy = g["iy"].to_numpy()
        v = g["v"].to_numpy()
        bsel = np.flatnonzero(isb)
        n_pairs = np.zeros(n_lags, dtype=np.int64)
        sq_sum = np.zeros(n_lags, dtype=np.int64)
        for s in range(0, len(bsel), 512):
            bb = bsel[s : s + 512]
            dx = ix[bb, None] - ix[None, :]
            dy = iy[bb, None] - iy[None, :]
            d2 = dx * dx + dy * dy
            canon = (home[None, :] > home[bb, None]) | (
                (home[None, :] == home[bb, None])
                & (pid[None, :] > pid[bb, None])
            )
            hit = canon & (d2 <= r2max)
            if not hit.any():
                continue
            bi, ti = np.nonzero(hit)
            b = np.searchsorted(edges_sq, d2[bi, ti], side="left")
            dv = v[bb[bi]] - v[ti]
            n_pairs += np.bincount(b, minlength=n_lags)
            np.add.at(sq_sum, b, dv * dv)
        return pa.table(
            {
                "lag_bin": np.arange(1, n_lags + 1, dtype=np.int64),
                "n_partial": n_pairs,
                "sq_partial": sq_sum,
            }
        )

    partials = (
        points.map_batches(fanout, batch_format="pyarrow", batch_size=16384)
        .groupby("cell_id")
        .map_groups(pair_group, batch_format="pyarrow")
    )
    return _finish(held_blocks(partials)[1], max_lag, n_lags)
