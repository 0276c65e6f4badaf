"""Exact euclidean distance transform (raster proximity).

Reimplements the reference's ``calc_dist_to_img_vals`` /
``calc_dist_to_img_vals_tiled``
(/root/reference/python/rsgislib/imagecalc/__init__.py:145,280 — GDAL
ComputeProximity: per-pixel distance to the nearest pixel whose value
is in ``pxl_vals``), as the separable two-phase exact EDT of
Felzenszwalb & Huttenlocher 2012 (Theory of Computing 8:415-428,
public algorithm):

- phase 1 (rows independent): per pixel, squared distance to the
  nearest target IN ITS ROW — vectorized for a whole row band with one
  encoded ``searchsorted`` (key = row * 2^32 + col) + same-row validity
  checks; no per-pixel Python.
- phase 2 (columns independent): ``dist2(i,c) = min_j (g2(j,c) +
  (i-j)^2)`` — the lower envelope of parabolas per column. Columns are
  grouped into bands (``groupby(col_band)``) so phase 2 is one shuffle;
  within a band the envelope runs per column (O(h) amortized each).

Output is the exact INTEGER squared distance (``dist2``), so results
are bit-stable under any partitioning and SQL-mirrorable (the oracle
brute-forces ``min`` over all target pixels). ``max_dist2`` caps the
search like the reference's MAXDIST proxOption (beyond the cap the
output is ``out_no_data``).

Scale contract: one row-band shuffle + one col-band shuffle, band
state is O(band_width x extent) dense arrays. The per-column envelope
loop is pure Python over parabola pops (~h steps/column); for
multi-thousand-pixel tile heights swap in a compiled kernel per actor
— the algorithm and partitioning stay the same.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from rsgislib_ray.functions.arrowize import arrowize

_INF = np.int64(1) << 60
_ENC = np.int64(1) << 32


def _envelope_1d(js: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Exact lower envelope of parabolas (j, g2[j]) evaluated at the
    same positions ``js`` (sorted int64). Returns min_j (g2[j]+(i-j)^2)
    for each i in js."""
    n = len(js)
    v = np.empty(n, dtype=np.int64)  # parabola indices of the envelope
    z = np.empty(n + 1, dtype=np.float64)  # boundaries
    v[0] = 0
    z[0] = -np.inf
    z[1] = np.inf
    k = 0
    f = g2.astype(np.float64)
    x = js.astype(np.float64)
    for q in range(1, n):
        if g2[q] >= _INF:
            continue
        while True:
            p = v[k]
            denom = 2.0 * (x[q] - x[p])
            s = ((f[q] + x[q] * x[q]) - (f[p] + x[p] * x[p])) / denom
            if s <= z[k]:
                k -= 1
                if k < 0:
                    break
            else:
                break
        k += 1
        v[k] = q
        z[k] = s if k > 0 else -np.inf
        z[k + 1] = np.inf
    out = np.empty(n, dtype=np.int64)
    k = 0
    for i in range(n):
        while z[k + 1] < x[i]:
            k += 1
        p = v[k]
        if g2[p] >= _INF:
            out[i] = _INF
        else:
            d = js[i] - js[p]
            out[i] = g2[p] + d * d
    return out


def distance_transform(
    raster: ray.data.Dataset,
    target_values: list[int],
    value_col: str = "value",
    row_band: int = 256,
    max_dist2: int | None = None,
    out_no_data: int = -1,
) -> ray.data.Dataset:
    """Per-pixel exact squared euclidean distance (``dist2``) to the
    nearest pixel whose ``value_col`` is in ``target_values``.
    Pixels are (pixel_id, row, col, value); target pixels get 0."""
    tv = set(int(v) for v in target_values)

    # ---- phase 0: extract the target-pixel positions (tiny vs raster)
    def targets_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.is_in(
            t[value_col], value_set=pa.array(sorted(tv), type=t[value_col].type)
        )
        t = t.filter(mask)
        return pa.table(
            {
                "t_row": t["row"].to_numpy().astype(np.int64),
                "t_col": t["col"].to_numpy().astype(np.int64),
            }
        )

    # ---- phase 1: per-row nearest target column (one shuffle by row
    # band, then fully vectorized encoded searchsorted)
    def tag_rows(t: pa.Table) -> pa.Table:
        r = t["row"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "pixel_id": t["pixel_id"].to_numpy().astype(np.int64),
                "row": r,
                "col": t["col"].to_numpy().astype(np.int64),
                "is_t": np.isin(
                    t[value_col].to_numpy(), np.array(sorted(tv))
                ),
                "row_band": r // row_band,
            }
        )

    def phase1(g: pd.DataFrame) -> pd.DataFrame:
        r = g["row"].to_numpy()
        c = g["col"].to_numpy()
        enc = r * _ENC + c
        tm = g["is_t"].to_numpy()
        tenc = np.sort(enc[tm])
        g2 = np.full(len(r), _INF, dtype=np.int64)
        if len(tenc):
            pos = np.searchsorted(tenc, enc)
            # right candidate (>= enc), same row only
            ri = np.clip(pos, 0, len(tenc) - 1)
            rv = tenc[ri]
            ok_r = (pos < len(tenc)) & (rv // _ENC == r)
            dr = np.where(ok_r, rv % _ENC - c, 0)
            d2r = np.where(ok_r, dr * dr, _INF)
            # left candidate (< enc), same row only
            li = np.clip(pos - 1, 0, len(tenc) - 1)
            lv = tenc[li]
            ok_l = (pos > 0) & (lv // _ENC == r)
            dl = np.where(ok_l, c - lv % _ENC, 0)
            d2l = np.where(ok_l, dl * dl, _INF)
            g2 = np.minimum(d2r, d2l)
        return pd.DataFrame(
            {
                "pixel_id": g["pixel_id"].to_numpy(),
                "row": r,
                "col": c,
                "g2": g2,
            }
        )

    tagged = raster.map_batches(tag_rows, batch_format="pyarrow")
    p1 = tagged.groupby("row_band").map_groups(arrowize(phase1), batch_format="pandas")

    # ---- phase 2: per-column envelope (one shuffle by col band)
    def tag_cols(t: pa.Table) -> pa.Table:
        return t.append_column(
            "col_band",
            pa.array(t["col"].to_numpy() // row_band, type=pa.int64()),
        )

    def phase2(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["row"].to_numpy(), g["col"].to_numpy()))
        r = g["row"].to_numpy()[order]
        c = g["col"].to_numpy()[order]
        g2 = g["g2"].to_numpy()[order]
        pid = g["pixel_id"].to_numpy()[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(c)) + 1])
        ends = np.concatenate([starts[1:], [len(c)]])
        out = np.empty(len(c), dtype=np.int64)
        for st, en in zip(starts, ends):
            out[st:en] = _envelope_1d(r[st:en], g2[st:en])
        if max_dist2 is not None:
            out = np.where(out > max_dist2, np.int64(out_no_data), out)
        else:
            out = np.where(out >= _INF, np.int64(out_no_data), out)
        return pd.DataFrame({"pixel_id": pid, "dist2": out})

    return (
        p1.map_batches(tag_cols, batch_format="pyarrow")
        .groupby("col_band")
        .map_groups(arrowize(phase2), batch_format="pandas")
    )


def clump_min_distances(
    ds: ray.data.Dataset,
    grid_n: int,
    max_dist: int,
    clump_col: str = "clump",
    row_col: str = "row",
    col_col: str = "col",
) -> ray.data.Dataset:
    """Per-clump minimum pixel-pair distance to the NEAREST other
    clump within ``max_dist`` (rastergis/__init__.py:1286
    ``calc_dist_between_clumps`` / :1391 ``calc_dist_to_large_clumps``
    — the reference polygonises and runs an indexed GEOS distance
    sweep with ``max_dist_thres``; here the same index idea on the
    pixel lattice, consistent with this engine's EDT family metrics):

    - every foreground pixel flat-maps into its home cell plus the 8
      neighbouring cells of a ``max_dist``-sized grid — any pair
      within ``max_dist`` then co-occurs in the second pixel's home
      cell, so the sweep is complete while each group stays bounded
      by 9 · density · cell² (the broadcast-free both-sides-large
      shape);
    - one ``groupby(cell)`` shuffle; per group a vectorized cross-
      clump d² matrix masked at ``max_dist²`` → per-clump partial
      minima (exact integers);
    - partials union a per-clump sentinel row and reduce through the
      hash-partitioned ``segment_sum(min)``, so clumps with no
      neighbour in range come out as ``-1`` without a join.

    Output: (clump, min_d2, dist), one row per clump in no set order
    (sort by clump for a stable order); dist = √min_d2, −1/−1.0 when
    no other clump lies within ``max_dist``."""
    from rsgislib_ray.stages.segsum import segment_sum

    cell = int(max_dist)
    if cell < 1:
        raise ValueError("max_dist must be >= 1 pixel")
    m_cells = grid_n // cell + 3
    maxd2 = int(max_dist) * int(max_dist)
    sentinel = np.int64(2**62)

    def expand(batch: pa.Table) -> pa.Table:
        r = batch[row_col].to_numpy().astype(np.int64)
        c = batch[col_col].to_numpy().astype(np.int64)
        k = batch[clump_col].to_numpy().astype(np.int64)
        cr = r // cell
        cc = c // cell
        outs = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                nr = cr + dr
                nc = cc + dc
                keep = (nr >= 0) & (nc >= 0)
                outs.append(
                    pa.table(
                        {
                            "cell_id": (nr[keep] + 1) * m_cells
                            + (nc[keep] + 1),
                            "r": r[keep],
                            "c": c[keep],
                            "k": k[keep],
                        }
                    )
                )
        return pa.concat_tables(outs)

    def per_group(tbl: pa.Table) -> pa.Table:
        r = tbl["r"].to_numpy()
        c = tbl["c"].to_numpy()
        k = tbl["k"].to_numpy()
        d2 = (r[:, None] - r[None, :]) ** 2 + (c[:, None] - c[None, :]) ** 2
        cross = (k[:, None] != k[None, :]) & (d2 <= maxd2)
        d2m = np.where(cross, d2, sentinel)
        mins = d2m.min(axis=1)
        ok = mins < sentinel
        if not ok.any():
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "m": pa.array([], pa.int64()),
                }
            )
        ku = k[ok]
        mu = mins[ok]
        order = np.argsort(ku, kind="stable")
        ku, mu = ku[order], mu[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(ku)) + 1])
        return pa.table(
            {"k": ku[starts], "m": np.minimum.reduceat(mu, starts)}
        )

    partials = (
        ds.map_batches(expand, batch_format="pyarrow", batch_size=65536)
        .groupby("cell_id")
        .map_groups(per_group, batch_format="pyarrow")
    )

    def sentinels(batch: pa.Table) -> pa.Table:
        k = np.unique(batch[clump_col].to_numpy().astype(np.int64))
        return pa.table(
            {"k": k, "m": np.full(len(k), sentinel, dtype=np.int64)}
        )

    base = ds.map_batches(
        sentinels, batch_format="pyarrow", batch_size=65536
    )
    red = segment_sum(partials.union(base), "k", ["m"], aggs=["min"])

    def finish(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy().astype(np.int64)
        m = batch["m"].to_numpy().astype(np.int64)
        none = m >= sentinel
        d = np.sqrt(m.astype(np.float64))
        return pa.table(
            {
                "clump": k,
                "min_d2": np.where(none, np.int64(-1), m),
                "dist": np.where(none, -1.0, d),
            }
        )

    return red.map_batches(finish, batch_format="pyarrow")
