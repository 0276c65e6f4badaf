"""Image-to-image registration: tie-point generation by windowed
similarity search plus constant-offset application.

Reimplements the core of the reference's registration module
(/root/reference/src/registration/, ~4.5k LoC C++) Ray-Data-first:

- Tie grid: ``numPts = size // gap`` per axis, first point offset
  ``(size - (numPts-1)*gap) // 2``
  (RSGISImageRegistration::defineFirstTiePoint,
  RSGISImageRegistration.cpp:??; RSGISBasicImageRegistration.cpp:42-115).
- Low-variance culling: tie points whose +-window_size neighbourhood
  has std-dev below a threshold in EITHER image are dropped before
  the search (removeTiePointsWithLowStdDev,
  RSGISImageRegistration.cpp:1240+).
- Search: exhaustive (2*search_area+1)^2 integer-shift scan of the
  +-window_size window, FIRST-WINS in (yShift, xShift) scan order
  (findTiePointLocation, RSGISImageRegistration.cpp:117-410; the
  reference's GSL polynomial sub-pixel refinement is not ported —
  integer shifts only, documented deviation).
- Similarity metrics: squared-difference / euclidean / manhattan
  means and Pearson correlation with NaN-pair skipping
  (RSGISStandardImageSimilarityMetrics.cpp:30-125). Distance metrics
  minimize; correlation maximizes.

Execution model: the reference random-accesses two GDAL rasters per
tie point; ours takes ONE co-registered pixel table (row, col,
ref value, float value, per-image presence counts — the Lance-table
analog of two overlapped rasters; :func:`coregister_shifted` builds
it from a point layer with a single groupby shuffle), halo-duplicates
rows into tiles (window + search halo), and evaluates EVERY tie point
of a tile in one vectorized pass: per shift, masked integer product
maps + 2-D prefix sums give all window sums at once, so per-tile work
is O((2S+1)^2 * tile^2) independent of tie-point count. All window
sums are exact int64 — the metric is one float chain at the end, the
bit-parity contract with the SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

DIST_METRICS = ("sqdiff", "euclidean", "manhattan")


def tie_grid(size: int, gap: int) -> np.ndarray:
    """Tie-point coordinates along one axis
    (defineFirstTiePoint semantics)."""
    if gap < 1:
        raise ValueError("gap needs to be at least 1")
    num = size // gap
    start = (size - (num - 1) * gap) // 2
    return start + np.arange(num, dtype=np.int64) * gap


def coregister_shifted(
    points: ray.data.Dataset,
    dy: int,
    dx: int,
    height: int,
    width: int,
    row_col: str = "row",
    col_col: str = "col",
    value_col: str = "v",
) -> ray.data.Dataset:
    """Build a co-registered (row, col, rv, fv, nr, nf) pixel table
    where the floating image is the reference aggregated grid sampled
    at (row+dy, col+dx): each input point contributes its value to
    the reference cell AND to the shifted floating cell, ONE
    ``groupby`` reduces both — the distributed analog of reading two
    overlapping rasters. Rows outside [0,height)x[0,width) after the
    shift are clipped."""

    def fan(batch: pa.Table) -> pa.Table:
        r = batch[row_col].to_numpy().astype(np.int64)
        c = batch[col_col].to_numpy().astype(np.int64)
        v = batch[value_col].to_numpy().astype(np.int64)
        ok1 = (r >= 0) & (r < height) & (c >= 0) & (c < width)
        r2, c2 = r - dy, c - dx
        ok2 = (r2 >= 0) & (r2 < height) & (c2 >= 0) & (c2 < width)
        t1 = pa.table(
            {
                "k": r[ok1] * np.int64(1 << 20) + c[ok1],
                "rv_p": v[ok1],
                "fv_p": np.zeros(int(ok1.sum()), dtype=np.int64),
                "nr_p": np.ones(int(ok1.sum()), dtype=np.int64),
                "nf_p": np.zeros(int(ok1.sum()), dtype=np.int64),
            }
        )
        t2 = pa.table(
            {
                "k": r2[ok2] * np.int64(1 << 20) + c2[ok2],
                "rv_p": np.zeros(int(ok2.sum()), dtype=np.int64),
                "fv_p": v[ok2],
                "nr_p": np.zeros(int(ok2.sum()), dtype=np.int64),
                "nf_p": np.ones(int(ok2.sum()), dtype=np.int64),
            }
        )
        return pa.concat_tables([t1, t2])

    from rsgislib_ray.stages.segsum import segment_sum

    # pre-reduce per batch (many points share a cell), then the
    # hash-partitioned segment reduction (native groupby aggregate is the
    # measured ~100x trap at high key cardinality, stages/segsum.py)
    def prereduce(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy()
        uk, inv = np.unique(k, return_inverse=True)
        out = {"k": uk}
        for c in ("rv_p", "fv_p", "nr_p", "nf_p"):
            a = np.zeros(len(uk), dtype=np.int64)
            np.add.at(a, inv, batch[c].to_numpy())
            out[c] = a
        return pa.table(out)

    agg = segment_sum(
        points.map_batches(fan, batch_format="pyarrow", batch_size=65536)
        .map_batches(prereduce, batch_format="pyarrow"),
        "k",
        ["rv_p", "fv_p", "nr_p", "nf_p"],
    )

    def unpack(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "row": k >> np.int64(20),
                "col": k & np.int64((1 << 20) - 1),
                "rv": batch["rv_p"].to_numpy().astype(np.int64),
                "fv": batch["fv_p"].to_numpy().astype(np.int64),
                "nr": batch["nr_p"].to_numpy().astype(np.int64),
                "nf": batch["nf_p"].to_numpy().astype(np.int64),
            }
        )

    return agg.map_batches(unpack, batch_format="pyarrow")


def _win_sums(dense: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              w: int) -> np.ndarray:
    """Sum of ``dense`` over the (2w+1)^2 window centred at each
    (rows, cols), via one 2-D prefix sum (dense is a halo-padded
    tile; centres must satisfy w <= centre < dim - w)."""
    S = np.zeros(
        (dense.shape[0] + 1, dense.shape[1] + 1), dtype=np.int64
    )
    np.cumsum(dense, axis=0, out=S[1:, 1:])
    np.cumsum(S[1:, 1:], axis=1, out=S[1:, 1:])
    r0, r1 = rows - w, rows + w + 1
    c0, c1 = cols - w, cols + w + 1
    return S[r1, c1] - S[r0, c1] - S[r1, c0] + S[r0, c0]


def find_tie_points(
    co: ray.data.Dataset,
    height: int,
    width: int,
    gap: int,
    window_size: int,
    search_area: int,
    metric: str = "sqdiff",
    metric_threshold: float | None = None,
    stddev_ref_threshold: float | None = None,
    stddev_flt_threshold: float | None = None,
    tile_size: int = 64,
) -> ray.data.Dataset:
    """Per-tie-point best integer shift. ``co`` is the co-registered
    table from :func:`coregister_shifted` (columns row, col, rv, fv,
    nr, nf; presence = count > 0). Output: one row per surviving tie
    point with (tie_row, tie_col, sy, sx, metric, n_pairs, std_ref,
    std_flt)."""
    from rsgislib_ray.stages.raster import Tile, halo_tiles

    if metric not in DIST_METRICS + ("correlation",):
        raise ValueError(f"unknown metric {metric!r}")
    halo = window_size + search_area
    trows = tie_grid(height, gap)
    tcols = tie_grid(width, gap)
    S = search_area
    shifts = [
        (sy, sx)
        for sy in range(-S, S + 1)
        for sx in range(-S, S + 1)
    ]
    w = window_size
    maximize = metric == "correlation"

    def per_tile(t: Tile) -> pa.Table:
        g, tr, tc, r0, c0, dim = t.rows, t.tr, t.tc, t.r0, t.c0, t.dim
        rr, cc = t.rr, t.cc
        rv = np.zeros((dim, dim), dtype=np.int64)
        fv = np.zeros((dim, dim), dtype=np.int64)
        pr = np.zeros((dim, dim), dtype=np.int64)
        pf = np.zeros((dim, dim), dtype=np.int64)
        rv[rr, cc] = g["rv"].to_numpy()
        fv[rr, cc] = g["fv"].to_numpy()
        pr[rr, cc] = (g["nr"].to_numpy() > 0).astype(np.int64)
        pf[rr, cc] = (g["nf"].to_numpy() > 0).astype(np.int64)
        # tie points whose CORE position falls in this tile
        tr_sel = trows[
            (trows >= tr * tile_size) & (trows < (tr + 1) * tile_size)
        ]
        tc_sel = tcols[
            (tcols >= tc * tile_size) & (tcols < (tc + 1) * tile_size)
        ]
        empty = pa.table(
            {
                "tie_row": pa.array([], pa.int64()),
                "tie_col": pa.array([], pa.int64()),
                "sy": pa.array([], pa.int64()),
                "sx": pa.array([], pa.int64()),
                "metric": pa.array([], pa.float64()),
                "n_pairs": pa.array([], pa.int64()),
                "std_ref": pa.array([], pa.float64()),
                "std_flt": pa.array([], pa.float64()),
            }
        )
        if not len(tr_sel) or not len(tc_sel):
            return empty
        tg_r, tg_c = np.meshgrid(tr_sel, tc_sel, indexing="ij")
        tg_r = tg_r.ravel() - r0  # local coords of tie centres
        tg_c = tg_c.ravel() - c0
        nt = len(tg_r)

        def std_chain(s1, s2, n):
            nn = n.astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                mean = s1.astype(np.float64) / nn
                var = s2.astype(np.float64) / nn - mean * mean
                return np.sqrt(np.maximum(var, 0.0))

        n_r = _win_sums(pr, tg_r, tg_c, w)
        n_f = _win_sums(pf, tg_r, tg_c, w)
        std_ref = std_chain(
            _win_sums(rv * pr, tg_r, tg_c, w),
            _win_sums(rv * rv * pr, tg_r, tg_c, w),
            n_r,
        )
        std_flt = std_chain(
            _win_sums(fv * pf, tg_r, tg_c, w),
            _win_sums(fv * fv * pf, tg_r, tg_c, w),
            n_f,
        )
        alive = np.ones(nt, dtype=bool)
        alive &= n_r > 0
        alive &= n_f > 0
        if stddev_ref_threshold is not None:
            alive &= ~(std_ref < stddev_ref_threshold)
        if stddev_flt_threshold is not None:
            alive &= ~(std_flt < stddev_flt_threshold)
        if not alive.any():
            return empty

        nshift = len(shifts)
        mvals = np.full((nt, nshift), np.inf)
        if maximize:
            mvals[:] = -np.inf
        npairs = np.zeros((nt, nshift), dtype=np.int64)
        for si, (sy, sx) in enumerate(shifts):
            fs = np.zeros_like(fv)
            ps = np.zeros_like(pf)
            src_r0, src_r1 = max(0, sy), min(dim, dim + sy)
            dst_r0, dst_r1 = max(0, -sy), min(dim, dim - sy)
            src_c0, src_c1 = max(0, sx), min(dim, dim + sx)
            dst_c0, dst_c1 = max(0, -sx), min(dim, dim - sx)
            fs[dst_r0:dst_r1, dst_c0:dst_c1] = fv[
                src_r0:src_r1, src_c0:src_c1
            ]
            ps[dst_r0:dst_r1, dst_c0:dst_c1] = pf[
                src_r0:src_r1, src_c0:src_c1
            ]
            both = pr * ps
            n = _win_sums(both, tg_r, tg_c, w)
            npairs[:, si] = n
            nn = n.astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                if metric in ("sqdiff", "euclidean"):
                    d = rv - fs
                    ss = _win_sums(d * d * both, tg_r, tg_c, w)
                    v = ss.astype(np.float64) / nn
                    if metric == "euclidean":
                        v = np.sqrt(v)
                elif metric == "manhattan":
                    ss = _win_sums(
                        np.abs(rv - fs) * both, tg_r, tg_c, w
                    )
                    v = ss.astype(np.float64) / nn
                else:  # correlation, the C++ expression order
                    srf = _win_sums(rv * fs * both, tg_r, tg_c, w)
                    sr = _win_sums(rv * both, tg_r, tg_c, w)
                    sf = _win_sums(fs * both, tg_r, tg_c, w)
                    srr = _win_sums(rv * rv * both, tg_r, tg_c, w)
                    sff = _win_sums(fs * fs * both, tg_r, tg_c, w)
                    denom2 = (
                        (nn * srr.astype(np.float64))
                        - (sr.astype(np.float64) * sr)
                    ) * (
                        (nn * sff.astype(np.float64))
                        - (sf.astype(np.float64) * sf)
                    )
                    v = (
                        (nn * srf.astype(np.float64))
                        - (sr.astype(np.float64) * sf)
                    ) / np.sqrt(denom2)
            ok = n > 0
            if metric == "correlation":
                # a window with zero variance on either side has no
                # defined correlation: such shifts are not candidates
                # (the C++ would divide by zero here)
                ok &= denom2 > 0
            if maximize:
                mvals[ok, si] = v[ok]
            else:
                mvals[ok, si] = v[ok]
        # first-wins best in scan order (argmin/argmax keep the first
        # occurrence, matching the C++ yShift-outer xShift-inner scan)
        best = (
            np.argmax(mvals, axis=1)
            if maximize
            else np.argmin(mvals, axis=1)
        )
        bm = mvals[np.arange(nt), best]
        alive &= np.isfinite(bm)
        if metric_threshold is not None:
            alive &= (
                bm > metric_threshold
                if maximize
                else bm < metric_threshold
            )
        sel = np.flatnonzero(alive)
        if not len(sel):
            return empty
        sy_arr = np.array([s[0] for s in shifts], dtype=np.int64)
        sx_arr = np.array([s[1] for s in shifts], dtype=np.int64)
        return pa.table(
            {
                "tie_row": tg_r[sel] + r0,
                "tie_col": tg_c[sel] + c0,
                "sy": sy_arr[best[sel]],
                "sx": sx_arr[best[sel]],
                "metric": bm[sel],
                "n_pairs": npairs[sel, best[sel]],
                "std_ref": std_ref[sel],
                "std_flt": std_flt[sel],
            }
        )

    return halo_tiles(co, tile_size, halo, per_tile)


def apply_offset_to_image(
    ds: ray.data.Dataset,
    x_off: float,
    y_off: float,
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Shift an image by a constant offset (executeApplyOffset2Image,
    RSGISCmdImageRegistration.h:73 — the reference rewrites the
    geotransform origin; our table analog adds the offset to the
    coordinate columns)."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        batch = batch.set_column(
            batch.schema.get_field_index(x_col),
            x_col,
            pc.add(batch[x_col], pa.scalar(x_off, pa.float64()))
            if pa.types.is_floating(batch.schema.field(x_col).type)
            else pc.add(batch[x_col], pa.scalar(int(x_off))),
        )
        return batch.set_column(
            batch.schema.get_field_index(y_col),
            y_col,
            pc.add(batch[y_col], pa.scalar(y_off, pa.float64()))
            if pa.types.is_floating(batch.schema.field(y_col).type)
            else pc.add(batch[y_col], pa.scalar(int(y_off))),
        )

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


def fit_gcp_poly1(
    sums: dict,
) -> tuple[int, list[int], list[int]]:
    """Order-1 GCP polynomial fit (imageregistration/__init__.py
    ``warp_with_gcps_with_gdal`` with polyorder=1; GDAL's double
    least squares replaced by EXACT integer Cramer over the normal
    equations — the established KKT/Cramer parity pattern). Input:
    exact integer GCP sums {n, sx, sy, sxx, sxy, syy, sX, sxX, syX,
    sY, sxY, syY} (Python ints). Returns (det, a_nums, b_nums) with
    X = (a0 + a1 x + a2 y)/det, Y likewise — all exact integers."""
    n, sx, sy = sums["n"], sums["sx"], sums["sy"]
    sxx, sxy, syy = sums["sxx"], sums["sxy"], sums["syy"]
    G = [[n, sx, sy], [sx, sxx, sxy], [sy, sxy, syy]]
    det = (
        G[0][0] * (G[1][1] * G[2][2] - G[1][2] * G[2][1])
        - G[0][1] * (G[1][0] * G[2][2] - G[1][2] * G[2][0])
        + G[0][2] * (G[1][0] * G[2][1] - G[1][1] * G[2][0])
    )
    adj = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != j]
            c = [k for k in range(3) if k != i]
            mnr = G[r[0]][c[0]] * G[r[1]][c[1]] - G[r[0]][c[1]] * G[r[1]][c[0]]
            adj[i][j] = ((-1) ** (i + j)) * mnr
    bX = [sums["sX"], sums["sxX"], sums["syX"]]
    bY = [sums["sY"], sums["sxY"], sums["syY"]]
    a_nums = [sum(bX[j] * adj[i][j] for j in range(3)) for i in range(3)]
    b_nums = [sum(bY[j] * adj[i][j] for j in range(3)) for i in range(3)]
    return det, a_nums, b_nums


def warp_with_gcps(
    src: "ray.data.Dataset",
    targets: "ray.data.Dataset",
    gcps: "ray.data.Dataset",
    *,
    src_n: int,
    src_res: int = 1,
    src_ox: int = 0,
    src_oy: int = 0,
    val_col: str = "val",
    nodata: float = -99.0,
) -> "ray.data.Dataset":
    """warp_with_gcps_with_gdal (imageregistration/__init__.py,
    gdal.Warp with polynomial order 1 + nearest resampling): fit the
    order-1 polynomial from the GCP layer via exact integer Cramer
    (distributed int sums -> Python-int fit on the driver, O(1)
    state), broadcast the SIX float coefficients (one
    correctly-rounded division each from the exact numerators), map
    every target pixel to source coordinates through the pinned
    chain X = (a0 + a1*x) + a2*y, floor to the source grid, and
    gather values by hash join (stages/resample.gather_nearest).
    Out-of-extent targets carry ``nodata``."""
    from rsgislib_ray.stages.resample import gather_nearest

    def part(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy().astype(np.int64)
        y = batch["y"].to_numpy().astype(np.int64)
        X = batch["X"].to_numpy().astype(np.int64)
        Y = batch["Y"].to_numpy().astype(np.int64)
        vals = {
            "n": len(x), "sx": x.sum(), "sy": y.sum(),
            "sxx": (x * x).sum(), "sxy": (x * y).sum(),
            "syy": (y * y).sum(), "sX": X.sum(),
            "sxX": (x * X).sum(), "syX": (y * X).sum(),
            "sY": Y.sum(), "sxY": (x * Y).sum(),
            "syY": (y * Y).sum(),
        }
        return pa.table(
            {k: np.array([v], np.int64) for k, v in vals.items()}
        )

    import ray as _ray

    ptbl = pa.concat_tables(
        _ray.get(
            gcps.map_batches(
                part, batch_format="pyarrow", batch_size=65536
            ).to_arrow_refs()
        )
    )
    sums = {
        k: sum(int(v) for v in ptbl[k].to_pylist())
        for k in ptbl.column_names
    }
    det, a_nums, b_nums = fit_gcp_poly1(sums)
    ax = [float(v) / float(det) for v in a_nums]
    ay = [float(v) / float(det) for v in b_nums]

    def req(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy().astype(np.float64)
        y = batch["y"].to_numpy().astype(np.float64)
        X = (ax[0] + ax[1] * x) + ax[2] * y
        Y = (ay[0] + ay[1] * x) + ay[2] * y
        sc = np.floor((X - src_ox) / src_res).astype(np.int64)
        sr = np.floor((Y - src_oy) / src_res).astype(np.int64)
        ok = (sc >= 0) & (sc < src_n) & (sr >= 0) & (sr < src_n)
        pid = np.where(ok, sr * src_n + sc, -1)
        return pa.table(
            {"tgt_id": batch["tgt_id"], "src_pid": pid}
        )

    requests = targets.map_batches(
        req, batch_format="pyarrow", batch_size=65536
    )
    return gather_nearest(requests, src, val_col=val_col,
                          nodata=nodata)
