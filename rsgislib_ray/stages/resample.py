"""Grid-to-grid raster resampling — reference imageutils/__init__.py
:2392 ``resample_img_to_match`` / :2511 ``gdal_warp`` (nearest and
bilinear interpolation onto another image's grid).

Join-based physical plan (no raster broadcast): every TARGET pixel
emits its source-pixel requests (1 for nearest, the 4 bilinear
corners) as ``(tgt_id, src_pid, w_num)`` rows via flat-map arithmetic,
the requests hash-join the source table on ``pixel_id`` (measured
partition count), and bilinear reassembles through the
hash-partitioned :func:`segment_sum` — so both rasters stream, and a
100-TB source is just a bigger join, never a worker-heap dense array.

Exactness: coordinates are integer micro-units; the bilinear output is
``exact-int Σ w·val / res²`` — ONE correctly-rounded float division,
bit-reproducible in SQL. Floor divisions are written as
``(x + OFF·res) // res − OFF`` with a constant OFF so plain truncating
division (numpy and DuckDB agree on non-negative operands; DuckDB's
``//`` truncates toward zero on negatives) computes a true floor.

Edge semantics (documented, engine-defined): nearest → out-of-extent
targets emit ``nodata``; bilinear → corner indices clamp to the source
extent with saturated fractions (edge replication)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

_OFF = 1 << 20  # floor-division offset: valid for coords > -OFF*res


def _floor_div(t: np.ndarray, res: int) -> np.ndarray:
    return (t + _OFF * res) // res - _OFF


def nearest_requests(
    targets: ray.data.Dataset,
    src_n: int,
    src_res: int,
    src_ox: int = 0,
    src_oy: int = 0,
    tgt_id_col: str = "tgt_id",
    cx_col: str = "cx",
    cy_col: str = "cy",
) -> ray.data.Dataset:
    """(tgt_id, src_pid) with src_pid = -1 for out-of-extent targets."""

    def f(batch: pa.Table) -> pa.Table:
        cx = batch[cx_col].to_numpy().astype(np.int64)
        cy = batch[cy_col].to_numpy().astype(np.int64)
        sc = _floor_div(cx - src_ox, src_res)
        sr = _floor_div(cy - src_oy, src_res)
        ok = (sc >= 0) & (sc < src_n) & (sr >= 0) & (sr < src_n)
        pid = np.where(ok, sr * src_n + sc, -1)
        return pa.table(
            {tgt_id_col: batch[tgt_id_col], "src_pid": pid}
        )

    return targets.map_batches(f, batch_format="pyarrow", batch_size=65536)


def bilinear_requests(
    targets: ray.data.Dataset,
    src_n: int,
    src_res: int,
    src_ox: int = 0,
    src_oy: int = 0,
    tgt_id_col: str = "tgt_id",
    cx_col: str = "cx",
    cy_col: str = "cy",
) -> ray.data.Dataset:
    """4 rows per target: (tgt_id, src_pid, w_num) with
    Σ w_num = res² exactly (clamped-index edge replication)."""
    half = src_res // 2
    if src_res % 2:
        raise ValueError("src_res must be even (integer half-pixel)")

    def f(batch: pa.Table) -> pa.Table:
        cx = batch[cx_col].to_numpy().astype(np.int64)
        cy = batch[cy_col].to_numpy().astype(np.int64)
        tid = batch[tgt_id_col].to_numpy().astype(np.int64)
        tx = cx - src_ox - half
        ty = cy - src_oy - half
        i0 = _floor_div(tx, src_res)
        j0 = _floor_div(ty, src_res)
        fx = tx - i0 * src_res
        fy = ty - j0 * src_res
        # clamp with saturated fraction (edge replication)
        fx = np.where(i0 < 0, 0, np.where(i0 > src_n - 2, src_res, fx))
        fy = np.where(j0 < 0, 0, np.where(j0 > src_n - 2, src_res, fy))
        i0 = np.clip(i0, 0, src_n - 2)
        j0 = np.clip(j0, 0, src_n - 2)
        w00 = (src_res - fx) * (src_res - fy)
        w01 = fx * (src_res - fy)
        w10 = (src_res - fx) * fy
        w11 = fx * fy
        pid00 = j0 * src_n + i0
        return pa.table(
            {
                tgt_id_col: np.concatenate([tid, tid, tid, tid]),
                "src_pid": np.concatenate(
                    [pid00, pid00 + 1, pid00 + src_n, pid00 + src_n + 1]
                ),
                "w_num": np.concatenate([w00, w01, w10, w11]),
            }
        )

    return targets.map_batches(f, batch_format="pyarrow", batch_size=65536)


def gather_nearest(
    req: ray.data.Dataset,
    src: ray.data.Dataset,
    val_col: str = "val",
    nodata: float = -99.0,
) -> ray.data.Dataset:
    """Hash-join (tgt_id, src_pid) requests against the source raster
    (``partition.join``, left outer; src_pid = -1 or missing pixels ->
    nodata). The shared gather leg of nearest resampling and GCP
    warping."""
    from rsgislib_ray.stages import partition

    req, nreq = partition.held_rows(req)
    if not nreq:
        return req.limit(0)
    joined = partition.join(
        req,
        src.select_columns(["pixel_id", val_col]),
        "src_pid",
        "left_outer",
        right_on="pixel_id",
    )

    def fin(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = pc.coalesce(
            t[val_col].cast(pa.float64()), pa.scalar(float(nodata))
        )
        return pa.table({"tgt_id": t["tgt_id"], "val": v})

    return joined.map_batches(fin, batch_format="pyarrow")


def resample_to_grid(
    src: ray.data.Dataset,
    targets: ray.data.Dataset,
    method: str,
    src_n: int,
    src_res: int,
    src_ox: int = 0,
    src_oy: int = 0,
    val_col: str = "val",
    nodata: float = -99.0,
) -> ray.data.Dataset:
    """Resample ``src`` (pixel_id,val raster, origin (src_ox,src_oy),
    pixel size src_res) onto the target centers (tgt_id, cx, cy).
    Returns (tgt_id, val: float64)."""
    from rsgislib_ray.stages import partition
    from rsgislib_ray.stages.segsum import segment_sum

    kw = dict(
        src_n=src_n, src_res=src_res, src_ox=src_ox, src_oy=src_oy
    )
    if method == "nearest":
        req = nearest_requests(targets, **kw)
    elif method == "bilinear":
        req = bilinear_requests(targets, **kw)
    else:
        raise ValueError(f"unknown method {method!r}")

    if method == "nearest":
        return gather_nearest(req, src, val_col=val_col, nodata=nodata)

    req, nreq = partition.held_rows(req)
    if not nreq:
        return req.limit(0)
    joined = partition.join(
        req,
        src.select_columns(["pixel_id", val_col]),
        "src_pid",
        "left_outer",
        right_on="pixel_id",
    )

    def pre(t: pa.Table) -> pa.Table:
        v = t[val_col].to_numpy(zero_copy_only=False)
        v = np.where(np.isnan(v.astype(np.float64)), 0, v).astype(np.int64)
        return pa.table(
            {
                "tgt_id": t["tgt_id"],
                "num": t["w_num"].to_numpy().astype(np.int64) * v,
            }
        )

    sums = segment_sum(
        joined.map_batches(pre, batch_format="pyarrow"), "tgt_id", ["num"]
    )
    den = float(src_res * src_res)

    def div(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tgt_id": t["tgt_id"],
                "val": t["num"].to_numpy().astype(np.float64) / den,
            }
        )

    return sums.map_batches(div, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# resample-detrend (elevation.resampling_detread_dem)
# ---------------------------------------------------------------------------


def dem_resample_detrend(
    ds: ray.data.Dataset, n: int, factor: int
) -> ray.data.Dataset:
    """resampling_detread_dem (elevation/__init__.py:833): down-sample
    the DEM by block AVERAGE (INTERP_AVERAGE), up-sample back with the
    separable cubic B-SPLINE kernel (the INTERP_CUBICSPLINE shape) and
    subtract, leaving the high-frequency detrended surface.

    Exactness: at integer grids the B-spline offsets are rationals
    p/(2R), so the scaled tap weights are the INTEGER polynomials

        W₋₁ = (2R−p)³            W₀ = 4(2R)³ − 6p²(2R) + 3p³
        W₂  = p³                 W₁ = W₀ with p → 2R−p

    summing to 6(2R)³ exactly; the upsampled value is then
    ΣᵢΣⱼ Wᵢ Wⱼ · blocksum / (R²·(6(2R)³)²) — one order-independent
    exact int64 sum per pixel and ONE float division. Physical plan:
    one narrow segment_sum for the R²-reduced block sums (broadcast —
    that side shrinks by R² relative to the input), then a zero-
    shuffle map_batches; edge taps clamp (GDAL edge replication).

    Input (row, col, z) int pixels of an N×N DEM, factor | N.
    Output (row, col, detr) with detr = z − upsampled."""
    from rsgislib_ray.stages.segsum import segment_sum

    if n % factor:
        raise ValueError("factor must divide n")
    m = n // factor
    r2 = 2 * factor
    d1 = 6 * r2**3
    den = float(d1 * d1 * factor * factor)

    def to_block(batch: pa.Table) -> pa.Table:
        r = batch["row"].to_numpy().astype(np.int64)
        c = batch["col"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "bid": (r // factor) * m + c // factor,
                "z": batch["z"],
            }
        )

    bs = segment_sum(
        ds.map_batches(to_block, batch_format="pyarrow"), "bid", ["z"]
    ).to_pandas()
    grid = np.zeros(m * m, dtype=np.int64)
    grid[bs["bid"].to_numpy()] = bs["z"].to_numpy()
    grid = grid.reshape(m, m)
    import ray as _ray

    gref = _ray.put(grid)

    def weights(p: np.ndarray) -> list[np.ndarray]:
        q = r2 - p
        w_m1 = q * q * q
        w_0 = 4 * r2**3 - 6 * (p * p) * r2 + 3 * (p * p * p)
        w_1 = 4 * r2**3 - 6 * (q * q) * r2 + 3 * (q * q * q)
        w_2 = p * p * p
        return [w_m1, w_0, w_1, w_2]

    def apply(batch: pa.Table) -> pa.Table:
        g = _ray.get(gref)
        r = batch["row"].to_numpy().astype(np.int64)
        c = batch["col"].to_numpy().astype(np.int64)
        z = batch["z"].to_numpy().astype(np.int64)
        num = np.zeros(len(r), dtype=np.int64)
        tr = 2 * r + 1 - factor
        tc = 2 * c + 1 - factor
        br = tr // r2  # numpy floors (SQL mirrors with the offset form)
        bc = tc // r2
        pr = tr - r2 * br
        pc = tc - r2 * bc
        wr = weights(pr)
        wc = weights(pc)
        for i in range(4):
            bi = np.clip(br + (i - 1), 0, m - 1)
            for j in range(4):
                bj = np.clip(bc + (j - 1), 0, m - 1)
                num = num + (wr[i] * wc[j]) * g[bi, bj]
        detr = z.astype(np.float64) - num.astype(np.float64) / den
        return pa.table(
            {"row": batch["row"], "col": batch["col"], "detr": detr}
        )

    return ds.map_batches(apply, batch_format="pyarrow", batch_size=65536)
