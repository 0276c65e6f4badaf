"""Raster <-> vector stages over a cell-table raster representation.

A "raster" here is a Dataset/table of pixel rows ``(pixel_id, row, col,
band values...)`` plus a :class:`RasterGrid` carried as metadata — the
Ray-native equivalent of the reference's GDAL dataset + geotransform.

Reimplemented semantics (cited against the reference):
- point -> pixel extraction: ``ext_point_band_values``
  (/root/reference/python/rsgislib/zonalstats/__init__.py:1396-1596):
  GDAL top-left geotransform math ``floor((x - tlx)/pxl_w)`` /
  ``floor((y - tly)/pxl_h)`` with ``math.isclose(..., 1e-9)`` zero
  guards (:1538-1546), out-of-image / nodata / threshold ->
  ``out_no_data_val`` (:1562-1586).
- rasterize: ``rasterise_vec_lyr``
  (/root/reference/python/rsgislib/vectorutils/createrasters.py:14-134):
  burn a constant or an attribute onto the grid; GDAL burns features in
  layer order so LATER features overwrite earlier -> aggregate
  ``max(fid)`` / value-of-max-fid per pixel (:108-116 semantics).
- vectorise pixels -> points: ``vectorise_pxls_to_pts``
  (createvectors.py:124-225): every pixel != nodata becomes its
  center-point row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages import partition
from rsgislib_ray.stages.segsum import combine_arrays, combine_dataset
from rsgislib_ray.stages.spatial_join import ZoneSet, broadcast_zones


@dataclass(frozen=True)
class RasterGrid:
    """GDAL-style top-left anchored grid (pxl_h is positive here;
    y grows DOWNWARD from tly like the reference's negative
    geotransform[5])."""

    tlx: float
    tly: float
    pxl_w: float
    pxl_h: float
    n_cols: int
    n_rows: int

    def pixel_of(self, x: np.ndarray, y: np.ndarray):
        """Vectorized reference pixel math incl. the isclose-0 guard.
        Returns (col, row, in_img)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        x_off = x - self.tlx
        y_off = self.tly - y
        col = np.floor(x_off / self.pxl_w)
        row = np.floor(y_off / self.pxl_h)
        col = np.where(np.isclose(x_off, 0.0, rtol=1e-9, atol=1e-9), 0.0, col)
        row = np.where(np.isclose(y_off, 0.0, rtol=1e-9, atol=1e-9), 0.0, row)
        in_img = (col >= 0) & (col < self.n_cols) & (row >= 0) & (row < self.n_rows)
        return (
            np.where(in_img, col, 0).astype(np.int64),
            np.where(in_img, row, 0).astype(np.int64),
            in_img,
        )

    def pixel_id(self, col: np.ndarray, row: np.ndarray) -> np.ndarray:
        return row * np.int64(self.n_cols) + col

    def centers(self, pixel_id: np.ndarray):
        pid = np.asarray(pixel_id, dtype=np.int64)
        row, col = np.divmod(pid, self.n_cols)
        cx = self.tlx + (col + 0.5) * self.pxl_w
        cy = self.tly - (row + 0.5) * self.pxl_h
        return cx, cy


def extract_point_values(
    points: ray.data.Dataset,
    grid: RasterGrid,
    values_ref,
    out_col: str = "pxl_val",
    out_no_data: float = -9999.0,
    img_no_data: float | None = None,
    min_thres: float = -np.inf,
    max_thres: float = np.inf,
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """ext_point_band_values: gather the raster value under each point.

    ``values_ref`` is a ``ray.put`` of a dense float64 array indexed by
    pixel_id (the broadcast raster; for rasters too large to broadcast
    use an equi-join on pixel_id instead — same semantics, documented
    trade-off). Out-of-image / nodata / out-of-threshold points get
    ``out_no_data`` (zonalstats/__init__.py:1562-1586).
    """

    from rsgislib_ray.state.broadcast import cached

    def extract(batch: pa.Table) -> pa.Table:
        values = cached(values_ref)
        col, row, in_img = grid.pixel_of(
            batch[x_col].to_numpy(), batch[y_col].to_numpy()
        )
        pid = grid.pixel_id(col, row)
        val = values[np.where(in_img, pid, 0)]
        out = np.where(in_img, val, out_no_data)
        bad = ~in_img
        if img_no_data is not None:
            bad |= val == img_no_data
        bad |= (val < min_thres) | (val > max_thres)
        out = np.where(bad, out_no_data, out)
        return batch.append_column(out_col, pa.array(out))

    return points.map_batches(extract, batch_format="pyarrow")


def rasterize_zones(
    pixels: ray.data.Dataset,
    zones_tbl: pa.Table,
    grid: RasterGrid,
    burn_attr: str | None = None,
    burn_val: float = 1.0,
    background: float = 0.0,
    x_col: str = "cx",
    y_col: str = "cy",
) -> ray.data.Dataset:
    """rasterise_vec_lyr over a pixel-center Dataset.

    Each pixel row gains ``burn`` — the burn value of the LAST covering
    feature in fid order (GDAL RasterizeLayer overwrite order,
    createrasters.py:108-116), or ``background`` when uncovered. The
    zone side is broadcast with its prebuilt index; pixel batches stream
    through stateless tasks.
    """
    attr_np = zones_tbl[burn_attr].to_numpy() if burn_attr else None
    ref = broadcast_zones(zones_tbl)
    from rsgislib_ray.state.broadcast import cached

    def burn_batch(batch: pa.Table) -> pa.Table:
        zones: ZoneSet = cached(ref)
        px = batch[x_col].to_numpy()
        py = batch[y_col].to_numpy()
        pi, zi = zones.match_points(zones.index, px, py)
        burn = np.full(len(batch), background, dtype=np.float64)
        if len(pi):
            # last-wins by fid: order pairs by (pixel, fid) and keep
            # the max-fid entry per pixel
            fid = zones.fid[zi]
            order = np.lexsort((fid, pi))
            pi_o, zi_o = pi[order], zi[order]
            last = np.concatenate([pi_o[1:] != pi_o[:-1], [True]])
            sel_p, sel_z = pi_o[last], zi_o[last]
            if attr_np is not None:
                burn[sel_p] = attr_np[sel_z]
            else:
                burn[sel_p] = burn_val
        return batch.append_column("burn", pa.array(burn))

    return pixels.map_batches(burn_batch, batch_format="pyarrow")


def make_pixel_centers(grid: RasterGrid, override_num_blocks: int | None = None):
    """Dense pixel-center Dataset for a grid (the rasterize canvas).

    Default block sizing targets ~256k pixels per block: a small
    canvas stays one task, while a 10^9-pixel canvas still fans out to
    thousands of blocks."""
    n = grid.n_cols * grid.n_rows
    if override_num_blocks is None:
        override_num_blocks = max(1, n // 262144)

    def gen(batch: pa.Table) -> pa.Table:
        pid = batch["id"].to_numpy()
        cx, cy = grid.centers(pid)
        row, col = np.divmod(pid, grid.n_cols)
        return pa.table(
            {"pixel_id": pid, "row": row, "col": col, "cx": cx, "cy": cy}
        )

    return ray.data.range(n, override_num_blocks=override_num_blocks).map_batches(
        gen, batch_format="pyarrow"
    )


def _halo_dup_fn(tile_size: int, halo: int):
    """:func:`halo_tiles`' fan-out: each pixel row is copied into every
    tile whose halo-extended frame contains it (the tiles within
    ``ceil(halo / tile_size)`` of its own), tagged with the packed tile
    id ``tr * 2**20 + tc``. Guards the (tr, tc) < 2^20 bound that
    packing relies on (same hazard class as build_pyramid's coordinate
    packing)."""
    reach = -(-halo // tile_size)

    def dup(batch: pa.Table) -> pa.Table:
        r = batch["row"].to_numpy()
        c = batch["col"].to_numpy()
        tr = r // tile_size
        tc = c // tile_size
        if len(r) and (
            int(r.min()) < 0
            or int(c.min()) < 0
            or int(tr.max()) + reach >= 1 << 20
            or int(tc.max()) + reach >= 1 << 20
        ):
            raise ValueError(
                "halo_tiles: tile coords must satisfy 0 <= row/col "
                "and row//tile, col//tile < 2^20 (packed tile id)"
            )
        idx, tids = [], []
        for dr in range(-reach, reach + 1):
            for dc in range(-reach, reach + 1):
                # does this row fall in the halo of tile (tr+dr, tc+dc)?
                tr2 = tr + dr
                tc2 = tc + dc
                ok = (
                    (r >= tr2 * tile_size - halo)
                    & (r < (tr2 + 1) * tile_size + halo)
                    & (c >= tc2 * tile_size - halo)
                    & (c < (tc2 + 1) * tile_size + halo)
                    & (tr2 >= 0)
                    & (tc2 >= 0)
                )
                idx.append(np.flatnonzero(ok))
                tids.append(tr2[ok] * np.int64(2**20) + tc2[ok])
        return batch.take(pa.array(np.concatenate(idx))).append_column(
            "tile_id", pa.array(np.concatenate(tids), pa.int64())
        )

    return dup


@dataclass(frozen=True)
class Tile:
    """One halo tile handed to a :func:`halo_tiles` function: ``rows``
    (the raster rows in the tile's frame), its grid position ``tr``,
    ``tc``, the frame origin ``r0``, ``c0`` and size ``dim`` (tile plus
    halo on each side), each row's int64 frame coordinates ``rr``,
    ``cc``, and ``core``, the rows inside the tile proper (each pixel
    is core in exactly one tile)."""

    rows: pa.Table
    tr: int
    tc: int
    r0: int
    c0: int
    dim: int
    rr: np.ndarray
    cc: np.ndarray
    core: np.ndarray


def halo_tiles(
    raster: ray.data.Dataset, tile_size: int, halo: int, fn
) -> ray.data.Dataset:
    """The halo-tile stage of the focal family, the engine version of
    the reference's ``perform_tiled_img_filter``
    (rsgislib/imagefilter/tiledfilter.py:952-1060 in its python tree):
    the rows of ``raster`` (``row``, ``col`` >= 0) are copied into every
    ``tile_size`` tile whose frame, widened by ``halo`` on each side,
    holds them, and ``fn`` runs once per tile on a :class:`Tile`
    (``partition.group_apply``, no Ray Data all-to-all). ``fn`` returns
    a ``pa.Table`` or a DataFrame; the results come back as one
    materialized Dataset."""
    dim = tile_size + 2 * halo

    def apply(g: pa.Table):
        tr, tc = divmod(g["tile_id"][0].as_py(), 2**20)
        r0, c0 = tr * tile_size - halo, tc * tile_size - halo
        rr = g["row"].to_numpy().astype(np.int64) - r0
        cc = g["col"].to_numpy().astype(np.int64) - c0
        lo, hi = halo, halo + tile_size
        core = (rr >= lo) & (rr < hi) & (cc >= lo) & (cc < hi)
        rows = g.drop_columns(["tile_id"])
        return fn(Tile(rows, tr, tc, r0, c0, dim, rr, cc, core))

    tiled = raster.map_batches(
        _halo_dup_fn(tile_size, halo), batch_format="pyarrow", batch_size=65536
    )
    return partition.group_apply(tiled, "tile_id", apply)


def tiled_filter(
    raster: ray.data.Dataset,
    grid: RasterGrid,
    kernel_size: int = 3,
    value_col: str = "value",
    tile_size: int = 64,
    agg: str = "mean",
) -> ray.data.Dataset:
    """Windowed (focal) filter over :func:`halo_tiles` — the engine
    version of ``perform_tiled_img_filter``
    (/root/reference/python/rsgislib/imagefilter/tiledfilter.py:952-1060):
    the reference cuts overlap tiles to files and Pool.maps a C++ kernel,
    then mosaics with halo trim; here the halo is ROW DUPLICATION into
    neighbor tiles, each tile is one dense convolution in an engine
    partition task, and the trim keeps the core rows — no files.

    Edge pixels use the truncated window (mean over available
    neighbors), matching a normalized box filter with zero-padding
    divided by coverage. Returns (pixel_id, row, col, filtered).

    ``agg`` selects the window reduction: ``"mean"`` (box filter),
    ``"max"`` (grayscale/binary dilation) or ``"min"`` (erosion) —
    the morphology pair of the reference's RSGISMorphologyDilate /
    RSGISMorphologyErode kernels
    (/root/reference/src/filtering/RSGISMorphologyDilate.cpp:60-120,
    python surface image_dilate/image_erode at
    /root/reference/python/src/imagemorphology.cpp:540-560). Max/min
    reduce over PRESENT pixels only (missing cells are -inf/+inf
    filled), so sparse rasters erode/dilate over their true support,
    same truncated-window edge rule as the mean path.
    """
    halo = kernel_size // 2

    def filt(t: Tile) -> pa.Table:
        g, h = t.rows, t.dim
        v = g[value_col].to_numpy().astype(np.float64)
        dense = np.zeros((h, h))
        mask = np.zeros((h, h))
        dense[t.rr, t.cc] = v
        mask[t.rr, t.cc] = 1.0
        # dense box filter via cumulative sums (O(tile) regardless of k)
        def box(a):
            cs = np.cumsum(np.cumsum(a, axis=0), axis=1)
            cs = np.pad(cs, ((1, 0), (1, 0)))
            out = np.zeros_like(a)
            rr0 = np.clip(np.arange(h) - halo, 0, h)
            rr1 = np.clip(np.arange(h) + halo + 1, 0, h)
            for i in range(h):
                out[i] = (
                    cs[rr1[i], rr1] - cs[rr0[i], rr1]
                    - cs[rr1[i], rr0] + cs[rr0[i], rr0]
                )
            return out

        rr, cc = t.rr[t.core], t.cc[t.core]
        if agg in ("max", "min"):
            fill = -np.inf if agg == "max" else np.inf
            red = np.maximum if agg == "max" else np.minimum
            padded = np.full((h + 2 * halo, h + 2 * halo), fill)
            padded[halo : halo + h, halo : halo + h] = np.where(
                mask > 0, dense, fill
            )
            ext = np.full((h, h), fill)
            # k^2 shifted reductions over the dense tile — O(k^2 * tile),
            # k is small (3/5); the window covers present pixels only
            for dr in range(kernel_size):
                for dc in range(kernel_size):
                    ext = red(ext, padded[dr : dr + h, dc : dc + h])
            filt_v = ext[rr, cc]
        else:
            sums = box(dense)
            cov = box(mask)
            with np.errstate(divide="ignore", invalid="ignore"):
                filt_v = sums[rr, cc] / cov[rr, cc]
        return pa.table(
            {
                "pixel_id": g["pixel_id"].to_numpy()[t.core],
                "row": g["row"].to_numpy()[t.core],
                "col": g["col"].to_numpy()[t.core],
                "filtered": filt_v,
            }
        )

    return halo_tiles(raster, tile_size, halo, filt)


def focal_convolve(
    raster: ray.data.Dataset,
    kernels: dict,
    tile_size: int = 64,
    value_col: str = "value",
) -> ray.data.Dataset:
    """Integer-kernel focal convolutions in one halo-tiled pass — the
    derivative/smoothing half of the reference's filter bank
    (imagefilter/__init__.py: apply_sobel[_x/_y]_filter:602-682,
    apply_laplacian_filter:915, apply_gaussian_smooth_filter:764 via an
    integer-QUANTIZED kernel so the distributed sum stays exact).

    ``kernels`` maps output column -> (k x k) int64 numpy array
    (convolved over ``value_col``), or -> (input_col, kernel) to
    convolve a different integer column in the same halo pass (the
    multi-image form the Smith-roughness frontal-area sums need).
    Absent pixels contribute zero (zero-fill), every output is an
    exact int64 — partitioning-independent and SQL-mirrorable."""
    spec = {
        name: (k if isinstance(k, tuple) else (value_col, k))
        for name, k in kernels.items()
    }
    ksz = max(k.shape[0] for _, k in spec.values())
    halo = ksz // 2

    def filt(t: Tile) -> pa.Table:
        g, h = t.rows, t.dim
        denses = {}
        for col in {col for col, _ in spec.values()}:
            v = g[col].to_numpy().astype(np.int64)
            d = np.zeros((h + 2 * halo, h + 2 * halo), dtype=np.int64)
            d[t.rr + halo, t.cc + halo] = v
            denses[col] = d
        rr, cc = t.rr[t.core], t.cc[t.core]
        out = {"pixel_id": g["pixel_id"].to_numpy()[t.core]}
        for name, (col, K) in spec.items():
            dense = denses[col]
            acc = np.zeros((h, h), dtype=np.int64)
            kh = K.shape[0] // 2
            for dr in range(K.shape[0]):
                for dc in range(K.shape[1]):
                    w = int(K[dr, dc])
                    if w == 0:
                        continue
                    acc += w * dense[
                        halo - kh + dr : halo - kh + dr + h,
                        halo - kh + dc : halo - kh + dc + h,
                    ]
            out[name] = acc[rr, cc]
        return pa.table(out)

    return halo_tiles(raster, tile_size, halo, filt)


def focal_kuwahara(
    raster: ray.data.Dataset,
    tile_size: int = 64,
    value_col: str = "value",
) -> ray.data.Dataset:
    """Kuwahara edge-preserving filter, 3x3 window (reference
    apply_kuwahara_filter, imagefilter/__init__.py:571): four
    overlapping 2x2 quadrant windows per pixel; output = mean of the
    quadrant with the LOWEST variance, ties -> lowest quadrant index
    (NW < NE < SW < SE — the deterministic tie rule this engine pins,
    mirrored in the SQL oracle).

    Exactness: per-quadrant (n, s, s2) are exact integers over PRESENT
    pixels; the variance criterion and the output mean are the literal
    float chains ``var = s2/n - (s/n)*(s/n)``, ``mean = s/n`` —
    bit-reproducible in DuckDB. Returns (pixel_id, kuwahara)."""
    halo = 1

    # quadrant q -> the set of (dr, dc) offsets of its 2x2 window
    quads = [
        [(-1, -1), (-1, 0), (0, -1), (0, 0)],  # NW
        [(-1, 0), (-1, 1), (0, 0), (0, 1)],    # NE
        [(0, -1), (0, 0), (1, -1), (1, 0)],    # SW
        [(0, 0), (0, 1), (1, 0), (1, 1)],      # SE
    ]

    def filt(t: Tile) -> pa.Table:
        g, h = t.rows, t.dim
        v = g[value_col].to_numpy().astype(np.int64)
        dense = np.zeros((h + 2, h + 2), dtype=np.int64)
        pres = np.zeros((h + 2, h + 2), dtype=np.int64)
        dense[t.rr + 1, t.cc + 1] = v
        pres[t.rr + 1, t.cc + 1] = 1
        rr, cc = t.rr[t.core], t.cc[t.core]
        best_var = np.full(len(rr), np.inf)
        best_mean = np.zeros(len(rr))
        for offs in quads:
            n = np.zeros(len(rr), dtype=np.int64)
            s = np.zeros(len(rr), dtype=np.int64)
            s2 = np.zeros(len(rr), dtype=np.int64)
            for dr, dc in offs:
                pr, pc_ = rr + 1 + dr, cc + 1 + dc
                p = pres[pr, pc_]
                vv = dense[pr, pc_]
                n += p
                s += vv * p
                s2 += vv * vv * p
            with np.errstate(divide="ignore", invalid="ignore"):
                mean = s / n
                var = s2 / n - mean * mean
            # strict < keeps the LOWEST quadrant index on ties; empty
            # quadrants (n=0 -> nan) never win
            better = var < best_var
            best_var = np.where(better, var, best_var)
            best_mean = np.where(better, mean, best_mean)
        return pa.table(
            {
                "pixel_id": g["pixel_id"].to_numpy()[t.core],
                "kuwahara": best_mean,
            }
        )

    return halo_tiles(raster, tile_size, halo, filt)


def focal_stats(
    raster: ray.data.Dataset,
    kernel_size: int = 3,
    value_col: str = "value",
    tile_size: int = 64,
) -> ray.data.Dataset:
    """The reference's full focal-statistics filter family in ONE
    halo-duplicated tiled pass (imagefilter/__init__.py:
    apply_median_filter:38, apply_mode_filter:162,
    apply_stddev_filter:193, apply_range_filter:224,
    apply_mean_diff[_abs]_filter:255/286,
    apply_total_diff[_abs]_filter:319/350,
    apply_coeff_of_var_filter:383, apply_total_filter:414 — the
    reference runs one C++ kernel per output file; here every window
    statistic comes from the same k^2 shifted-stack pass).

    Exactness contract (drives the SQL oracle): counts/sums/sumsq/
    min/max/total_diff[_abs] are exact integers; mean/var chains are
    the literal expressions ``mean = s/n``, ``var = max(s2/n -
    mean*mean, 0)``, ``std = sqrt(var)`` (IEEE division and sqrt are
    correctly rounded, so DuckDB reproduces them bit-for-bit);
    median = average of the two middle ranks (numpy semantics);
    mode tie -> LOWEST value; coeff_of_var = std/mean with a -1.0
    sentinel when mean == 0. Truncated (present-only) windows at
    edges. Returns one row per pixel with every statistic."""
    halo = kernel_size // 2

    def filt(t: Tile) -> pa.Table:
        g, h = t.rows, t.dim
        v = g[value_col].to_numpy().astype(np.float64)
        # exactness contract (ADVICE r3): the integer-moment reducers
        # (mode domain, f_min/max/total int64 casts) require an
        # integer-valued raster within exact-float range
        if len(v) and (
            np.any(v != np.rint(v)) or np.any(np.abs(v) >= 2.0**53)
        ):
            raise ValueError(
                "focal_stats requires an integer-valued value_col with "
                "|v| < 2^53 (exact int64 moment contract); rescale or "
                "quantize float rasters first"
            )
        dense = np.full((h, h), np.nan)
        dense[t.rr, t.cc] = v
        k = kernel_size
        padded = np.full((h + 2 * halo, h + 2 * halo), np.nan)
        padded[halo : halo + h, halo : halo + h] = dense
        layers = np.stack(
            [
                padded[dr : dr + h, dc : dc + h]
                for dr in range(k)
                for dc in range(k)
            ]
        )
        present = ~np.isnan(layers)
        cnt = present.sum(axis=0).astype(np.float64)
        zl = np.where(present, layers, 0.0)
        s = zl.sum(axis=0)
        s2 = (zl * zl).sum(axis=0)
        mn = np.nanmin(layers, axis=0)
        mx = np.nanmax(layers, axis=0)
        med = np.nanmedian(layers, axis=0)
        # mode over the small integer domain, tie -> lowest value
        dom = np.unique(v).astype(np.int64)
        best_cnt = np.zeros((h, h), dtype=np.int64)
        best_val = np.zeros((h, h), dtype=np.int64)
        for val in dom:  # ascending: strict > keeps the LOWEST tie
            cvt = (present & (layers == float(val))).sum(axis=0)
            better = cvt > best_cnt
            best_cnt = np.where(better, cvt, best_cnt)
            best_val = np.where(better, val, best_val)
        rr, cc = t.rr[t.core], t.cc[t.core]
        ctr = v[t.core]
        n_w = cnt[rr, cc]
        s_w = s[rr, cc]
        s2_w = s2[rr, cc]
        mean = s_w / n_w
        var = np.maximum(s2_w / n_w - mean * mean, 0.0)
        std = np.sqrt(var)
        # abs-diff totals need the per-layer values at the core pixels
        lay_core = layers[:, rr, cc]
        pres_core = present[:, rr, cc]
        tdabs = np.where(
            pres_core, np.abs(ctr[None, :] - lay_core), 0.0
        ).sum(axis=0)
        return pa.table(
            {
                "pixel_id": g["pixel_id"].to_numpy()[t.core],
                "f_min": mn[rr, cc].astype(np.int64),
                "f_max": mx[rr, cc].astype(np.int64),
                "f_range": (mx[rr, cc] - mn[rr, cc]).astype(np.int64),
                "f_total": s_w.astype(np.int64),
                "f_median": med[rr, cc],
                "f_mode": best_val[rr, cc],
                "f_stddev": std,
                "f_mean_diff": ctr - mean,
                "f_mean_diff_abs": np.abs(ctr - mean),
                "f_total_diff": (n_w * ctr - s_w).astype(np.int64),
                "f_total_diff_abs": tdabs.astype(np.int64),
                "f_coeff_var": np.where(mean > 0, std / mean, -1.0),
            }
        )

    return halo_tiles(raster, tile_size, halo, filt)


def images_equal(
    a: ray.data.Dataset,
    b: ray.data.Dataset,
    value_col: str = "value",
    tolerance: float = 0.0,
) -> dict:
    """are_imgs_equal / are_img_bands_equal
    (/root/reference/python/rsgislib/imagecalc/__init__.py:1633 — the
    helper the reference's own golden tests compare rasters with):
    pixel-aligned comparison of two cell tables keyed by pixel_id.
    Returns {equal, n_pixels, n_diff, max_abs_diff}. Both sides are
    reduced to per-batch partial (pixel_id, value) frames and compared
    via a driver merge of the small per-batch summaries when shapes
    align; mismatched pixel sets count as differences.
    """
    pa_a = a.select_columns(["pixel_id", value_col]).to_pandas()
    pa_b = b.select_columns(["pixel_id", value_col]).to_pandas()
    m = pa_a.merge(pa_b, on="pixel_id", how="outer", suffixes=("_a", "_b"))
    va = m[f"{value_col}_a"].to_numpy()
    vb = m[f"{value_col}_b"].to_numpy()
    missing = np.isnan(va) | np.isnan(vb)
    diff = np.abs(va - vb)
    bad = missing | (diff > tolerance)
    return {
        "equal": bool(~bad.any()),
        "n_pixels": int(len(m)),
        "n_diff": int(bad.sum()),
        "max_abs_diff": float(np.nanmax(diff)) if len(m) else 0.0,
    }


def build_pyramid(
    cells: ray.data.Dataset,
    levels: int = 3,
    value_col: str = "val_cents",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Image pyramid / overview levels (reference
    imageutils.gen_overviews + pop_img_stats shape,
    imageutils/__init__.py): aggregate point-cells into a base 1-unit
    pixel grid (level 0) and 2x-coarser levels by exact integer sums.

    One pass: each block emits per-(level, pixel) partial rows for ALL
    levels (a cell contributes to `levels` rows), pre-reduced in the
    block with :func:`rsgislib_ray.stages.segsum.combine_arrays`;
    :func:`rsgislib_ray.stages.segsum.combine_dataset` then sums the
    pixel partials — on the driver, or past a measured size with the
    distributed hash-partitioned ``segment_sum``. Output per (level, px, py):
    n_cells, sum (exact int64) and mean (= sum/n, bit-stable).
    """

    # pack (level, px, py) into one int64 key: px,py < 2^20, level < 16
    def partial(batch: pa.Table) -> pa.Table:
        px0 = np.floor(batch[x_col].to_numpy()).astype(np.int64)
        py0 = np.floor(batch[y_col].to_numpy()).astype(np.int64)
        # the OR-packed key needs 0 <= px,py < 2^20 — negative coords
        # (floor of x<0) or larger grids would silently aggregate
        # under wrong pixels, so enforce the documented bound
        if len(px0) and (
            int(px0.min()) < 0
            or int(py0.min()) < 0
            or int(px0.max()) >= 1 << 20
            or int(py0.max()) >= 1 << 20
        ):
            raise ValueError(
                "build_pyramid: pixel coords must be in [0, 2^20) for "
                "the packed (level, px, py) key; shift/rescale inputs"
            )
        v = batch[value_col].to_numpy().astype(np.int64)
        key = np.concatenate(
            [
                (np.int64(lvl) << np.int64(40))
                | ((px0 >> lvl) << np.int64(20))
                | (py0 >> lvl)
                for lvl in range(levels)
            ]
        )
        return combine_arrays(
            {"k": key},
            {"n_partial": np.ones(len(key), np.int64), "s_partial": np.tile(v, levels)},
        )

    def finish(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy()
        n = batch["n_partial"].to_numpy()
        s = batch["s_partial"].to_numpy()
        return pa.table(
            {
                "level": (k >> np.int64(40)),
                "px": (k >> np.int64(20)) & np.int64((1 << 20) - 1),
                "py": k & np.int64((1 << 20) - 1),
                "n_cells": n,
                "sum_val": s,
                "mean_val": s.astype(np.float64) / n,
            }
        )

    return combine_dataset(
        partition.map_blocks(cells, partial), "k", ["n_partial", "s_partial"], finish=finish
    )


def local_minima(
    raster: ray.data.Dataset,
    width: int,
    height: int,
    value_col: str = "value",
    allow_equals: bool = False,
    tile_size: int = 64,
) -> ray.data.Dataset:
    """Local-minima flags (RSGISMorphologyFindLocalMinima,
    /root/reference/src/filtering/RSGISMorphologyFindExtrema.cpp:94 —
    binary output type). REFERENCE-FAITHFUL QUIRK: the C++ skips any
    window cell in the centre row OR centre column (its guard is
    ``(i != c) & (j != c)``), so in a 3x3 window only the four CORNER
    neighbours are compared; ``allow_equals`` picks strict-< vs <=
    disqualification. Interior pixels only (full windows)."""

    halo = 1

    def per_tile(t: Tile) -> pa.Table:
        g, dim, r0, c0 = t.rows, t.dim, t.r0, t.c0
        rr, cc, core = t.rr, t.cc, t.core
        z = np.zeros((dim, dim), dtype=np.int64)
        p = np.zeros((dim, dim), dtype=bool)
        z[rr, cc] = g[value_col].to_numpy().astype(np.int64)
        p[rr, cc] = True
        # interior of the RASTER (full 3x3 windows)
        gr = rr[core] + r0
        gc = cc[core] + c0
        inner = (
            (gr >= 1) & (gr < height - 1) & (gc >= 1) & (gc < width - 1)
        )
        sr, sc = rr[core][inner], cc[core][inner]
        if not len(sr):
            return pa.table(
                {
                    "pixel_id": pa.array([], pa.int64()),
                    "is_minima": pa.array([], pa.int64()),
                }
            )
        v = z[sr, sc]
        ok = np.ones(len(sr), dtype=bool)
        for dy, dx in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            nb = z[sr + dy, sc + dx]
            present = p[sr + dy, sc + dx]
            if allow_equals:
                ok &= ~(present & (nb < v))
            else:
                ok &= ~(present & (nb <= v))
        return pa.table(
            {
                "pixel_id": (sr + r0) * np.int64(width) + sc + c0,
                "is_minima": ok.astype(np.int64),
            }
        )

    return halo_tiles(raster, tile_size, halo, per_tile)
