"""Low-res band sharpening (imageutils.sharpen_low_res_bands —
src/cmds/RSGISCmdImageUtils.cpp:2147 executeSharpenLowResImgBands,
kernel src/img/RSGISSharpenLowResImagery.cpp:82 calcImageValue,
fit math src/math/RSGISMathsUtils.cpp:1423 performLinearFit /
:1493 predFromLinearFit). Used by the Sentinel-2 L2A stacker
(imagecalibration/sensorlvl2data.py:734 create_stacked_sen2_esa_l2a_img
with win_size=7) to sharpen the 20 m bands against the 10 m bands.

Semantics mirrored exactly:

- per-pixel ``win x win`` window over ALL bands; cells beyond the image
  edge are ZERO (RSGISCalcImage::calcImageWindowData zero-fills its
  block margins, RSGISCalcImage.cpp:8650-8699);
- a pixel whose centre value int-truncates to ``no_data_val`` in EVERY
  band writes ``no_data_val`` to every output band;
- high-res / ignore bands pass their centre value through;
- each low-res band is fit (OLS y = a + b x) against EVERY high-res
  band over the window pairs where neither value equals
  ``no_data_val``; N < 3 valid pairs -> a zero fit (coeff 0);
- fit sums accumulate doubles in window scan order (row-major); with
  integer-valued bands bounded so every product stays < 2^53 they are
  EXACT integers (enforced below), so slope / intercept / ybar are
  single correctly-rounded divisions;
- ``coeff = sqrt(sum((a+b*x - ybar)^2) / sum((y - ybar)^2))`` over the
  valid pairs — BOTH residual sums are order-dependent double folds,
  reproduced with numpy ``add.reduce`` over the window-scan layer axis
  (a literal sequential left fold; invalid pairs contribute exact
  +0.0). NaN coeff (0/0) -> 0.0 per the C++ isnan guard; +inf
  (sumyact == 0 < sumyest) is KEPT (the guard only catches NaN);
- the high band with the LARGEST coeff wins (first-wins strict >, band
  order; band 0 seeds the scan), and only a winner with coeff > 0.5
  sharpens — otherwise the low-res centre value passes through;
- predFromLinearFit: centre x == 0 returns 0.0 BEFORE the accepted-
  range clamps (quirk kept); otherwise slope*x + intercept clamped to
  the band's WHOLE-IMAGE min/max (calcImageStatistics over all pixels
  including nodata — the spectral_division pin);
- all-valid-x-equal windows with N >= 3 (pvar == 0) would propagate
  IEEE inf/NaN through the C++ doubles; that branch is rejected with
  an explicit error here (same contract class as the LCC n > 0
  restriction) — callers must not feed constant-valued windows.

Scale shape: one ``raster.halo_tiles`` pass (the focal family's
halo-duplicated tiles on the engine's partition tasks); per-tile work
is fully vectorized over the 49 shifted layers. No driver-side state
beyond the broadcast band min/max scalars.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.stages.raster import Tile, halo_tiles

__all__ = ["sharpen_low_res_bands"]


def sharpen_low_res_bands(
    raster: ray.data.Dataset,
    band_status: list[tuple[str, str]],
    low_min_max: dict[str, tuple[float, float]],
    win_size: int = 7,
    no_data_val: int = 0,
    tile_size: int = 32,
) -> ray.data.Dataset:
    """Sharpen every ``low`` band against the ``high`` bands.

    ``raster``: (pixel_id, row, col, <band columns>) int-valued bands.
    ``band_status``: ordered [(column, 'high'|'low'|'ignore'), ...] —
    the reference's SharpBandInfo list (band order matters: it sets
    the first-wins scan order and the output column order).
    ``low_min_max``: per low-band (min, max) accepted prediction range
    — the reference computes these as whole-image stats INCLUDING
    nodata pixels; callers do the same (e.g. via segment_sum min/max
    with no mask).
    """
    if win_size % 2 != 1 or win_size < 3:
        raise ValueError("win_size must be odd and >= 3")
    halo = win_size // 2
    cols = [c for c, _ in band_status]
    high_cols = [c for c, s in band_status if s == "high"]
    low_cols = [c for c, s in band_status if s == "low"]
    if not high_cols or not low_cols:
        raise ValueError("need at least one high and one low band")
    for c in low_cols:
        if c not in low_min_max:
            raise ValueError(f"low band {c!r} missing min/max")

    k = win_size
    nd = float(no_data_val)

    def sharpen(t: Tile) -> pa.Table:
        g, h, core = t.rows, t.dim, t.core
        rr, cc = t.rr[core], t.cc[core]
        npx = int(core.sum())
        # dense per-band grids; absent cells (image edge) are ZERO —
        # the C++ window zero-fill. 49 shifted layers per band in
        # window scan order (dr rows outer, dc cols inner).
        layers: dict[str, np.ndarray] = {}
        centers: dict[str, np.ndarray] = {}
        for col in cols:
            v = g[col].to_numpy().astype(np.float64)
            if len(v) and (
                np.any(v != np.rint(v)) or np.any(np.abs(v) >= 2.0**17)
            ):
                raise ValueError(
                    "sharpen_low_res_bands requires integer band values "
                    "with |v| < 2^17 (exact double moment contract)"
                )
            dense = np.zeros((h, h))
            dense[t.rr, t.cc] = v
            padded = np.zeros((h + 2 * halo, h + 2 * halo))
            padded[halo : halo + h, halo : halo + h] = dense
            lay = np.stack(
                [
                    padded[dr : dr + h, dc : dc + h][rr, cc]
                    for dr in range(k)
                    for dc in range(k)
                ]
            )  # (k*k, npx) at the CORE pixels only
            layers[col] = lay
            centers[col] = dense[rr, cc]

        # centre-all-nodata mask (int truncation of the centre value)
        all_nd = np.ones(npx, dtype=bool)
        for col in cols:
            all_nd &= centers[col].astype(np.int64) == int(nd)

        out: dict[str, np.ndarray] = {
            "pixel_id": g["pixel_id"].to_numpy()[core]
        }
        # per (low, high) OLS fits, vectorized across core pixels
        fits: dict[tuple[str, str], tuple] = {}
        for lc in low_cols:
            yl = layers[lc]
            for hc in high_cols:
                xl = layers[hc]
                valid = (xl != nd) & (yl != nd)
                xi = np.where(valid, xl, 0.0)
                yi = np.where(valid, yl, 0.0)
                n = valid.sum(axis=0).astype(np.float64)
                sumx = xi.sum(axis=0)
                sumy = yi.sum(axis=0)
                sumxy = (xi * yi).sum(axis=0)
                sumxsqr = (xi * xi).sum(axis=0)
                pvar = n * sumxsqr - sumx * sumx
                okn = n >= 3
                if np.any(okn & (pvar == 0.0) & ~all_nd):
                    raise ValueError(
                        "constant-x window with >= 3 valid pairs: the "
                        "reference would propagate IEEE inf/NaN here; "
                        "unsupported input class"
                    )
                with np.errstate(divide="ignore", invalid="ignore"):
                    slope = np.where(
                        okn, (n * sumxy - sumx * sumy) / pvar, 0.0
                    )
                    intercept = np.where(
                        okn, (sumy * sumxsqr - sumx * sumxy) / pvar, 0.0
                    )
                    ybar = np.where(okn, sumy / np.maximum(n, 1.0), 0.0)
                    # ordered left folds over the window scan axis —
                    # np.add.reduce accumulates axis-0 sequentially,
                    # matching the C++ += loop; invalid pairs add +0.0
                    est_t = np.where(
                        valid,
                        (slope[None, :] * xl + intercept[None, :]
                         - ybar[None, :]) ** 2,
                        0.0,
                    )
                    act_t = np.where(valid, (yl - ybar[None, :]) ** 2, 0.0)
                    sumyest = np.add.reduce(est_t, axis=0)
                    sumyact = np.add.reduce(act_t, axis=0)
                    coeff = np.sqrt(sumyest / sumyact)
                coeff = np.where(np.isnan(coeff), 0.0, coeff)
                coeff = np.where(okn, coeff, 0.0)
                fits[(lc, hc)] = (slope, intercept, coeff)

        for col, status in band_status:
            if status in ("high", "ignore"):
                res = centers[col].copy()
            else:
                mn, mx = low_min_max[col]
                cstack = np.stack([fits[(col, hc)][2] for hc in high_cols])
                best = np.argmax(cstack, axis=0)  # first max wins
                max_coeff = cstack[best, np.arange(npx)]
                slope = np.stack(
                    [fits[(col, hc)][0] for hc in high_cols]
                )[best, np.arange(npx)]
                intercept = np.stack(
                    [fits[(col, hc)][1] for hc in high_cols]
                )[best, np.arange(npx)]
                xc = np.stack(
                    [centers[hc] for hc in high_cols]
                )[best, np.arange(npx)]
                pred = slope * xc + intercept
                pred = np.where(pred < mn, mn, pred)
                pred = np.where(pred > mx, mx, pred)
                pred = np.where(xc == 0.0, 0.0, pred)  # val==0 quirk
                res = np.where(max_coeff > 0.5, pred, centers[col])
                out[f"{col}_coeff"] = np.where(all_nd, 0.0, max_coeff)
            out[col] = np.where(all_nd, nd, res)
        return pa.table(out)

    return halo_tiles(raster, tile_size, halo, sharpen)
