"""DEM terrain tool extras: aspect recoding, solar incidence angle,
and plane-fit detrending.

Reimplements three more kernels of the reference's DEM toolbox
(/root/reference/src/calibration/RSGISDEMTools.cpp):

- :func:`recode_aspect_np` — RSGISRecodeAspect::calcImageValue:
  aspect degrees -> 8 compass sectors (1..8, 45 deg each; NaN/flat
  -> 0; >360 wraps).
- :func:`incidence_angle_np` — RSGISCalcRayIncidentAngle: the angle
  between the sun ray and the surface normal from Horn gradients
  (slope/aspect unit vector dotted with the sun unit vector,
  acos -> degrees; flat pixels fall back to the sun zenith — the
  C++ reaches the same value through its NaN branch).
- :func:`detrend_plane` — RSGISDetreadDEMUsingPlaneFit: least-squares
  plane through each pixel's 3x3 neighbourhood (offsets centred at
  the pixel), emitting the plane height at the centre (the intercept
  c). The per-window normal equations use exact integer moments
  (window membership may be partial at edges/holes) solved with the
  fixed-order Cholesky from :mod:`rsgislib_ray.stages.timeseries` —
  the same SQL bit-parity contract.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data


def recode_aspect_np(aspect_deg: np.ndarray) -> np.ndarray:
    """Aspect degrees -> sectors 1..8; negative sentinel (our flat
    marker) or NaN -> 0; values > 360 wrap (RSGISDEMTools.cpp,
    RSGISRecodeAspect)."""
    a = aspect_deg.astype(np.float64).copy()
    bad = ~np.isfinite(a) | (a < 0)
    a = np.where(bad, 0.0, a)
    over = a > 360.0
    a = np.where(over, a - 360.0 * np.floor(a / 360.0), a)
    sec = np.minimum(
        np.floor(a / 45.0).astype(np.int64) + 1, 8
    )  # 360 itself lands in sector 8 per the C++ <=360 branch
    return np.where(bad, 0, sec)


def incidence_angle_np(
    gx: np.ndarray,
    gy: np.ndarray,
    sun_azimuth_deg: float,
    sun_zenith_deg: float,
) -> np.ndarray:
    """Solar incidence angle (degrees) from Horn gradient sums (the
    engine's integer gx/gy with unit resolution, so dx = gx, dy = gy
    and slope = atan(sqrt(gx^2+gy^2)/8) as in the slope kernel).
    Chain mirrors RSGISCalcRayIncidentAngle::calcImageValue:
    aspect = atan2(-dxAspect, dyAspect) with dxAspect = gx (east
    minus west) and dyAspect = gy (south minus north), <0 +360 and
    ==360 -> 0
    normalizations, surface unit vector (sin s cos a, sin s sin a,
    cos s), sun unit vector, acos of the dot product; flat pixels
    emit the sun zenith."""
    d2r = math.pi / 180.0
    r2d = 180.0 / math.pi
    gxf = gx.astype(np.float64)
    gyf = gy.astype(np.float64)
    slope = np.arctan(np.sqrt(gxf * gxf + gyf * gyf) / 8.0)
    # gx is the Horn east-minus-west sum == the C++ dxAspect; the C++
    # slope gradient dxSlope is its negation but only enters squared
    dx_aspect = gxf
    dy_aspect = gyf
    with np.errstate(invalid="ignore"):
        aspect = np.arctan2(-dx_aspect, dy_aspect) * r2d
    aspect = np.where(aspect < 0.0, aspect + 360.0, aspect)
    aspect = np.where(aspect == 360.0, 0.0, aspect)
    arad = aspect * d2r
    pa_ = np.sin(slope) * np.cos(arad)
    pb = np.sin(slope) * np.sin(arad)
    pc = np.cos(slope)
    sz = sun_zenith_deg * d2r
    sa = sun_azimuth_deg * d2r
    ra = math.sin(sz) * math.cos(sa)
    rb = math.sin(sz) * math.sin(sa)
    rc = math.cos(sz)
    out = np.arccos(
        np.clip((pa_ * ra) + (pb * rb) + (pc * rc), -1.0, 1.0)
    ) * r2d
    flat = (gx == 0) & (gy == 0)
    return np.where(flat, sun_zenith_deg, out)


def detrend_plane(
    raster: ray.data.Dataset,
    width: int,
    value_col: str = "value",
    tile_size: int = 64,
) -> ray.data.Dataset:
    """Per-pixel 3x3 least-squares plane height (the c of
    z = a*x + b*y + c over present window members, offsets centred at
    the pixel; empty windows cannot occur — the pixel itself is
    always a member). Halo-tiled: exact integer window moments via
    masked shifts, vectorized fixed-order 3x3 Cholesky."""
    from rsgislib_ray.stages.raster import Tile, halo_tiles
    from rsgislib_ray.stages.timeseries import chol_solve_np

    def per_tile(t: Tile) -> pa.Table:
        r0, c0, dim, rr, cc = t.r0, t.c0, t.dim, t.rr, t.cc
        z = np.zeros((dim, dim), dtype=np.int64)
        p = np.zeros((dim, dim), dtype=np.int64)
        z[rr, cc] = t.rows[value_col].to_numpy().astype(np.int64)
        p[rr, cc] = 1
        sel_r = rr[t.core]
        sel_c = cc[t.core]
        n_pix = len(sel_r)
        if n_pix == 0:
            return pa.table(
                {
                    "pixel_id": pa.array([], pa.int64()),
                    "plane_c": pa.array([], pa.float64()),
                }
            )
        m = {
            k: np.zeros(n_pix, dtype=np.int64)
            for k in (
                "n", "sx", "sy", "sxx", "sxy", "syy",
                "sz", "sxz", "syz",
            )
        }
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                pv = p[sel_r + dy, sel_c + dx]
                zv = z[sel_r + dy, sel_c + dx] * pv
                m["n"] += pv
                m["sx"] += dx * pv
                m["sy"] += dy * pv
                m["sxx"] += dx * dx * pv
                m["sxy"] += dx * dy * pv
                m["syy"] += dy * dy * pv
                m["sz"] += zv
                m["sxz"] += dx * zv
                m["syz"] += dy * zv
        G = np.zeros((n_pix, 3, 3))
        G[:, 0, 0] = m["sxx"]
        G[:, 0, 1] = G[:, 1, 0] = m["sxy"]
        G[:, 0, 2] = G[:, 2, 0] = m["sx"]
        G[:, 1, 1] = m["syy"]
        G[:, 1, 2] = G[:, 2, 1] = m["sy"]
        G[:, 2, 2] = m["n"]
        b = np.stack(
            [
                m["sxz"].astype(np.float64),
                m["syz"].astype(np.float64),
                m["sz"].astype(np.float64),
            ],
            axis=1,
        )
        coef = chol_solve_np(G, b)
        return pa.table(
            {
                "pixel_id": (sel_r + r0) * np.int64(width) + sel_c + c0,
                "plane_c": coef[:, 2],
            }
        )

    return halo_tiles(raster, tile_size, 1, per_tile)


def shadow_mask(
    raster: ray.data.Dataset,
    width: int,
    sun_azimuth_deg: float,
    sun_zenith_deg: float,
    n_steps: int = 12,
    value_col: str = "value",
    tile_size: int = 64,
) -> ray.data.Dataset:
    """Terrain shadow mask (RSGISCalcShadowBinaryMask,
    /root/reference/src/calibration/RSGISDEMTools.cpp): a pixel is
    shadowed when it faces away from the sun (incidence term
    ic = cos(sz)cos(slope) + sin(sz)sin(slope)cos(saz - aspect) < 0)
    OR the discretized ray toward the sun intersects terrain. The
    reference walks a GDAL ray extractor per pixel; ours samples the
    ray at ``n_steps`` unit ground steps with half-up-rounded integer
    offsets (precomputed once, the SQL parity contract) and ray
    heights z + k/tan(zenith). The reference's flat-ground quirk is
    mirrored: flat pixels (zero Horn gradients) skip BOTH tests and
    are never shadowed. Interior pixels only (full 3x3 windows);
    off-grid ray samples see no terrain."""
    from rsgislib_ray.stages.raster import Tile, halo_tiles

    d2r = math.pi / 180.0
    az = sun_azimuth_deg * d2r
    zen = sun_zenith_deg * d2r
    # toward-sun ground direction: east = sin(az), north = cos(az);
    # rows grow southward
    offs = [
        (
            int(math.floor(-k * math.cos(az) + 0.5)),  # drow
            int(math.floor(k * math.sin(az) + 0.5)),  # dcol
            k / math.tan(zen),  # ray height gain
        )
        for k in range(1, n_steps + 1)
    ]
    halo = n_steps + 1
    cos_sz, sin_sz = math.cos(zen), math.sin(zen)

    def per_tile(t: Tile) -> pa.Table:
        r0, c0, dim, rr, cc = t.r0, t.c0, t.dim, t.rr, t.cc
        z = np.zeros((dim, dim), dtype=np.int64)
        p = np.zeros((dim, dim), dtype=bool)
        z[rr, cc] = t.rows[value_col].to_numpy().astype(np.int64)
        p[rr, cc] = True
        # interior core pixels with full 3x3 windows
        sr, sc = rr[t.core], cc[t.core]
        full = np.ones(len(sr), dtype=bool)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                full &= p[sr + dy, sc + dx]
        sr, sc = sr[full], sc[full]
        if not len(sr):
            return pa.table(
                {
                    "pixel_id": pa.array([], pa.int64()),
                    "shadow": pa.array([], pa.int64()),
                }
            )
        gx = np.zeros(len(sr), dtype=np.int64)
        gy = np.zeros(len(sr), dtype=np.int64)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                w_x = (2 if dy == 0 else 1) * (0 if dx == 0 else dx)
                w_y = (2 if dx == 0 else 1) * (0 if dy == 0 else dy)
                v = z[sr + dy, sc + dx]
                gx += w_x * v
                gy += w_y * v
        gxf, gyf = gx.astype(np.float64), gy.astype(np.float64)
        slope = np.arctan(np.sqrt(gxf * gxf + gyf * gyf) / 8.0)
        aspect = np.arctan2(-gxf, gyf) * (180.0 / math.pi)
        aspect = np.where(aspect < 0.0, aspect + 360.0, aspect)
        aspect = np.where(aspect == 360.0, 0.0, aspect)
        arad = aspect * d2r
        ic = (cos_sz * np.cos(slope)) + (
            sin_sz * np.sin(slope) * np.cos(az - arad)
        )
        flat = (gx == 0) & (gy == 0)
        zc = z[sr, sc].astype(np.float64)
        hit = np.zeros(len(sr), dtype=bool)
        for (orow, ocol, tk) in offs:
            r2, c2 = sr + orow, sc + ocol
            ok = (r2 >= 0) & (r2 < dim) & (c2 >= 0) & (c2 < dim)
            r2s, c2s = np.clip(r2, 0, dim - 1), np.clip(c2, 0, dim - 1)
            samp_present = p[r2s, c2s] & ok
            samp = z[r2s, c2s].astype(np.float64)
            hit |= samp_present & (samp > zc + tk)
        shadow = np.where(flat, 0, ((ic < 0.0) | hit).astype(np.int64))
        return pa.table(
            {
                "pixel_id": (sr + r0) * np.int64(width) + sc + c0,
                "shadow": shadow,
            }
        )

    return halo_tiles(raster, tile_size, halo, per_tile)


def terrain_pxl_res_np(
    dem: np.ndarray,
    nodata: float,
    ew_res: np.ndarray,
    ns_res: np.ndarray,
    sun_azimuth: float,
    sun_zenith: float,
):
    """slope_pxl_res_img / aspect_pxl_res_img / hillshade_pxl_res_img
    (elevation bindings over RSGISCalcSlopePerPxlRes:122,
    RSGISCalcAspectPerPxlRes:311, RSGISCalcHillShadePerPxlRes:593 in
    RSGISDEMTools.cpp): Horn gradients with per-pixel EW/NS
    resolutions read at the window centre.

    Quirks kept (each mirrored by the SQL oracle):

    - Out-of-image window cells are ZERO-FILLED (RSGISCalcImage) and
      the zeros count as DATA (0 != noDataVal), so border windows
      always have nVals = 9 minus in-image nodata cells.
    - The window-nodata mean fill: slope and aspect ACCUMULATE IN
      FLOAT32 (``float sumVals``), hillshade in DOUBLE (``double
      sumVals``) — a genuine kernel inconsistency; the filled value
      is rounded back to float32 either way; the fill fires only
      when hasNoDataVal && nVals > 1.
    - dx sign conventions differ: slope uses (west - east)/ewRes,
      aspect and hillshade (east - west); hillshade divides by
      res*8 inside the float chain while slope/aspect divide the
      raw column sums and fold the /8 into atan(sqrt(..)/8).
    - nsRes is abs()'d; all float chains are per-op float32
      (left-assoc doubled-middle Horn sums) before the double
      trig; slope falls back to 0.0, hillshade to 1.0, aspect to
      NaN when nVals <= 1; aspect's flat (dx==0 && dy==0) is NaN,
      its <0 branch adds 360, and the ==360 / >360 branches are
      unreachable post-atan2 (dead-branch parity).
    - hillshade gets zenith = 90 - zenith from the cmds layer
      (RSGISCmdElevationTools.cpp:338) and
      cang = (sin(zen) - cos(zen)*sqrt(xx+yy)*sin(aspect-(az-pi/2)))
      / sqrt(1+xx+yy), mapped to 1 + 254*cang with cang<=0 -> 1.

    Returns (slope_deg, aspect_deg_with_nan, hillshade, dxs, dys,
    dxa, dya, nvals) as float64/int arrays.
    """
    F = np.float32
    H, W = dem.shape
    pad = np.zeros((H + 2, W + 2), dtype=np.float32)
    pad[1:-1, 1:-1] = dem.astype(np.float32)
    ndpad = np.zeros((H + 2, W + 2), dtype=bool)
    ndpad[1:-1, 1:-1] = dem == nodata
    neigh = [pad[i : i + H, j : j + W] for i in range(3) for j in range(3)]
    masks = [ndpad[i : i + H, j : j + W] for i in range(3) for j in range(3)]
    nvals = 9 - np.sum(masks, axis=0).astype(np.int64)
    hasnd = np.any(masks, axis=0)
    fillc = hasnd & (nvals > 1)

    s32 = np.zeros((H, W), dtype=np.float32)
    for v, m in zip(neigh, masks):
        s32 = np.where(m, s32, (s32 + v).astype(np.float32))
    meanf = (s32 / nvals.astype(np.float32)).astype(np.float32)
    fsa = [
        np.where(m & fillc, meanf, v).astype(np.float32)
        for v, m in zip(neigh, masks)
    ]
    s64 = np.zeros((H, W), dtype=np.float64)
    for v, m in zip(neigh, masks):
        s64 = np.where(m, s64, s64 + v.astype(np.float64))
    meand = s64 / nvals
    fh = [
        np.where(m & fillc, meand.astype(np.float32), v).astype(np.float32)
        for v, m in zip(neigh, masks)
    ]

    ew = ew_res.astype(np.float32)
    ns = np.where(ns_res < 0, ns_res * -1, ns_res).astype(np.float32)

    def col0(f):
        return (((f[0] + f[3]).astype(F) + f[3]).astype(F) + f[6]).astype(F)

    def col2(f):
        return (((f[2] + f[5]).astype(F) + f[5]).astype(F) + f[8]).astype(F)

    def row0(f):
        return (((f[0] + f[1]).astype(F) + f[1]).astype(F) + f[2]).astype(F)

    def row2(f):
        return (((f[6] + f[7]).astype(F) + f[7]).astype(F) + f[8]).astype(F)

    rad2deg = 180.0 / math.pi
    deg2rad = math.pi / 180.0

    # slope: (west - east)/ew, (south - north)/ns, atan(sqrt(.)/8)
    dxs = ((col0(fsa) - col2(fsa)).astype(F) / ew).astype(F)
    dys = ((row2(fsa) - row0(fsa)).astype(F) / ns).astype(F)
    dxd, dyd = dxs.astype(np.float64), dys.astype(np.float64)
    slope = np.arctan(np.sqrt(dxd * dxd + dyd * dyd) / 8) * rad2deg
    slope = np.where(nvals > 1, slope, 0.0)

    # aspect: (east - west)/ew, (south - north)/ns, atan2(-dx, dy)
    dxa = ((col2(fsa) - col0(fsa)).astype(F) / ew).astype(F)
    dya = ((row2(fsa) - row0(fsa)).astype(F) / ns).astype(F)
    asp = np.arctan2(-dxa.astype(np.float64), dya.astype(np.float64)) * rad2deg
    asp = np.where(asp < 0, asp + 360.0, asp)
    asp = np.where((dxa == 0) & (dya == 0), np.nan, asp)
    asp = np.where(nvals > 1, asp, np.nan)

    # hillshade: (east - west)/(ew*8), (north - south)/(ns*8)
    e8 = (ew * np.float32(8)).astype(F)
    n8 = (ns * np.float32(8)).astype(F)
    dxh = ((col2(fh) - col0(fh)).astype(F) / e8).astype(F)
    dyh = ((row0(fh) - row2(fh)).astype(F) / n8).astype(F)
    dxhd, dyhd = dxh.astype(np.float64), dyh.astype(np.float64)
    xxyy = dxhd * dxhd + dyhd * dyhd
    asph = np.arctan2(dyhd, dxhd)
    szr = (90.0 - sun_zenith) * deg2rad
    azr = sun_azimuth * deg2rad
    cang = (
        math.sin(szr)
        - math.cos(szr) * np.sqrt(xxyy) * np.sin(asph - (azr - math.pi / 2))
    ) / np.sqrt(1 + 1 * xxyy)
    cang = np.where(cang <= 0.0, 1.0, 1.0 + 254.0 * cang)
    cang = np.where(nvals > 1, cang, 1.0)
    return slope, asp, cang, dxs, dys, dxa, dya, nvals


def _angle_within_range(angle: float, lower: float, upper: float) -> bool:
    """RSGISMathsUtils::angleWithinRange (RSGISMathsUtils.cpp:806)
    with the reference's wrapped-range BUG kept: when lower > upper
    (a wrapped interval) the second arm tests ``angle < 0``, which an
    aspect in [0, 360) never satisfies — so only the (0, upper) part
    of the wrapped interval ever matches and the (lower, 360) part is
    DEAD.  All comparisons strict."""
    if lower < upper:
        return (angle > lower) and (angle < upper)
    if (angle > 0) and (angle < upper):
        return True
    if (angle > lower) and (angle < 0):
        return True  # pragma: no cover - unreachable for aspects
    return False


def dtm_aspect_median_np(
    dem: np.ndarray,
    aspect: np.ndarray,
    aspect_range: float,
    win_h: int,
    nodata: float,
) -> np.ndarray:
    """dtm_aspect_median_filter (elevation binding over
    RSGISFilterDTMWithAspectMedianFilter, RSGISDEMTools.cpp:1195):
    per pixel, the median of window DEM values whose ASPECT lies
    within +/-aspect_range of the centre aspect.

    Quirks kept (mirrored by the SQL oracle): thresholds wrap
    (lower<0 -> 360+lower, upper>360 -> upper-360) and then go
    through the angleWithinRange dead-arm bug above; the median is
    the sorted value at floor(n/2) (the UPPER middle for even n);
    an empty aspect-filtered set falls back to the unfiltered window
    median; a fully nodata window emits NaN; window size =
    2*win_h+1 with zero-filled borders where dem 0 counts as data
    and aspect 0 never passes the strict angle test.  Returns
    (median, tier): tier 0 = aspect-filtered median, 1 = unfiltered
    fallback, 2 = all-nodata (median NaN)."""
    h, w = dem.shape
    k = 2 * win_h + 1
    dpad = np.zeros((h + 2 * win_h, w + 2 * win_h), dtype=np.float32)
    dpad[win_h : win_h + h, win_h : win_h + w] = dem.astype(np.float32)
    apad = np.zeros((h + 2 * win_h, w + 2 * win_h), dtype=np.float32)
    apad[win_h : win_h + h, win_h : win_h + w] = aspect.astype(np.float32)
    out = np.zeros((h, w), dtype=np.float64)
    tier = np.zeros((h, w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            dwin = dpad[r : r + k, c : c + k]
            awin = apad[r : r + k, c : c + k]
            aspect_val = float(awin[win_h, win_h])
            lower = np.float32(aspect_val - aspect_range)
            upper = np.float32(aspect_val + aspect_range)
            if lower < 0:
                lower = np.float32(360 + lower)
            if upper > 360:
                upper = np.float32(upper - 360)
            vals = [
                float(dwin[i, j])
                for i in range(k)
                for j in range(k)
                if _angle_within_range(float(awin[i, j]), lower, upper)
                and not math.isnan(float(dwin[i, j]))
                and float(dwin[i, j]) != nodata
            ]
            if not vals:
                tier[r, c] = 1
                vals = [
                    float(dwin[i, j])
                    for i in range(k)
                    for j in range(k)
                    if not math.isnan(float(dwin[i, j]))
                    and float(dwin[i, j]) != nodata
                ]
            if vals:
                vals.sort()
                out[r, c] = vals[int(math.floor(len(vals) / 2.0))]
            else:
                tier[r, c] = 2
                out[r, c] = float("nan")
    return out, tier
