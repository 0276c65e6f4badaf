"""Radiometric calibration: DN -> radiance -> top-of-atmosphere
reflectance -> (6S) surface reflectance, thermal brightness,
saturation masks, dark-object subtraction, and solar geometry.

Reimplements the closed-form per-pixel slice of the reference's
imagecalibration module (the multi-band "image" here is a table with
one column per band; each op is ONE vectorized ``map_batches`` over
zero-copy Arrow batches, streaming block-by-block — nothing shuffles,
so every op here is trivially 100-TB-safe):

- DN -> radiance gain/offset forms + saturation mask:
  /root/reference/src/calibration/RSGISStandardDN2RadianceCalibration.cpp:28-205
- TOA reflectance / thermal brightness / TOA -> radiance (incl. the
  reference's ``distSq = 1/distance`` quirk) + USNO solar distance:
  /root/reference/src/calibration/RSGISCalculateTopOfAtmosphereReflectance.{h:55-97,cpp:28-125}
- dark-object subtraction offsets:
  /root/reference/src/calibration/RSGISApplySubtractOffsets.cpp:38-140
- 6S coefficient application (single-param + elevation LUT):
  /root/reference/src/calibration/RSGISApply6SCoefficients.cpp
- perform_dos_calc / get_esun_value / visibility_to_aot:
  /root/reference/python/rsgislib/imagecalibration/__init__.py:74,394,421
- per-pixel solar azimuth/zenith (reference wraps Pysolar,
  imagecalibration/solarangles.py:99; ours is the USNO approximate
  algorithm the reference already cites for solar distance)

Band parameters are tiny frozen structs captured in the UDF closure
(no broadcast); the only op with global state is the DOS composite,
whose per-band dark-object offsets come from one bounded-cardinality
histogram pass reduced to ceil-rank percentiles (the repo's exact
percentile convention, see ``masked_percentile``). Scalar
date/geometry terms (earth-sun distance, cos of the scene solar
zenith, GMST) are computed ONCE on the driver and inlined into the
vectorized chain, so oracle SQL mirrors them as full-precision
literals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine

__all__ = [
    "LandsatRadGainOffs",
    "julian_day",
    "solar_distance",
    "get_esun_value",
    "visibility_to_aot",
    "landsat_to_radiance",
    "landsat_to_radiance_multi_add",
    "radiance_to_toa_refl",
    "toa_refl_to_radiance",
    "thermal_brightness",
    "saturation_mask",
    "apply_subtract_single_offsets",
    "apply_subtract_offsets",
    "band_dark_percentiles",
    "perform_dos_calc",
    "apply_6s_coefficients",
    "apply_6s_elev_lut",
    "solar_geometry_constants",
    "solar_azimuth_zenith",
]


# ---------------------------------------------------------------------------
# scalar helpers (reference cmds executeGetJulianDay /
# executeGetEarthSunDistance, RSGISCmdImageCalibration.cpp:1767,1785)
# ---------------------------------------------------------------------------


def julian_day(year: int, month: int, day: int) -> int:
    """Julian day number of a Gregorian date (integer, noon-based —
    the value boost::gregorian::date::julian_day() returns for the
    reference's rsgisGetJulianDay). Fliegel & Van Flandern (1968)
    integer form, valid for all Gregorian dates."""
    a = (14 - month) // 12
    y = year + 4800 - a
    m = month + 12 * a - 3
    return (
        day
        + (153 * m + 2) // 5
        + 365 * y
        + y // 4
        - y // 100
        + y // 400
        - 32045
    )


def julian_day_np(
    year: np.ndarray, month: np.ndarray, day: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`julian_day` (same Fliegel & Van Flandern
    integer chain, int64 throughout)."""
    year = year.astype(np.int64)
    month = month.astype(np.int64)
    day = day.astype(np.int64)
    a = (14 - month) // 12
    y = year + 4800 - a
    m = month + 12 * a - 3
    return (
        day
        + (153 * m + 2) // 5
        + 365 * y
        + y // 4
        - y // 100
        + y // 400
        - 32045
    )


def solar_distance(jd: float) -> float:
    """Earth-sun distance in AU for a Julian day — the USNO
    approximation the reference inlines
    (RSGISCalculateTopOfAtmosphereReflectance.h:55-91)."""
    d = jd - 2451545.0
    g = (357.529 + 0.98560028 * d) * (math.pi / 180.0)
    return 1.00014 - 0.01671 * math.cos(g) - 0.00014 * math.cos(2 * g)


def get_esun_value(
    radiance: float,
    toa_refl: float,
    day: int,
    month: int,
    year: int,
    solar_zenith_deg: float,
) -> float:
    """Invert the TOA equation for ESUN given one known
    (radiance, reflectance) pair (imagecalibration/__init__.py:394,
    same step order)."""
    d = solar_distance(julian_day(year, month, day))
    step1 = math.pi * radiance * (d * d)
    step2 = step1 / toa_refl
    return step2 / math.cos(math.radians(solar_zenith_deg))


def visibility_to_aot(vis: float) -> float:
    """Visibility estimate -> aerosol optical thickness
    (imagecalibration/__init__.py:421)."""
    return (3.9449 / vis) + 0.08498


# ---------------------------------------------------------------------------
# DN -> radiance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LandsatRadGainOffs:
    """Per-band calibration constants
    (CmdsLandsatRadianceGainsOffsets, RSGISCmdImageCalibration.h:48)."""

    band: str  # input DN column
    l_min: float
    l_max: float
    q_cal_min: float
    q_cal_max: float


def _nodata_rows(arrs: list[np.ndarray], no_data_val: float) -> np.ndarray:
    """Reference border semantics: a pixel is nodata iff EVERY input
    band equals ``no_data_val``
    (RSGISStandardDN2RadianceCalibration.cpp:33-42)."""
    m = np.ones(len(arrs[0]), dtype=bool)
    for a in arrs:
        m &= a == no_data_val
    return m


def landsat_to_radiance(
    ds: ray.data.Dataset,
    specs: dict[str, LandsatRadGainOffs],
    keep_cols: list[str] | None = None,
    probe_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """DN -> spectral radiance, (Lmax-Lmin)/(Qmax-Qmin) gain form
    (RSGISLandsatRadianceCalibration::calcImageValue,
    RSGISStandardDN2RadianceCalibration.cpp:28-62). All-zero pixels
    (image border) emit 0 in every band; the C++ border probe scans
    EVERY band of the input image, so when calibrating a subset of
    bands pass the full band list as ``probe_cols``."""
    keep = list(keep_cols or [])
    items = list(specs.items())
    probe = list(probe_cols or [s.band for _o, s in items])

    def f(batch: pa.Table) -> pa.Table:
        dns = [
            batch[s.band].to_numpy().astype(np.float64) for _o, s in items
        ]
        nodata = _nodata_rows(
            [batch[c].to_numpy().astype(np.float64) for c in probe], 0.0
        )
        out = {c: batch[c] for c in keep}
        for (out_col, s), dn in zip(items, dns):
            gain = (s.l_max - s.l_min) / (s.q_cal_max - s.q_cal_min)
            rad = gain * (dn - s.q_cal_min) + s.l_min
            out[out_col] = np.where(nodata, 0.0, rad)
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


def landsat_to_radiance_multi_add(
    ds: ray.data.Dataset,
    specs: dict[str, tuple[str, float, float]],
    keep_cols: list[str] | None = None,
    probe_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """DN -> radiance, gain*DN + offset form
    (RSGISLandsatRadianceCalibrationMultiAdd::calcImageValue,
    RSGISStandardDN2RadianceCalibration.cpp:66-97). ``specs`` maps
    output column -> (input column, multVal, addVal); ``probe_cols``
    as in :func:`landsat_to_radiance`."""
    keep = list(keep_cols or [])
    items = list(specs.items())
    probe = list(probe_cols or [c for _o, (c, _m, _a) in items])

    def f(batch: pa.Table) -> pa.Table:
        dns = [
            batch[c].to_numpy().astype(np.float64) for _o, (c, _m, _a) in items
        ]
        nodata = _nodata_rows(
            [batch[c].to_numpy().astype(np.float64) for c in probe], 0.0
        )
        out = {c: batch[c] for c in keep}
        for (out_col, (_c, mult, add)), dn in zip(items, dns):
            out[out_col] = np.where(nodata, 0.0, mult * dn + add)
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


# ---------------------------------------------------------------------------
# radiance <-> TOA reflectance, thermal brightness
# ---------------------------------------------------------------------------


def radiance_to_toa_refl(
    ds: ray.data.Dataset,
    specs: dict[str, tuple[str, float]],
    solar_zenith_deg: float,
    scale_factor: float = 1.0,
    jd: int | None = None,
    date_ymd: tuple[int, int, int] | None = None,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Radiance -> TOA reflectance
    rho = (pi * L * d^2) / (ESUN * cos(theta_s)) * scale
    (RSGISCalculateTopOfAtmosphereReflectance::calcImageValue,
    RSGISCalculateTopOfAtmosphereReflectance.cpp:37-48; the C++ takes
    the zenith in radians, the Python wrappers pass degrees — we take
    degrees). ``specs`` maps output column -> (radiance column, ESUN).
    ``d`` comes from the USNO formula for ``jd`` (or ``date_ymd``)."""
    if jd is None:
        if date_ymd is None:
            raise ValueError("need jd or date_ymd")
        jd = julian_day(*date_ymd)
    d = solar_distance(jd)
    dist_sq = d * d
    cos_z = math.cos(math.radians(solar_zenith_deg))
    keep = list(keep_cols or [])
    items = list(specs.items())

    def f(batch: pa.Table) -> pa.Table:
        out = {c: batch[c] for c in keep}
        for out_col, (col, esun) in items:
            rad = batch[col].to_numpy().astype(np.float64)
            out[out_col] = (
                (np.pi * rad * dist_sq) / (esun * cos_z)
            ) * scale_factor
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


def toa_refl_to_radiance(
    ds: ray.data.Dataset,
    specs: dict[str, tuple[str, float]],
    solar_zenith_deg: float,
    solar_dist: float,
    scale_factor: float = 1.0,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """TOA reflectance -> radiance, REFERENCE-FAITHFUL: the C++
    constructor sets ``distSq = 1 / distance`` (not d^2,
    RSGISCalculateTopOfAtmosphereReflectance.cpp:104) so the applied
    formula is L = ((rho/scale) * ESUN * cos(theta)) / (pi * (1/d)) —
    NOT the algebraic inverse of the forward op unless d == 1. We
    mirror it exactly and document the quirk rather than fixing it."""
    inv_d = 1.0 / solar_dist
    cos_z = math.cos(math.radians(solar_zenith_deg))
    keep = list(keep_cols or [])
    items = list(specs.items())

    def f(batch: pa.Table) -> pa.Table:
        out = {c: batch[c] for c in keep}
        for out_col, (col, esun) in items:
            refl = batch[col].to_numpy().astype(np.float64)
            out[out_col] = ((refl / scale_factor) * esun * cos_z) / (
                np.pi * inv_d
            )
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


def thermal_brightness(
    ds: ray.data.Dataset,
    specs: dict[str, tuple[str, float, float]],
    scale_factor: float = 1.0,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Thermal radiance -> at-sensor brightness temperature in
    CELSIUS: T = (K2 / ln(K1/L + 1) - 273.15) * scale, zero radiance
    -> 0 (RSGISCalculateTOAThermalBrightness::calcImageValue,
    RSGISCalculateTopOfAtmosphereReflectance.cpp:64-86). ``specs``
    maps output column -> (radiance column, K1, K2)."""
    keep = list(keep_cols or [])
    items = list(specs.items())

    def f(batch: pa.Table) -> pa.Table:
        out = {c: batch[c] for c in keep}
        for out_col, (col, k1, k2) in items:
            rad = batch[col].to_numpy().astype(np.float64)
            nz = rad != 0.0
            safe = np.where(nz, rad, 1.0)
            temp = k2 / np.log((k1 / safe) + 1.0)
            out[out_col] = np.where(nz, (temp - 273.15) * scale_factor, 0.0)
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


def saturation_mask(
    ds: ray.data.Dataset,
    specs: dict[str, tuple[str, float]],
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Per-band saturated-pixel mask: DN == satVal -> 1 else 0
    (RSGISIdentifySaturatePixels::calcImageValue,
    RSGISStandardDN2RadianceCalibration.cpp:187-205). ``specs`` maps
    output column -> (input column, saturation value)."""
    keep = list(keep_cols or [])
    items = list(specs.items())

    def f(batch: pa.Table) -> pa.Table:
        out = {c: batch[c] for c in keep}
        for out_col, (col, sat) in items:
            v = batch[col].to_numpy().astype(np.float64)
            out[out_col] = (v == sat).astype(np.int64)
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


# ---------------------------------------------------------------------------
# dark-object subtraction
# ---------------------------------------------------------------------------


def _apply_offset_chain(
    v: np.ndarray,
    off: np.ndarray | float,
    non_negative: bool,
    no_data_val: float,
    use_no_data: bool,
    dark_obj_refl: float,
) -> np.ndarray:
    """Shared per-band offset-subtraction branch structure
    (RSGISApplySubtractOffsets.cpp:45-79: the nodata test is
    PER-BAND, and the non-negative clamp snaps <=0 to 1.0)."""
    t = (v - off) + dark_obj_refl
    if non_negative:
        t = np.where(t <= 0, 1.0, t)
    if use_no_data:
        t = np.where(v == no_data_val, no_data_val, t)
    return t


def apply_subtract_single_offsets(
    ds: ray.data.Dataset,
    specs: dict[str, tuple[str, float]],
    non_negative: bool = True,
    no_data_val: float = 0.0,
    use_no_data: bool = True,
    dark_obj_refl: float = 0.0,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Subtract one scalar offset per band
    (RSGISApplyDarkObjSubtractSingleOffsets::calcImageValue,
    RSGISApplySubtractOffsets.cpp:98-133). ``specs`` maps output
    column -> (input column, offset)."""
    keep = list(keep_cols or [])
    items = list(specs.items())

    def f(batch: pa.Table) -> pa.Table:
        out = {c: batch[c] for c in keep}
        for out_col, (col, off) in items:
            v = batch[col].to_numpy().astype(np.float64)
            out[out_col] = _apply_offset_chain(
                v, off, non_negative, no_data_val, use_no_data,
                dark_obj_refl,
            )
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


def apply_subtract_offsets(
    ds: ray.data.Dataset,
    specs: dict[str, tuple[str, str]],
    non_negative: bool = True,
    no_data_val: float = 0.0,
    use_no_data: bool = True,
    dark_obj_refl: float = 0.0,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Subtract a per-pixel offset IMAGE — the reference stacks value
    and offset bands into one image
    (RSGISApplyDarkObjSubtractOffsets::calcImageValue,
    RSGISApplySubtractOffsets.cpp:38-79); our analog is value and
    offset COLUMNS in one table. ``specs`` maps output column ->
    (value column, offset column)."""
    keep = list(keep_cols or [])
    items = list(specs.items())

    def f(batch: pa.Table) -> pa.Table:
        out = {c: batch[c] for c in keep}
        for out_col, (col, off_col) in items:
            v = batch[col].to_numpy().astype(np.float64)
            off = batch[off_col].to_numpy().astype(np.float64)
            out[out_col] = _apply_offset_chain(
                v, off, non_negative, no_data_val, use_no_data,
                dark_obj_refl,
            )
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


def band_dark_percentiles(
    ds: ray.data.Dataset,
    cols: list[str],
    percentile: float,
    no_data_val: float = 0.0,
) -> dict[str, int]:
    """Per-band dark-object threshold: the exact ceil-rank percentile
    (rank = ceil(n*p), the repo's ``masked_percentile`` convention —
    the reference delegates to calc_band_percentile) of each band's
    nodata-masked values, from ONE shared bounded-cardinality
    histogram pass over all bands. The rank is computed in exact
    rational arithmetic (``Fraction(str(p))``) so a decimal
    percentile like 0.01 can never ceil past the true rank through
    float error — the SQL mirror is ``(n*num + den - 1) // den``."""
    from fractions import Fraction

    fr = Fraction(str(percentile))

    def partial(batch: pa.Table) -> pa.Table:
        bs, vs, ns = [], [], []
        for bi, c in enumerate(cols):
            v = batch[c].to_numpy().astype(np.int64)
            v = v[v != int(no_data_val)]
            cnt = np.bincount(v, minlength=1)
            nz = np.flatnonzero(cnt)
            bs.append(np.full(len(nz), bi, dtype=np.int64))
            vs.append(nz.astype(np.int64))
            ns.append(cnt[nz])
        return pa.table(
            {
                "b": np.concatenate(bs),
                "v": np.concatenate(vs),
                "n_partial": np.concatenate(ns),
            }
        )

    agg = combine(
        map_blocks(ds, partial),
        ["b", "v"],
        ["n_partial"],
    )
    b, v, n_all = (agg[c].to_numpy() for c in ("b", "v", "n_partial"))
    out: dict[str, int] = {}
    for bi, c in enumerate(cols):
        cnt = n_all[b == bi]
        n = int(cnt.sum())
        if n == 0:  # band entirely nodata: no dark object, offset 0
            out[c] = 0
            continue
        rank = max(
            -(-n * fr.numerator // fr.denominator), 1
        )  # exact ceil(n*p), at least 1
        cum = np.cumsum(cnt)
        out[c] = int(v[b == bi][np.searchsorted(cum, rank)])
    return out


def perform_dos_calc(
    ds: ray.data.Dataset,
    specs: dict[str, str],
    dark_obj_percentile: float = 0.01,
    non_negative: bool = True,
    no_data_val: float = 0.0,
    dark_obj_refl: float = 0.0,
    keep_cols: list[str] | None = None,
) -> tuple[ray.data.Dataset, dict[str, int]]:
    """Dark-object subtraction composite
    (imagecalibration/__init__.py:74-140): per-band dark-object
    percentile offsets (one histogram pass) then
    :func:`apply_subtract_single_offsets`. Returns (dataset,
    offsets-by-input-column). ``specs`` maps output column -> input
    column; input bands must be non-negative integers."""
    cols = list(dict.fromkeys(specs.values()))
    offs = band_dark_percentiles(ds, cols, dark_obj_percentile, no_data_val)
    return (
        apply_subtract_single_offsets(
            ds,
            {o: (c, float(offs[c])) for o, c in specs.items()},
            non_negative=non_negative,
            no_data_val=no_data_val,
            use_no_data=True,
            dark_obj_refl=dark_obj_refl,
            keep_cols=keep_cols,
        ),
        offs,
    )


# ---------------------------------------------------------------------------
# 6S coefficient application
# ---------------------------------------------------------------------------


def _sref_chain(
    v: np.ndarray,
    ax: float | np.ndarray,
    bx: float | np.ndarray,
    cx: float | np.ndarray,
    scale: float,
) -> np.ndarray:
    """sref = (aX*L - bX) / (1 + cX*(aX*L - bX)) * scale
    (RSGISApply6SCoefficientsSingleParam::calcImageValue,
    RSGISApply6SCoefficients.cpp)."""
    tmp = ax * v - bx
    return (tmp / (1.0 + cx * tmp)) * scale


def _sref_clamps(
    out: np.ndarray,
    scale: float,
    use_no_data: bool,
    no_data_val: float,
) -> np.ndarray:
    """The reference's post-chain clamps, IN ORDER: when nodata==0 is
    in use, outputs shift away from the nodata code (<1 -> 1, else
    +1); then anything above the scale factor clamps to it."""
    if use_no_data and no_data_val == 0.0:
        out = np.where(out < 1.0, 1.0, out + 1.0)
    return np.where(out > scale, scale, out)


def apply_6s_coefficients(
    ds: ray.data.Dataset,
    specs: dict[str, tuple[str, float, float, float]],
    scale_factor: float = 1.0,
    use_no_data: bool = False,
    no_data_val: float = 0.0,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Radiance -> surface reflectance with one 6S coefficient set
    per band (executeRad2SREFSingle6sParams,
    RSGISCmdImageCalibration.cpp:151 ->
    RSGISApply6SCoefficientsSingleParam). ``specs`` maps output
    column -> (radiance column, aX, bX, cX). Nodata pixels (ALL
    bands == no_data_val) emit 0."""
    keep = list(keep_cols or [])
    items = list(specs.items())

    def f(batch: pa.Table) -> pa.Table:
        vs = [
            batch[c].to_numpy().astype(np.float64)
            for _o, (c, _a, _b, _cx) in items
        ]
        nodata = (
            _nodata_rows(vs, no_data_val)
            if use_no_data
            else np.zeros(len(vs[0]), dtype=bool)
        )
        out = {c: batch[c] for c in keep}
        for (out_col, (_c, ax, bx, cx)), v in zip(items, vs):
            r = _sref_clamps(
                _sref_chain(v, ax, bx, cx, scale_factor),
                scale_factor, use_no_data, no_data_val,
            )
            out[out_col] = np.where(nodata, 0.0, r)
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


def apply_6s_elev_lut(
    ds: ray.data.Dataset,
    elev_col: str,
    lut: list[tuple[float, dict[str, tuple[str, float, float, float]]]],
    scale_factor: float = 1.0,
    use_no_data: bool = False,
    no_data_val: float = 0.0,
    dem_no_data_val: float = -32768.0,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Elevation-dependent 6S coefficients: nearest LUT entry by
    squared elevation distance (first-wins ties, matching the C++
    strict-less scan), a bracketing second entry, and linear
    interpolation of the two sref values by elevation proportion
    (RSGISApply6SCoefficientsElevLUTParam::calcImageValue,
    RSGISApply6SCoefficients.cpp:145-270). ``lut`` is a list of
    (elevation, specs) with IDENTICAL out/in column structure per
    entry; DEM-nodata pixels fall back to the lowest LUT elevation."""
    if not lut:
        raise ValueError("empty 6S elevation LUT")
    keep = list(keep_cols or [])
    elevs = np.array([e for e, _s in lut], dtype=np.float64)
    out_cols = list(lut[0][1].keys())
    in_cols = [lut[0][1][o][0] for o in out_cols]
    # per-band coefficient arrays indexed by LUT entry
    ax = {
        o: np.array([s[o][1] for _e, s in lut], dtype=np.float64)
        for o in out_cols
    }
    bx = {
        o: np.array([s[o][2] for _e, s in lut], dtype=np.float64)
        for o in out_cols
    }
    cx = {
        o: np.array([s[o][3] for _e, s in lut], dtype=np.float64)
        for o in out_cols
    }
    min_elev = float(elevs[np.argmin(elevs)])
    n_lut = len(lut)

    def f(batch: pa.Table) -> pa.Table:
        elev = batch[elev_col].to_numpy().astype(np.float64)
        elev = np.where(elev == dem_no_data_val, min_elev, elev)
        vs = [batch[c].to_numpy().astype(np.float64) for c in in_cols]
        nodata = (
            _nodata_rows(vs, no_data_val)
            if use_no_data
            else np.zeros(len(elev), dtype=bool)
        )
        # nearest entry, first-wins on ties (argmin == C++ scan)
        d2 = (elevs[None, :] - elev[:, None]) ** 2
        i1 = np.argmin(d2, axis=1)
        if n_lut > 1:
            # bracketing neighbour (C++: ends clamp inward, interior
            # picks the side the pixel elevation falls on)
            below = (elev - elevs[i1]) < 0
            i2 = np.where(
                i1 == 0,
                1,
                np.where(
                    i1 == n_lut - 1,
                    i1 - 1,
                    np.where(below, i1 - 1, i1 + 1),
                ),
            )
            diff = np.abs(elevs[i1] - elevs[i2])
            p1 = 1.0 - np.abs(elev - elevs[i1]) / diff
            p2 = 1.0 - np.abs(elev - elevs[i2]) / diff
        out = {c: batch[c] for c in keep}
        for o, v in zip(out_cols, vs):
            if n_lut > 1:
                r1 = _sref_chain(
                    v, ax[o][i1], bx[o][i1], cx[o][i1], scale_factor
                )
                r2 = _sref_chain(
                    v, ax[o][i2], bx[o][i2], cx[o][i2], scale_factor
                )
                r = r1 * p1 + r2 * p2
            else:
                r = _sref_chain(
                    v, ax[o][0], bx[o][0], cx[o][0], scale_factor
                )
            r = _sref_clamps(r, scale_factor, use_no_data, no_data_val)
            out[o] = np.where(nodata, 0.0, r)
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


# ---------------------------------------------------------------------------
# solar geometry
# ---------------------------------------------------------------------------


def solar_geometry_constants(jd_ut: float) -> dict[str, float]:
    """Scene-level solar terms for a UT instant (fractional Julian
    date): USNO approximate solar coordinates — the same algorithm
    (and source) the reference inlines for solar distance. Returns
    sin/cos of the declination, the apparent right ascension
    (degrees) and GMST (degrees), computed ONCE on the driver."""
    d = jd_ut - 2451545.0
    g = math.radians(357.529 + 0.98560028 * d)
    q = 280.459 + 0.98564736 * d
    lam = math.radians(
        q + 1.915 * math.sin(g) + 0.020 * math.sin(2.0 * g)
    )
    eps = math.radians(23.439 - 0.00000036 * d)
    ra = math.degrees(
        math.atan2(math.cos(eps) * math.sin(lam), math.cos(lam))
    )
    sin_dec = math.sin(eps) * math.sin(lam)
    cos_dec = math.sqrt(1.0 - sin_dec * sin_dec)
    # reduce GMST mod 360 on the driver: it only ever enters through
    # sin/cos of the hour angle, and keeping the per-pixel trig
    # arguments small (|h| < ~10 rad) stays inside the range where
    # libm implementations agree to the last ulp
    gmst_deg = math.fmod(
        (18.697374558 + 24.06570982441908 * d) * 15.0, 360.0
    )
    return {
        "sin_dec": sin_dec,
        "cos_dec": cos_dec,
        "ra_deg": ra,
        "gmst_deg": gmst_deg,
    }


def solar_azimuth_zenith(
    ds: ray.data.Dataset,
    jd_ut: float,
    lat_col: str = "lat",
    lon_col: str = "lon",
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Per-pixel solar zenith + azimuth (degrees; azimuth clockwise
    from north) at a UT instant. The reference computes these
    per-pixel through Pysolar (imagecalibration/solarangles.py:135 —
    note its output naming is swapped: the band it stores first holds
    90-altitude, i.e. the ZENITH); ours evaluates the USNO
    approximate solar position directly: scene-level declination /
    right ascension / GMST once on the driver
    (:func:`solar_geometry_constants`), then one vectorized
    hour-angle -> (zenith, azimuth) chain per batch."""
    c = solar_geometry_constants(jd_ut)
    sin_dec, cos_dec = c["sin_dec"], c["cos_dec"]
    ha0 = c["gmst_deg"] - c["ra_deg"]
    keep = list(keep_cols or [])
    d2r = math.pi / 180.0

    def f(batch: pa.Table) -> pa.Table:
        lat = batch[lat_col].to_numpy().astype(np.float64)
        lon = batch[lon_col].to_numpy().astype(np.float64)
        phi = lat * d2r
        h = (ha0 + lon) * d2r
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        cos_h, sin_h = np.cos(h), np.sin(h)
        cos_zen = sin_dec * sin_phi + cos_dec * cos_phi * cos_h
        zen = np.arccos(np.clip(cos_zen, -1.0, 1.0)) / d2r
        az = (
            np.arctan2(
                -sin_h * cos_dec,
                sin_dec * cos_phi - cos_dec * sin_phi * cos_h,
            )
            / d2r
        )
        az = np.mod(az + 360.0, 360.0)
        out = {c2: batch[c2] for c2 in keep}
        out["solar_zenith"] = zen
        out["solar_azimuth"] = az
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


# ---------------------------------------------------------------------------
# clear-sky region composite
# ---------------------------------------------------------------------------


def _binary_morph(
    pixels: "ray.data.Dataset",
    width: int,
    height: int,
    op: str,
    tile_size: int = 32,
) -> "ray.data.Dataset":
    """3x3 binary erosion/dilation over a PRESENCE set (rows = set
    members, columns pixel_id,row,col): ``erode`` keeps a member iff
    every in-grid window cell is a member (truncated windows at the
    raster edge), ``dilate`` emits every in-grid cell within one step
    of a member. Returns (pixel_id, row, col) member rows."""
    from rsgislib_ray.stages.raster import Tile, halo_tiles

    def per_tile(t: Tile) -> pa.Table:
        r0, c0, dim, rr, cc = t.r0, t.c0, t.dim, t.rr, t.cc
        p = np.zeros((dim, dim), dtype=bool)
        p[rr, cc] = True
        if op == "erode":
            sr, sc = rr[t.core], cc[t.core]
            keep = np.ones(len(sr), dtype=bool)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    gr = sr + dy + r0
                    gc = sc + dx + c0
                    ingrid = (
                        (gr >= 0) & (gr < height) & (gc >= 0) & (gc < width)
                    )
                    keep &= ~ingrid | p[sr + dy, sc + dx]
            sel_r = sr[keep] + r0
            sel_c = sc[keep] + c0
        else:  # dilate
            # candidates: every in-grid cell of the halo'd frame that
            # touches a member; core-only emission avoids duplicates
            near = np.zeros((dim, dim), dtype=bool)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    shifted = np.zeros((dim, dim), dtype=bool)
                    sr0, sr1 = max(0, dy), min(dim, dim + dy)
                    dr0, dr1 = max(0, -dy), min(dim, dim - dy)
                    sc0, sc1 = max(0, dx), min(dim, dim + dx)
                    dc0, dc1 = max(0, -dx), min(dim, dim - dx)
                    shifted[dr0:dr1, dc0:dc1] = p[sr0:sr1, sc0:sc1]
                    near |= shifted
            core = np.zeros((dim, dim), dtype=bool)
            core[1 : dim - 1, 1 : dim - 1] = True
            hit = near & core
            lr, lc = np.nonzero(hit)
            gr, gc = lr + r0, lc + c0
            ok = (gr >= 0) & (gr < height) & (gc >= 0) & (gc < width)
            sel_r, sel_c = gr[ok], gc[ok]
        return pa.table(
            {
                "pixel_id": sel_r * np.int64(width) + sel_c,
                "row": sel_r,
                "col": sel_c,
            }
        )

    return halo_tiles(pixels, tile_size, 1, per_tile)


def clear_sky_regions(
    ds: "ray.data.Dataset",
    width: int,
    height: int,
    init_dist: int = 8,
    init_min_size: int = 40,
    final_dist: int = 3,
    tile_size: int = 32,
) -> "ray.data.Dataset":
    """Clear-sky region extraction (calc_clear_sky_regions,
    imagecalibration/__init__.py:143): the reference chains 12 GDAL
    temp files — distance-to-cloud, threshold, clump, remove-small,
    re-threshold, keep clumps intersecting the surviving initial
    regions, morphological opening, clump, remove-small. Ours chains
    the SAME engine operators over streams: exact integer EDT
    (``dist2 > d^2`` replaces the float distance threshold — equal
    for integer distances), distributed clump (comp label = min
    pixel id), segment-sum sizes with a broadcast keep-set, a
    hash join (``partition.join``) for the intersect-init test, and the 3x3
    binary opening of :func:`_binary_morph` (the reference's circular
    21-op, parameterized down — documented deviation). Input columns:
    (pixel_id, row, col, cloud [0/1 cloud/2 shadow], valid [0/1]).
    Output: the clear-sky member pixel ids."""
    from rsgislib_ray.stages import partition
    from rsgislib_ray.stages.distance import distance_transform
    from rsgislib_ray.stages.polygonize import clump
    from rsgislib_ray.stages.segsum import segment_sum
    from rsgislib_ray.state.broadcast import cached

    # distance_transform emits (pixel_id, dist2); one hash join
    # re-attaches (row, col, valid)
    d0 = distance_transform(ds, [1, 2], value_col="cloud")
    d, n_d = partition.held_rows(
        partition.join(
            ds.select_columns(["pixel_id", "row", "col", "valid"]), d0, "pixel_id"
        )
    )
    if not n_d:
        return ray.data.from_arrow(
            pa.table({"pixel_id": pa.array([], pa.int64())})
        )

    def mask_ge(thresh2: int):
        def f(batch: pa.Table) -> pa.Table:
            keep = (
                (batch["valid"].to_numpy() == 1)
                & (batch["dist2"].to_numpy() > thresh2)
            )
            t = batch.filter(pa.array(keep))
            return pa.table(
                {
                    "pixel_id": t["pixel_id"],
                    "row": t["row"],
                    "col": t["col"],
                    "value": np.ones(len(t), dtype=np.int64),
                }
            )

        return f

    def comp_sizes_keep(labeled, min_size):
        """Labels of components with >= min_size members (driver set —
        bounded by component count)."""

        def one(batch: pa.Table) -> pa.Table:
            lab = batch["comp_label"].to_numpy()
            ul, cnt = np.unique(lab, return_counts=True)
            return pa.table({"comp_label": ul, "one": cnt})

        sizes = segment_sum(
            labeled.map_batches(one, batch_format="pyarrow"),
            "comp_label",
            ["one"],
        ).to_pandas()
        return set(
            int(x)
            for x in sizes[sizes["one"] >= min_size]["comp_label"]
        )

    def filter_labels(labeled, keep_set):
        ref = ray.put(np.array(sorted(keep_set), dtype=np.int64))

        def f(batch: pa.Table) -> pa.Table:
            ks = cached(ref)
            lab = batch["comp_label"].to_numpy()
            pos = np.searchsorted(ks, lab)
            ok = (pos < len(ks)) & (ks[np.clip(pos, 0, len(ks) - 1)] == lab)
            return batch.filter(pa.array(ok))

        return labeled.map_batches(f, batch_format="pyarrow")

    # 1-3: initial far-from-cloud regions, small ones removed
    m1 = d.map_batches(
        mask_ge(init_dist * init_dist), batch_format="pyarrow"
    )
    c1 = clump(m1, tile_size=tile_size)
    keep1 = comp_sizes_keep(c1, init_min_size)
    init_pix = filter_labels(c1, keep1).select_columns(["pixel_id"])

    # 4: full-extent regions; keep components containing an init pixel
    m2 = d.map_batches(
        mask_ge(final_dist * final_dist), batch_format="pyarrow"
    )
    c2 = clump(m2, tile_size=tile_size).materialize()
    joined, n_joined = partition.held_rows(
        partition.join(
            c2.select_columns(["pixel_id", "comp_label"]), init_pix, "pixel_id"
        )
    )
    if not n_joined:
        keep2: set = set()
    else:
        keep2 = set(
            int(x)
            for x in joined.select_columns(["comp_label"])
            .to_pandas()["comp_label"]
            .unique()
        )
    kept2 = filter_labels(c2, keep2).select_columns(
        ["pixel_id", "row", "col"]
    )

    # 5: binary opening (erode then dilate)
    opened = _binary_morph(
        _binary_morph(kept2, width, height, "erode", tile_size),
        width,
        height,
        "dilate",
        tile_size,
    )

    # 6: final clump + remove-small
    def with_val(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "value", pa.array(np.ones(len(batch), dtype=np.int64))
        )

    c3 = clump(
        opened.map_batches(with_val, batch_format="pyarrow"),
        tile_size=tile_size,
    ).materialize()
    keep3 = comp_sizes_keep(c3, init_min_size)
    return (
        filter_labels(c3, keep3)
        .select_columns(["pixel_id"])
        .map_batches(
            lambda b: pa.table(
                {"pixel_id": b["pixel_id"].to_numpy().astype(np.int64)}
            ),
            batch_format="pyarrow",
        )
    )
