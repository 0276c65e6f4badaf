"""HCS pan-sharpening (imageutils.pan_sharpen_hcs —
src/cmds/RSGISCmdImageUtils.cpp:2084 executePerformHCSPanSharpen,
kernels src/img/RSGISPanSharpen.cpp: RSGISHCSPanSharpen naive :37 /
smart :94, RSGISHCSPanSharpenCalcMeanStats :185 / CalcSDStats :219;
Padwick et al. 2010 hyperspherical colour space).

Semantics mirrored exactly (numberOutBands = the MS band count; the
stacked input is MS bands then PAN last):

- stats passes count pixels with BAND-0 > 0 only: meanMS =
  mean over pixels of (sum of MS squares), meanPAN = mean of PAN^2;
  the SD pass accumulates sum((x - mean32)^2) in doubles where mean32
  is the FLOAT32-narrowed mean (outStats is a float array).  With
  integer-valued bands every per-pixel term is exact, so the sums are
  exact integers and partition-independent; the cross-pixel double
  fold of the SD pass is pinned to the exact moment identity
  sum(x^2) - 2*m*sum(x) + n*m^2 (same value up to ~1e-10 relative,
  absorbed by the float32 narrowing of the returned sd — the repo's
  standing populate_rat_with_stats equivalence);
- the APPLY pass has NO validity gate (every pixel is transformed,
  nodata included — quirk kept);
- naive iAdj: pSq = ((sdMS/sdPAN) * (pan^2 - meanPAN + sdPAN)) +
  (meanMS - sdMS), every op float32-narrowed; iAdj = sqrt(pSq), then
  pSq < 0 forces iAdj = 0 (overwriting the NaN — quirk kept);
- smart iAdj: panSmooth = (window sum of PAN, zero-filled edges
  INCLUDED in the constant win^2 denominator — quirk kept) / win^2;
  pSqSmooth like pSq on panSmooth; iSq sums the squares of the FIRST
  numberOutBands-1 MS centre values (the last MS band is SKIPPED —
  quirk kept); iAdj = sqrt((pSq/pSqSmooth) * iSq) with NO negative
  guard (NaN propagates);
- forward transform: phi_i = atan(sqrt(sum_{j>=i} MS_j^2) / MS_i)
  (the numerator INCLUDES MS_i — quirk kept), float32 locals;
- reverse transform: out_i = iAdj * (prod_{j<i} sin(phi_j)) *
  cos(phi_i), last band all-sines, every product float32-narrowed.

The C++ float trig overloads (atanf/sinf/cosf) are pinned as
double-precision libm narrowed to float32 per step — the two agree
through the float32 narrowing except on ~2^-29 rounding-boundary
cases; callers quantize outputs (the calib_thermal micro-quantize
pin) so the SQL oracle replays bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.stages.raster import Tile, halo_tiles

__all__ = ["hcs_stats", "hcs_pan_sharpen"]

_F = np.float32


def hcs_stats(
    ds: ray.data.Dataset, ms_cols: list[str], pan_col: str
) -> tuple[float, float, float, float]:
    """The two stats passes: (meanMS, meanPAN, sdMS, sdPAN), each
    float32-narrowed like the C++ float outStats array.  Exact
    integer partials -> one tiny reduce each; requires integer band
    values (|v| < 2^17 keeps every term exact)."""
    from rsgislib_ray.stages.segsum import segment_sum

    def partial(batch: pa.Table) -> pa.Table:
        b0 = batch[ms_cols[0]].to_numpy().astype(np.int64)
        ok = b0 > 0
        pan = batch[pan_col].to_numpy().astype(np.int64)[ok]
        msq = np.zeros(int(ok.sum()), dtype=np.int64)
        for c in ms_cols:
            v = batch[c].to_numpy().astype(np.int64)[ok]
            if len(v) and np.any(np.abs(v) >= 1 << 17):
                raise ValueError("hcs_stats requires |band| < 2^17")
            msq += v * v
        p2 = pan * pan
        return pa.table(
            {
                "k": np.zeros(1, np.int64),
                "n": np.array([int(ok.sum())], np.int64),
                "s_ms": np.array([msq.sum()], np.int64),
                "s_pan": np.array([p2.sum()], np.int64),
                "s_ms2": np.array([(msq * msq).sum()], np.int64),
                "s_pan2": np.array([(p2 * p2).sum()], np.int64),
            }
        )

    m = segment_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        "k", ["n", "s_ms", "s_pan", "s_ms2", "s_pan2"],
        aggs=["sum"] * 5,
    ).to_pandas()
    n = int(m["n"][0])
    s_ms, s_pan = int(m["s_ms"][0]), int(m["s_pan"][0])
    s_ms2, s_pan2 = int(m["s_ms2"][0]), int(m["s_pan2"][0])
    mean_ms = _F(s_ms / n)
    mean_pan = _F(s_pan / n)
    # moment identity with the FLOAT32 mean (m32 exact rational)
    var_ms = (
        s_ms2 - 2.0 * float(mean_ms) * s_ms + n * float(mean_ms) ** 2
    ) / n
    var_pan = (
        s_pan2 - 2.0 * float(mean_pan) * s_pan
        + n * float(mean_pan) ** 2
    ) / n
    sd_ms = _F(np.sqrt(var_ms))
    sd_pan = _F(np.sqrt(var_pan))
    return float(mean_ms), float(mean_pan), float(sd_ms), float(sd_pan)


def _hcs_transform(ms: list[np.ndarray], i_adj: np.ndarray):
    """Forward + reverse HCS with per-step float32 narrowing.
    ``ms``: centre MS values (float32 arrays), ``i_adj``: float32."""
    nb = len(ms)
    phi = []
    for i in range(nb - 1):
        acc = np.zeros_like(ms[0], dtype=_F)
        for j in range(i, nb):
            acc = (acc + _F(ms[j] * ms[j])).astype(_F)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(acc.astype(np.float64)).astype(_F)
            ratio = (root.astype(np.float64)
                     / ms[i].astype(np.float64)).astype(_F)
            phi.append(np.arctan(ratio.astype(np.float64)).astype(_F))
    outs = []
    for i in range(nb - 1):
        prod = np.ones_like(ms[0], dtype=_F)
        for j in range(i):
            prod = (prod.astype(np.float64)
                    * np.sin(phi[j].astype(np.float64))).astype(_F)
        prod = (prod.astype(np.float64)
                * np.cos(phi[i].astype(np.float64))).astype(_F)
        outs.append((i_adj.astype(np.float64)
                     * prod.astype(np.float64)).astype(_F))
    prod = np.ones_like(ms[0], dtype=_F)
    for j in range(nb - 1):
        prod = (prod.astype(np.float64)
                * np.sin(phi[j].astype(np.float64))).astype(_F)
    outs.append((i_adj.astype(np.float64)
                 * prod.astype(np.float64)).astype(_F))
    return outs


def hcs_pan_sharpen(
    ds: ray.data.Dataset,
    ms_cols: list[str],
    pan_col: str,
    stats: tuple[float, float, float, float],
    win_size: int = 7,
    tile_size: int = 32,
) -> ray.data.Dataset:
    """Both HCS modes in one halo-tiled pass: naive (per-pixel iAdj)
    and smart (window-smoothed PAN iAdj).  Emits per MS band
    ``<col>_naive`` and ``<col>_smart`` float64 columns (the C++
    double output array of the float32 products)."""
    mean_ms, mean_pan, sd_ms, sd_pan = (_F(s) for s in stats)
    halo = win_size // 2
    k = win_size

    def apply_tile(t: Tile) -> pa.Table:
        g, h, core = t.rows, t.dim, t.core
        rr, cc = t.rr[core], t.cc[core]
        # PAN window sum (zero-filled edges, constant denominator)
        panv = g[pan_col].to_numpy().astype(np.float64)
        dense = np.zeros((h, h))
        dense[t.rr, t.cc] = panv
        padded = np.zeros((h + 2 * halo, h + 2 * halo))
        padded[halo : halo + h, halo : halo + h] = dense
        pan_sum = np.zeros(int(core.sum()))
        for dr in range(k):
            for dc in range(k):
                pan_sum += padded[dr : dr + h, dc : dc + h][rr, cc]
        pan_smooth = _F(pan_sum.astype(_F) / _F(k * k))
        panc = _F(dense[rr, cc])
        ms = []
        for col in ms_cols:
            dm = np.zeros((h, h))
            dm[t.rr, t.cc] = g[col].to_numpy().astype(np.float64)
            ms.append(_F(dm[rr, cc]))

        def p_sq(p):
            t = _F(p * p)
            t = _F(t - mean_pan)
            t = _F(t + sd_pan)
            t = _F(_F(sd_ms / sd_pan) * t)
            return _F(t + _F(mean_ms - sd_ms))

        with np.errstate(invalid="ignore", divide="ignore"):
            psq = p_sq(panc)
            i_naive = np.sqrt(psq.astype(np.float64)).astype(_F)
            i_naive = np.where(psq < 0, _F(0.0), i_naive).astype(_F)
            psq_s = p_sq(pan_smooth)
            i_sq = np.zeros_like(panc, dtype=_F)
            for i in range(len(ms_cols) - 1):  # last MS band skipped
                i_sq = _F(i_sq + _F(ms[i] * ms[i]))
            ratio = _F(psq / psq_s)
            arg = _F(ratio * i_sq)
            i_smart = np.sqrt(arg.astype(np.float64)).astype(_F)

        out = {"pixel_id": g["pixel_id"].to_numpy()[core]}
        for name, ia in (("naive", i_naive), ("smart", i_smart)):
            res = _hcs_transform(ms, ia)
            for col, v in zip(ms_cols, res):
                out[f"{col}_{name}"] = v.astype(np.float64)
        return pa.table(out)

    return halo_tiles(ds, tile_size, halo, apply_tile)
