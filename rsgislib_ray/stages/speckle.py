"""SAR texture + speckle filter family.

Reference surface: imagefilter/__init__.py apply_norm_var_filter:445,
apply_norm_var_sqrt_filter:476, apply_norm_var_ln_filter:509,
apply_texture_var_filter:540, apply_lee_filter:951 — the C++ kernels
in src/filtering/RSGISSARTextureFilters.cpp (NormVarPower:29,
NormVarAmplitude, NormVarLnPower, TextureVar) and
RSGISSpeckleFilters.cpp (RSGISLeeFilter:43, internalScaleFactor
default 100, RSGISSpeckleFilters.h:67).

The reference runs one C++ pass per output file; here ALL five
filters come from ONE pass of ``raster.halo_tiles`` (the focal-family
physical plan: halo flat-map -> the engine's partition tasks, one
dense per-tile numpy call per tile) since they share the same window
reductions.

Semantics mirrored from the C++ (all filters skip ZERO cells as
nodata — edge pixels see zero-padding outside the image, which the
validity test then skips, matching the reference's
"preserve scene edges" logic):

- norm_var (power):     E[v^2]/E[v]^2 - 1
- norm_var_amp:         E[v]/E[sqrt(v)]^2 - 1
- norm_var_ln:          E[ln^2 v]/E[ln v]^2 - 1
- texture_var:          (std/mean)^2 — the C++'s ``1/numVal`` terms
  are UNSIGNED INTEGER divisions (SARTextureFilters.cpp TextureVar),
  so they are exactly 0 whenever numVal > 1; with the numVal > 3
  validity gate the bracket always reduces to cv^2.  Mirrored as the
  code actually behaves, not as the comment suggests.
- lee: windowed mean/variance over nonzero cells at the C++'s
  internal x100 scale, cU = sqrt(1/n_looks),
  k = var/(mean^2*cU + var)  [the code multiplies by cU, NOT cU^2],
  out = (mean + k*(center - 1 + mean))/100  [the code adds iMean
  rather than subtracting it — both quirks mirrored verbatim from
  RSGISSpeckleFilters.cpp:85-86].

norm_var/amp/ln/texture gate on (center != 0 AND numVal > 3), else 0.

Exactness: sqrt(v) and ln(v) are quantized per CELL to 2^-24 units
(FLOOR(x*2^24 + 0.5), v >= 1 so ln >= 0), making every window
reduction an exact int64 sum; the per-pixel finals are one shared
mirrorchain evaluated identically by the engine (vector) and the SQL
oracle (per-row) — bit-exact."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.functions.mirrorchain import Chain, eval_chain

_Q = 16777216  # 2^24 per-cell quantum for sqrt/ln sums


def sar_finals_chain() -> Chain:
    """Per-pixel finals over the exact window integers
    (n, s, s2, ssq, sl, sl2, cv) and the scalar ``cu``; raw values
    BEFORE the validity gates (gates are integer conditions applied
    outside the chain)."""
    return [
        ("nvm", "s / n"),
        ("nvq", "s2 / n"),
        ("norm_var_raw", "nvq / (nvm*nvm) - 1"),
        ("am", "ssq / 16777216.0e0 / n"),
        ("norm_var_amp_raw", "nvm / (am*am) - 1"),
        ("lm", "sl / 16777216.0e0 / n"),
        ("lq2", "sl2 / 16777216.0e0 / 16777216.0e0 / n"),
        ("norm_var_ln_raw", "lq2 / (lm*lm) - 1"),
        ("tmsq", "(s2 - 2.0e0*nvm*s + nvm*nvm*n) / n"),
        ("tstd", "SQRT(tmsq)"),
        ("texture_raw", "(tstd/nvm)*(tstd/nvm)"),
        ("im", "(s*100) / n"),
        ("ivar", "(s2*10000 - 2.0e0*im*(s*100) + im*im*n) / n"),
        ("kk", "ivar / (im*im*cu + ivar)"),
        ("lee_raw", "(im + kk*(cv*100 - 1 + im)) / 100"),
    ]


def sar_texture_speckle(
    raster: ray.data.Dataset,
    n_looks: int = 3,
    tile_size: int = 64,
    value_col: str = "value",
) -> ray.data.Dataset:
    """One halo-tiled pass computing norm_var, norm_var_amp,
    norm_var_ln, texture_var and lee (3x3 windows) for every pixel of
    an int-valued raster (rows: pixel_id, row, col, value >= 0).
    Returns (pixel_id, n_valid, norm_var, norm_var_amp, norm_var_ln,
    texture_var, lee)."""
    import math

    from rsgislib_ray.stages.raster import Tile, halo_tiles

    halo = 1

    cu = math.sqrt(1.0 / n_looks)  # SQRT(1.0e0/{n_looks}) in the oracle
    chain = sar_finals_chain()

    def filt(t: Tile) -> pa.Table:
        g, h = t.rows, t.dim
        v = g[value_col].to_numpy().astype(np.int64)
        if len(v) and (int(v.min()) < 0 or int(v.max()) >= 1 << 20):
            raise ValueError("sar filters need 0 <= value < 2^20 ints")
        dense = np.zeros((h + 2, h + 2), dtype=np.int64)
        dense[t.rr + 1, t.cc + 1] = v
        nz = (dense != 0).astype(np.int64)
        # per-cell quantized sqrt / ln over nonzero cells (v >= 1)
        vf = dense.astype(np.float64)
        with np.errstate(divide="ignore"):
            sq_c = np.where(
                nz > 0, np.floor(np.sqrt(vf) * 16777216.0 + 0.5), 0.0
            ).astype(np.int64)
            ln_c = np.where(
                nz > 0, np.floor(np.log(vf) * 16777216.0 + 0.5), 0.0
            ).astype(np.int64)
        rr, cc = t.rr[t.core], t.cc[t.core]
        k = len(rr)
        n = np.zeros(k, dtype=np.int64)
        s = np.zeros(k, dtype=np.int64)
        s2 = np.zeros(k, dtype=np.int64)
        ssq = np.zeros(k, dtype=np.int64)
        sl = np.zeros(k, dtype=np.int64)
        sl2 = np.zeros(k, dtype=np.int64)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                pr, pc_ = rr + 1 + dr, cc + 1 + dc
                n += nz[pr, pc_]
                vv = dense[pr, pc_]
                s += vv
                s2 += vv * vv
                ssq += sq_c[pr, pc_]
                lc = ln_c[pr, pc_]
                sl += lc
                sl2 += lc * lc
        cv = dense[rr + 1, cc + 1]
        env = {
            "n": n,
            "s": s,
            "s2": s2,
            "ssq": ssq,
            "sl": sl,
            "sl2": sl2,
            "cv": cv,
            "cu": cu,
        }
        with np.errstate(divide="ignore", invalid="ignore"):
            e = eval_chain(chain, env, vector=True)
        gate = (cv != 0) & (n > 3)
        leegate = n > 0
        return pa.table(
            {
                "pixel_id": g["pixel_id"].to_numpy()[t.core],
                "n_valid": n,
                "norm_var": np.where(gate, e["norm_var_raw"], 0.0),
                "norm_var_amp": np.where(gate, e["norm_var_amp_raw"], 0.0),
                "norm_var_ln": np.where(gate, e["norm_var_ln_raw"], 0.0),
                "texture_var": np.where(gate, e["texture_raw"], 0.0),
                "lee": np.where(leegate, e["lee_raw"], 0.0),
            }
        )

    return halo_tiles(raster, tile_size, halo, filt)
