"""Dense time-series model fitting: per-pixel season-trend harmonic
regression, model prediction, and TMask-style robust outlier masking.

Reimplements the reference's timeseries module
(/root/reference/python/rsgislib/timeseries/modelfitting.py:57-166 —
the Zhu et al. 2015 season-trend OLS with 1/2/3 harmonic pairs tiered
by observation count; robustfitoutliners.py:24-58 + tmask.py:50-141 —
Tukey-biweight IRLS over a 5-column harmonic design and the TMask
green/NIR/SWIR outlier rule) Ray-Data-first:

- The reference fits each pixel inside a RIOS block callback (a
  Python loop over pixels). Ours never ships a raw time series
  through a shuffle: per-batch partial INTEGER moment matrices
  (the harmonic basis is evaluated on a ``1/lattice`` quantization
  lattice so Gram/right-hand-side sums are exact int64 — order
  independent, so distributed summation is deterministic), one small
  ``groupby(pixel).sum`` over ~46 moment columns, then a vectorized
  finisher solving the normal equations with a FIXED-ORDER unrolled
  Cholesky — every float op in the finisher is IEEE
  correctly-rounded (+,-,*,/,sqrt), so an oracle that replays the
  identical chain is bit-exact.
- Per-pixel start dates (the reference rescales each pixel's dates
  to start at 0) come from one tiny ``groupby.min`` pass attached
  back by broadcast or hash join (measured routing at scale).
- The TMask IRLS keeps the reference's per-pixel iteration (it is a
  fixpoint over one pixel's ~50-200 observations) but runs it
  vectorized inside ``groupby(pixel).map_groups`` — state never
  leaves the worker, and the output is one mask row per observation.

Moment-magnitude bound: with ``lattice`` L (default 2^20), rescaled
day offsets T and values |y| <= Y over n observations per pixel, the
largest Gram entry is ~n*max(T^2, L^2, T*L); int64 is safe through
n ~ 10^6 observations per pixel at T ~ 10^4, L = 2^20.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data

T_DAYS = 365.25
W1 = (2.0 * math.pi) / T_DAYS
W2 = (4.0 * math.pi) / T_DAYS
W3 = (6.0 * math.pi) / T_DAYS
LATTICE = 1 << 20

#: observation-count tiers (modelfitting.py:88-126): >= 12 simple
#: (4 coefficients), >= 18 advanced (6), >= 24 full (8)
TIER_MIN_OBS = 12
TIER_ADVANCED = 18
TIER_FULL = 24
_K_OF_TIER = {1: 4, 2: 6, 3: 8}


def _quant_cols(tr: np.ndarray, lattice: int) -> list[np.ndarray]:
    """Integer harmonic basis columns [1, t, c1,s1, c2,s2, c3,s3]:
    trig values snapped to the 1/lattice grid (half-up) so moment
    sums are exact integers."""
    L = float(lattice)
    out = [np.ones(len(tr), dtype=np.int64), tr.astype(np.int64)]
    for w in (W1, W2, W3):
        out.append(
            np.floor(np.cos(w * tr.astype(np.float64)) * L + 0.5).astype(
                np.int64
            )
        )
        out.append(
            np.floor(np.sin(w * tr.astype(np.float64)) * L + 0.5).astype(
                np.int64
            )
        )
    return out


def _scale_of(i: int, lattice: int) -> float:
    """Descale factor per basis column: 1 for the constant and trend
    columns, ``lattice`` for quantized trig columns."""
    return 1.0 if i < 2 else float(lattice)


def moment_cols(k: int = 8) -> list[str]:
    """Column names of the packed moment table: upper-tri Gram
    g_{ij}, right-hand side xy_i, y'y and n."""
    names = [f"g{i}{j}" for i in range(k) for j in range(i, k)]
    names += [f"xy{i}" for i in range(k)]
    names += ["yy", "n_obs"]
    return names


def chol_solve_np(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G x = b per row via a FIXED-ORDER Cholesky: G is
    (p, k, k) symmetric positive definite, b is (p, k). The exact
    operation sequence (outer-product subtraction chains left to
    right, then forward/back substitution) is the parity contract
    with the SQL oracle generator — change one side only with the
    other."""
    p, k, _ = G.shape
    L = np.zeros_like(G)
    for j in range(k):
        s = G[:, j, j].copy()
        for m in range(j):
            s = s - L[:, j, m] * L[:, j, m]
        L[:, j, j] = np.sqrt(s)
        for i in range(j + 1, k):
            s = G[:, i, j].copy()
            for m in range(j):
                s = s - L[:, i, m] * L[:, j, m]
            L[:, i, j] = s / L[:, j, j]
    # forward substitution L z = b
    z = np.zeros_like(b)
    for i in range(k):
        s = b[:, i].copy()
        for m in range(i):
            s = s - L[:, i, m] * z[:, m]
        z[:, i] = s / L[:, i, i]
    # back substitution L' x = z
    x = np.zeros_like(b)
    for i in range(k - 1, -1, -1):
        s = z[:, i].copy()
        for m in range(i + 1, k):
            s = s - L[:, m, i] * x[:, m]
        x[:, i] = s / L[:, i, i]
    return x


def pixel_start_dates(
    ds: ray.data.Dataset, pixel_col: str, t_col: str
) -> ray.data.Dataset:
    """Per-pixel earliest day (modelfitting.py:82 rescales each
    pixel's dates to start at 0): pre-reduced min partials through
    the hash-partitioned :func:`segment_sum` (Ray's native groupby
    aggregate is ~100x slower at high key cardinality — measured,
    see stages/segsum.py). Output columns: (pixel_col, t0)."""
    from rsgislib_ray.stages.segsum import segment_sum

    def partial(batch: pa.Table) -> pa.Table:
        pix = batch[pixel_col].to_numpy().astype(np.int64)
        t = batch[t_col].to_numpy().astype(np.int64)
        order = np.argsort(pix, kind="stable")
        pix, t = pix[order], t[order]
        first = np.concatenate(([True], pix[1:] != pix[:-1]))
        mins = np.minimum.reduceat(t, np.flatnonzero(first))
        return pa.table({pixel_col: pix[first], "t0": mins})

    return segment_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        pixel_col,
        ["t0"],
        aggs=["min"],
    )


def season_trend_moments(
    ds: ray.data.Dataset,
    pixel_col: str,
    t_col: str,
    value_col: str,
    lattice: int = LATTICE,
    t0_attach: str = "auto",
) -> "tuple[ray.data.Dataset, ray.data.Dataset]":
    """Distributed exact-integer moment pass: per-batch per-pixel
    partial Gram/RHS sums over the full 8-column basis, reduced by
    one small ``groupby(pixel).sum``. ``t0_attach`` routes the
    per-pixel start-date lookup: ``"broadcast"`` ships the (pixel,
    t0) table once per worker via the object store — right while the
    pixel count fits a worker heap; ``"join"`` hash-joins it instead
    (the 10^9-pixel shape).  The default ``"auto"`` routes by
    MEASURED pixel count (the :func:`segsum.route` pattern): the t0
    table is materialized (it is the table the broadcast
    would pull anyway; counting is metadata-only) and ``"join"`` is
    picked above :data:`segsum.AUTO_NATIVE_ROWS` pixels — no 100-TB
    path depends on a caller flag."""
    t0 = pixel_start_dates(ds, pixel_col, t_col)
    if t0_attach == "auto":
        from rsgislib_ray.stages import segsum as _segsum

        t0_attach = (
            "join"
            if t0.count() > _segsum.AUTO_NATIVE_ROWS
            else "broadcast"
        )
    k = 8
    mcols = moment_cols(k)

    def partials_from(batch: pa.Table, t0_map) -> pa.Table:
        pix = batch[pixel_col].to_numpy().astype(np.int64)
        t = batch[t_col].to_numpy().astype(np.int64)
        y = batch[value_col].to_numpy().astype(np.int64)
        tr = t - t0_map
        cols = _quant_cols(tr, lattice)
        upix, inv = np.unique(pix, return_inverse=True)
        out: dict = {pixel_col: upix}

        # int64 segment sums via add.at (bincount weights would go
        # through float64 and lose exactness)
        def seg(prod: np.ndarray) -> np.ndarray:
            a = np.zeros(len(upix), dtype=np.int64)
            np.add.at(a, inv, prod)
            return a

        idx = 0
        for i in range(k):
            for j in range(i, k):
                out[mcols[idx]] = seg(cols[i] * cols[j])
                idx += 1
        for i in range(k):
            out[mcols[idx]] = seg(cols[i] * y)
            idx += 1
        out["yy"] = seg(y * y)
        out["n_obs"] = seg(np.ones(len(pix), dtype=np.int64))
        return pa.table(out)

    if t0_attach == "broadcast":
        from rsgislib_ray.state.broadcast import cached

        t0_tbl = t0.to_pandas().sort_values(pixel_col)
        ref = ray.put(
            (
                t0_tbl[pixel_col].to_numpy().astype(np.int64),
                t0_tbl["t0"].to_numpy().astype(np.int64),
            )
        )

        def f(batch: pa.Table) -> pa.Table:
            keys, vals = cached(ref)
            pix = batch[pixel_col].to_numpy().astype(np.int64)
            pos = np.searchsorted(keys, pix)
            return partials_from(batch, vals[pos])

        parts = ds.map_batches(f, batch_format="pyarrow", batch_size=65536)
    elif t0_attach == "join":
        from rsgislib_ray.stages import partition

        joined = partition.join(ds, t0, pixel_col)

        def g(batch: pa.Table) -> pa.Table:
            return partials_from(
                batch, batch["t0"].to_numpy().astype(np.int64)
            )

        parts = joined.map_batches(
            g, batch_format="pyarrow", batch_size=65536
        )
    else:
        raise ValueError(f"unknown t0_attach {t0_attach!r}")

    from rsgislib_ray.stages.segsum import segment_sum

    moments = segment_sum(parts, pixel_col, mcols)
    return moments, t0


def season_trend_finish(
    moments: ray.data.Dataset,
    pixel_col: str,
    lattice: int = LATTICE,
    tier: str = "auto",
) -> ray.data.Dataset:
    """Solve the per-pixel normal equations from the packed integer
    moments: tier by observation count (simple/advanced/full =
    4/6/8 coefficients; pixels under 12 observations are dropped,
    modelfitting.py:88), descale the quantized trig columns, run the
    fixed-order Cholesky, and emit coefficients + RMSE. All float
    arithmetic is a deterministic chain over the exact integer
    moments — the parity contract with the SQL oracle."""
    kfull = 8

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_obs"].to_numpy().astype(np.int64)
        if tier == "auto":
            kv = np.where(
                n >= TIER_FULL,
                8,
                np.where(n >= TIER_ADVANCED, 6, 4),
            )
            kv = np.where(n >= TIER_MIN_OBS, kv, 0)
        else:
            kv = np.full(len(n), _K_OF_TIER[{"simple": 1,
                                             "advanced": 2,
                                             "full": 3}[tier]])
            kv = np.where(n >= TIER_MIN_OBS, kv, 0)
        out_pix, out_n, out_k = [], [], []
        out_coef = [[] for _ in range(kfull)]
        out_rmse = []
        pix = batch[pixel_col].to_numpy().astype(np.int64)
        for k in (4, 6, 8):
            sel = np.flatnonzero(kv == k)
            if not len(sel):
                continue
            p = len(sel)
            G = np.zeros((p, k, k))
            idx = 0
            for i in range(kfull):
                for j in range(i, kfull):
                    name = f"g{i}{j}"
                    if i < k and j < k:
                        v = batch[name].to_numpy()[sel].astype(
                            np.float64
                        ) / (_scale_of(i, lattice) * _scale_of(j, lattice))
                        G[:, i, j] = v
                        G[:, j, i] = v
            b = np.zeros((p, k))
            for i in range(k):
                b[:, i] = batch[f"xy{i}"].to_numpy()[sel].astype(
                    np.float64
                ) / _scale_of(i, lattice)
            coef = chol_solve_np(G, b)
            # rss = yy - 2 b'xy + b' G b, fixed accumulation order
            yy = batch["yy"].to_numpy()[sel].astype(np.float64)
            rss = yy.copy()
            for i in range(k):
                rss = rss - 2.0 * coef[:, i] * b[:, i]
            for i in range(k):
                for j in range(k):
                    rss = rss + coef[:, i] * coef[:, j] * G[:, i, j]
            nn = n[sel].astype(np.float64)
            rmse = np.sqrt(np.maximum(rss, 0.0) / nn)
            out_pix.append(pix[sel])
            out_n.append(n[sel])
            out_k.append(np.full(p, k, dtype=np.int64))
            for i in range(kfull):
                out_coef[i].append(
                    coef[:, i] if i < k else np.zeros(p)
                )
            out_rmse.append(rmse)
        if not out_pix:
            sch = {pixel_col: pa.array([], pa.int64()),
                   "n_obs": pa.array([], pa.int64()),
                   "k": pa.array([], pa.int64())}
            for i in range(kfull):
                sch[f"coef{i}"] = pa.array([], pa.float64())
            sch["rmse"] = pa.array([], pa.float64())
            return pa.table(sch)
        cols = {
            pixel_col: np.concatenate(out_pix),
            "n_obs": np.concatenate(out_n),
            "k": np.concatenate(out_k),
        }
        for i in range(kfull):
            cols[f"coef{i}"] = np.concatenate(out_coef[i])
        cols["rmse"] = np.concatenate(out_rmse)
        return pa.table(cols)

    return moments.map_batches(
        finish, batch_format="pyarrow", batch_size=65536
    )


def season_trend_fit(
    ds: ray.data.Dataset,
    pixel_col: str,
    t_col: str,
    value_col: str,
    lattice: int = LATTICE,
    tier: str = "auto",
    t0_attach: str = "auto",
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """End-to-end season-trend fit (get_ST_model_coeffs,
    modelfitting.py:269): returns (models, start_dates) — one model
    row per pixel with >= 12 observations."""
    moments, t0 = season_trend_moments(
        ds, pixel_col, t_col, value_col, lattice, t0_attach
    )
    return season_trend_finish(moments, pixel_col, lattice, tier), t0


def season_trend_lasso_finish(
    moments: ray.data.Dataset,
    pixel_col: str,
    lattice: int = LATTICE,
    alpha: float = 20.0,
    n_cycles: int = 5,
) -> ray.data.Dataset:
    """Pinned Lasso finisher for the season-trend model
    (fit_lasso_model, timeseries/modelfitting.py:141 — the reference's
    default model_type with alpha=20, get_ST_model_coeffs:269-276).

    Public substitution (the statsmodels->tukey_irls / mpfit->Jacobi-GN
    / sklearn-KMeans->pinned-Lloyd pattern): sklearn's
    ``Lasso(fit_intercept=True, alpha)`` tol-stopped coordinate descent
    is replaced by a from-scratch FIXED-ITERATION cyclic coordinate
    descent in covariance (Gram) form — the soft-threshold update of
    Friedman, Hastie & Tibshirani 2010 ("Regularization Paths for
    GLMs via Coordinate Descent", JSS 33(1), eq. 5-9) — over the
    EXACT INTEGER centered scatter derived from the lattice moments:

        A_jk = n*g_jk - g_0j*g_0k   (int64, exact)
        S_jk = A_jk / n / (s_j*s_k) (one rounded division; the
                                     lattice scales are powers of two,
                                     so their division is exact)
        rho_j = C_j - sum_{k != j} S_jk * w_k   (ordered left fold,
                                                 k ascending)
        w_j  <- 0                      if |rho_j| <= n*alpha
                (rho_j -+ n*alpha)/S_jj otherwise

    cycled over features [t, cos1, sin1] in that fixed order for
    ``n_cycles`` full cycles from w = 0. Intercept = centered mean
    chain; RSS by the moment identity in the same i-major order as
    ``season_trend_finish``. Every float op is a deterministic chain
    over exact integers — the SQL-oracle parity contract. Simple tier
    only (12-17 observations, 4 coefficients); int64 bound:
    n*g_jk <= 17^2 * lattice^2 ~ 3.2e14 at the default lattice.
    """
    L = float(lattice)
    sc = [1.0, L, L]  # scales of features t, cos1, sin1 (cols 1..3)
    feats = (1, 2, 3)

    def finish(batch: pa.Table) -> pa.Table:
        n_all = batch["n_obs"].to_numpy().astype(np.int64)
        sel = np.flatnonzero(
            (n_all >= TIER_MIN_OBS) & (n_all < TIER_ADVANCED)
        )
        pix = batch[pixel_col].to_numpy().astype(np.int64)[sel]
        n = n_all[sel]
        dn = n.astype(np.float64)
        g0 = [
            batch[f"g0{c}"].to_numpy().astype(np.int64)[sel]
            for c in feats
        ]
        xy0 = batch["xy0"].to_numpy().astype(np.int64)[sel]
        cxy = [
            batch[f"xy{c}"].to_numpy().astype(np.int64)[sel]
            for c in feats
        ]
        yy = batch["yy"].to_numpy().astype(np.int64)[sel]
        S: dict[tuple[int, int], np.ndarray] = {}
        for a in range(3):
            for b in range(a, 3):
                gint = batch[f"g{feats[a]}{feats[b]}"].to_numpy()
                gint = gint.astype(np.int64)[sel]
                aint = n * gint - g0[a] * g0[b]
                S[(a, b)] = aint.astype(np.float64) / dn / (
                    sc[a] * sc[b]
                )
                S[(b, a)] = S[(a, b)]
        C = [
            (n * cxy[j] - g0[j] * xy0).astype(np.float64)
            / dn
            / sc[j]
            for j in range(3)
        ]
        syy = (n * yy - xy0 * xy0).astype(np.float64) / dn
        thr = alpha * dn
        if len(sel):
            assert all(float(np.min(S[(j, j)])) > 0.0 for j in range(3))
        w = [np.zeros(len(sel)) for _ in range(3)]
        for _ in range(n_cycles):
            for j in range(3):
                rho = C[j].copy()
                for k in range(3):
                    if k != j:
                        rho = rho - S[(j, k)] * w[k]
                w[j] = np.where(
                    np.abs(rho) <= thr,
                    0.0,
                    np.where(
                        rho > 0.0,
                        (rho - thr) / S[(j, j)],
                        (rho + thr) / S[(j, j)],
                    ),
                )
        icpt = xy0.astype(np.float64) / dn
        for j in range(3):
            icpt = icpt - w[j] * (
                g0[j].astype(np.float64) / dn / sc[j]
            )
        rss = syy.copy()
        for j in range(3):
            rss = rss - 2.0 * w[j] * C[j]
        for j in range(3):
            for k in range(3):
                rss = rss + w[j] * w[k] * S[(j, k)]
        rmse = np.sqrt(np.maximum(rss, 0.0) / dn)
        nonzero = np.zeros(len(sel), dtype=np.int64)
        for j in range(3):
            nonzero = nonzero + (w[j] != 0.0).astype(np.int64)
        return pa.table(
            {
                pixel_col: pix,
                "n_obs": n,
                "slope": w[0],
                "intercept": icpt,
                "cos1": w[1],
                "sin1": w[2],
                "rmse": rmse,
                "nonzero": nonzero,
            }
        )

    return moments.map_batches(
        finish, batch_format="pyarrow", batch_size=65536
    )


def predict_for_day(
    models: ray.data.Dataset,
    t0: ray.data.Dataset,
    day: int,
    pixel_col: str,
    lattice: int = LATTICE,
) -> ray.data.Dataset:
    """Predict each pixel's value at an absolute day
    (predict_for_date, modelfitting.py:454): evaluate the fitted
    basis at ``day - t0``. The trig basis is evaluated on the SAME
    quantization lattice as the fit, keeping the whole chain
    deterministic. Models with k < 8 have zero high-order
    coefficients, so the full basis dot product is tier-safe."""
    from rsgislib_ray.state.broadcast import cached

    t0_tbl = t0.to_pandas().sort_values(pixel_col)
    ref = ray.put(
        (
            t0_tbl[pixel_col].to_numpy().astype(np.int64),
            t0_tbl["t0"].to_numpy().astype(np.int64),
        )
    )
    L = float(lattice)

    def f(batch: pa.Table) -> pa.Table:
        keys, vals = cached(ref)
        pix = batch[pixel_col].to_numpy().astype(np.int64)
        tr = (day - vals[np.searchsorted(keys, pix)]).astype(np.int64)
        cols = _quant_cols(tr, lattice)
        pred = batch["coef0"].to_numpy().copy()
        pred = pred + batch["coef1"].to_numpy() * tr.astype(np.float64)
        for i in range(2, 8):
            pred = pred + batch[f"coef{i}"].to_numpy() * (
                cols[i].astype(np.float64) / L
            )
        return pa.table({pixel_col: pix, "predicted": pred})

    return models.map_batches(f, batch_format="pyarrow", batch_size=65536)


# ---------------------------------------------------------------------------
# TMask robust outlier masking
# ---------------------------------------------------------------------------


#: shared basis + weight lattice for the IRLS path (2^13): small
#: enough that a weighted moment term wq*xq_i*xq_j <= 2^39 keeps
#: int64 sums exact through ~10^6 observations per pixel.
IRLS_LAT = 8192


def _tmask_basis(tr: np.ndarray, num_years: float) -> np.ndarray:
    """QUANTIZED 5-column TMask design (tmask.py:106-115 /
    robustfitoutliners.py:47-58): constant, annual harmonic pair,
    full-span harmonic pair — trig columns snapped to the 1/IRLS_LAT
    grid (half-up) so weighted moment sums are exact integers
    (order-independent, hence deterministic under any partitioning
    and replayable by a SQL oracle). Returns int64 (n, 5)."""
    w1 = (2.0 * math.pi) / T_DAYS
    w2 = (2.0 * math.pi) / (num_years * T_DAYS)
    t = tr.astype(np.float64)
    L = float(IRLS_LAT)
    cols = [np.ones(len(tr), np.int64)]
    for w in (w1, w2):
        cols.append(np.floor(np.cos(w * t) * L + 0.5).astype(np.int64))
        cols.append(np.floor(np.sin(w * t) * L + 0.5).astype(np.int64))
    return np.stack(cols, axis=1)


def tukey_irls(
    xq: np.ndarray,
    y: np.ndarray,
    c: float = 0.4685,
    max_iter: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Lattice-quantized Tukey-biweight IRLS (the reference delegates
    to statsmodels RLM, tmask.py:117-121; this is the standard public
    algorithm — OLS start, scale = MAD/0.6745, biweight reweighting,
    ``max_iter`` WLS refits — with every float op pinned for SQL
    parity):

    - ``xq`` is the INTEGER quantized design from
      :func:`_tmask_basis` (col 0 the constant, cols 1+ trig *
      IRLS_LAT); ``y`` integer-valued.  Weights are quantized to the
      same lattice (``floor(w * L + 0.5)``), so every normal-equation
      moment is an exact int64 sum; descaling divides by powers of
      two (exact).
    - Solves use the fixed-order unrolled Cholesky
      (:func:`chol_solve_np` — the same parity contract as
      season-trend); residual prediction is the literal
      left-associative fold ``(((b0 + xf1*b1) + xf2*b2) + ...)``.
    - Medians are numpy's sort-based convention: even n ->
      ``(lo + hi) / 2``, exactly replayable by rank selection.

    The ``scale <= 0`` and degenerate-weight-mass early exits are
    kept from the public algorithm AND are replayed by the unrolled
    oracle: both break before the next solve, so the kept residuals
    are r_s at the iteration s where the exit was detected — the
    oracle tracks a per-pixel first-exit ``stop`` iteration and
    rank-picks r_stop (queries._sql_irls_band).
    Returns (coefficients, residuals-at-final-beta)."""
    n, k = xq.shape
    L = float(IRLS_LAT)
    Li = int(IRLS_LAT)
    yi = y.astype(np.int64)
    yf = yi.astype(np.float64)
    xf = xq.astype(np.float64)
    for i in range(1, k):
        xf[:, i] = xf[:, i] / L  # exact power-of-two descale
    sc = [1.0] + [L] * (k - 1)

    def solve(wq: np.ndarray) -> np.ndarray:
        G = np.empty((1, k, k))
        b = np.empty((1, k))
        for i in range(k):
            for j in range(i, k):
                gint = int((wq * xq[:, i] * xq[:, j]).sum())
                G[0, i, j] = G[0, j, i] = float(gint) / (
                    L * sc[i] * sc[j]
                )
            bint = int((wq * xq[:, i] * yi).sum())
            b[0, i] = float(bint) / (L * sc[i])
        return chol_solve_np(G, b)[0]

    def resid(beta: np.ndarray) -> np.ndarray:
        pred = np.full(n, beta[0])
        for i in range(1, k):
            pred = pred + xf[:, i] * beta[i]
        return yf - pred

    wq = np.full(n, Li, np.int64)
    beta = solve(wq)
    for _ in range(max_iter):
        r = resid(beta)
        med = np.median(r)
        scale = np.median(np.abs(r - med)) / 0.6745
        if scale <= 0:
            break
        u = r / (c * scale)
        t1 = 1.0 - u * u
        w = np.where(np.abs(u) < 1.0, t1 * t1, 0.0)
        wq = np.floor(w * L + 0.5).astype(np.int64)
        if wq.sum() <= k * Li:
            break
        beta = solve(wq)
    return beta, resid(beta)


def tmask_outliers(
    ds: ray.data.Dataset,
    pixel_col: str,
    t_col: str,
    green_col: str,
    nir_col: str,
    swir_col: str,
    threshold: float = 40.0,
    num_years: float | None = None,
    max_iter: int = 5,
) -> ray.data.Dataset:
    """TMask cloud/shadow/snow outlier flags (RLMRemoveOutliers,
    tmask.py:50-141): per pixel, robust-fit green/NIR/SWIR against
    the 5-column design and flag observations where green residual
    >= threshold AND NIR residual <= -threshold AND SWIR residual
    <= -threshold (i.e. NOT the reference's keep rule). One
    ``groupby(pixel)`` co-locates each pixel's series; the IRLS runs
    vectorized inside the group and emits (pixel, t, outlier)."""

    def per_pixel(g: pa.Table) -> pa.Table:
        t = g[t_col].to_numpy().astype(np.int64)
        order = np.argsort(t, kind="stable")
        t = t[order]
        tr = t - t.min()
        ny = (
            num_years
            if num_years is not None
            else max(float(tr.max()) / T_DAYS, 1.0)
        )
        x = _tmask_basis(tr, ny)
        deltas = {}
        for col in (green_col, nir_col, swir_col):
            y = g[col].to_numpy().astype(np.int64)[order]
            if len(y) <= x.shape[1]:
                deltas[col] = np.zeros(len(y))
                continue
            _beta, resid = tukey_irls(x, y)
            deltas[col] = resid
        keep = (deltas[green_col] < threshold) & (
            (deltas[nir_col] > -threshold)
            | (deltas[swir_col] > -threshold)
        )
        return pa.table(
            {
                pixel_col: g[pixel_col].to_numpy()[order],
                t_col: t,
                "outlier": (~keep).astype(np.int64),
            }
        )

    return ds.groupby(pixel_col).map_groups(
        per_pixel, batch_format="pyarrow"
    )


def st_outlier_masks(
    ds: ray.data.Dataset,
    pixel_col: str,
    t_col: str,
    value_cols: list[str],
    nodata: int,
    threshold: float = 3.0,
    max_iter: int = 5,
) -> ray.data.Dataset:
    """Season-trend robust outlier masks (robustfitoutliners.py:61
    ``_gen_band_masks`` + :124 ``get_ST_masks``): per pixel, rows where
    ANY band equals ``nodata`` are excluded from the fit and masked 0;
    with >= 12 clean observations each band is robust-fitted (Tukey
    IRLS, the statsmodels-RLM replacement :func:`tukey_irls`) against
    the 5-column season-trend design with
    ``num_years = ceil((t_max - t_min) / 365)`` (:95 — 365, not the
    365.25 period, quirk kept) and masked -1 / +1 where the residual
    is below ``-RMSE*threshold`` / above ``RMSE*threshold``
    (RMSE = sqrt(mean(residual^2)) of the robust fit, :45). Fewer
    than 12 clean rows -> all masks 0. One ``groupby(pixel)``
    co-locates each pixel's series; everything inside the group is
    vectorized numpy. Output long form: (pixel, t, band, mask)."""

    def per_pixel(g: pa.Table) -> pa.Table:
        t = g[t_col].to_numpy().astype(np.int64)
        order = np.argsort(t, kind="stable")
        t = t[order]
        Y = np.stack(
            [g[c].to_numpy().astype(np.int64)[order]
             for c in value_cols],
            axis=1,
        )
        n = len(t)
        masks = np.zeros((n, len(value_cols)), np.int64)
        clean = np.all(Y != nodata, axis=1)
        nc = int(clean.sum())
        if nc >= 12:
            tc = t[clean]
            ny = float(np.ceil((t.max() - t.min()) / 365.0))
            x = _tmask_basis(tc - tc.min(), ny)
            for bi in range(len(value_cols)):
                y = Y[clean, bi]
                _beta, resid = tukey_irls(x, y, max_iter=max_iter)
                # RMSE over residuals quantized to 1/256 so the sum
                # of squares is an exact (order-independent) int64 —
                # the same distributed-determinism lattice as the
                # moments; sqrt and the power-of-two descale are
                # IEEE-exact both sides of the oracle
                rq = np.floor(resid * 256.0 + 0.5).astype(np.int64)
                ssq = int((rq * rq).sum())
                rmse = math.sqrt(float(ssq) / nc) / 256.0
                m = np.zeros(nc, np.int64)
                m[resid < -rmse * threshold] = -1
                m[resid > rmse * threshold] = 1
                masks[clean, bi] = m
        out_pix = np.repeat(
            g[pixel_col].to_numpy()[order], len(value_cols)
        )
        out_t = np.repeat(t, len(value_cols))
        out_b = np.tile(
            np.arange(len(value_cols), dtype=np.int64), n
        )
        return pa.table(
            {
                pixel_col: out_pix,
                t_col: out_t,
                "band": out_b,
                "mask": masks.reshape(-1),
            }
        )

    return ds.groupby(pixel_col).map_groups(
        per_pixel, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# class-timeseries gap fill (classification/__init__.py:1329)
# ---------------------------------------------------------------------------


def fill_steps(n_imgs: int, n_iters: int, double_direction: bool,
               recheck_ends: bool) -> list[tuple[int, int]]:
    """The exact in-place sweep order of the reference's
    _fill_cls_imgs kernel (classification/__init__.py:1421): a list
    of (dst, src) column assignments ``img[dst][nodata] <- img[src]``
    replayed sequentially.  Forward pulls one epoch ahead, the
    reverse sweep pulls the (already forward-filled) previous epoch,
    then the two ends recheck — all cascading through the shared
    in-place state exactly like the RIOS kernel."""
    steps: list[tuple[int, int]] = []
    for _ in range(n_iters):
        for n in range(n_imgs - 1):
            steps.append((n, n + 1))
        if double_direction:
            for n in range(n_imgs - 1, 0, -1):
                steps.append((n, n - 1))
        if recheck_ends:
            steps.append((0, 1))
            steps.append((n_imgs - 1, n_imgs - 2))
    return steps


def fill_class_timeseries(
    ds: ray.data.Dataset,
    cls_cols: list[str],
    no_data_val: int = 0,
    n_iters: int = 3,
    double_direction: bool = True,
    recheck_ends: bool = True,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Distributed fill_class_timeseries: the input is one row per
    pixel with one class column per epoch (the wide layout a
    time-series table naturally lands in), so the whole fill is ONE
    zero-shuffle vectorized pass replaying the reference's sweep
    steps per batch — integers only, trivially partition-independent
    and bit-exact against the unrolled SQL oracle."""
    steps = fill_steps(
        len(cls_cols), n_iters, double_direction, recheck_ends
    )

    def f(batch: pa.Table) -> pa.Table:
        cols = {
            c: batch[c].to_numpy().astype(np.int64) for c in cls_cols
        }
        for dst, src in steps:
            d = cols[cls_cols[dst]]
            cols[cls_cols[dst]] = np.where(
                d == no_data_val, cols[cls_cols[src]], d
            )
        out = {"pixel_id": batch["pixel_id"]}
        out.update(cols)
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=batch_size)
