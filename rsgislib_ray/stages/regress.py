"""From-scratch distributed regression models + k-fold evaluation.

The reference's regression module wraps third-party estimators
(regression/regresssklearn.py:219 ``perform_kfold_fit`` — k-fold fit
of a scikit-learn regressor with a 12-metric panel per fold/response;
:344 ``apply_regress_sklearn_mdl`` — mask-gated per-pixel predict;
regression/__init__.py:10 ``get_regression_stats`` — the same metric
panel over one reference/prediction pair). None of those libraries
exist in this sandbox, and wrapping them would not be Ray-Data-native
anyway — this module re-expresses the same user-facing surface with
models trained from exact distributed statistics (the pattern proven
by ``stages/classify.py`` for the classifier slice):

- **k-fold linear regression** (``perform_kfold_fit`` with the linear
  estimator): ONE streaming pass produces per-fold exact integer
  moments (Gram over ``[1, x]``, ``Σxy``, ``Σy``, ``Σy²``); the train
  Gram for fold *f* is ``global − fold_f`` (pure integer subtraction,
  so k folds cost one pass, not k); per-fold closed-form solve through
  the shared fixed-order Cholesky (`stages/timeseries.chol_solve_np`).
- **metric panel from moments**: every moment-expressible metric of
  the reference panel (r², explained variance, MSE, RMSE, normalised
  RMSE, bias, normalised bias, bias², variance, noise — stats.py
  ``bias_score``/``decompose_bias_variance`` chains mirrored from
  `stages/scores.py`) is a FIXED-ORDER float chain over exact integer
  test-fold moments and the fitted β — bit-reproducible in SQL. The
  two non-moment metrics (mean/median absolute error) run over
  half-up micro-quantized residuals: ``Σq`` is an exact int64 sum and
  the median is an exact distributed rank selection
  (`stages/classify.group_rank_thresholds` two-level buckets — no
  global sort, no driver pull beyond the boundary bucket).
- **kNN regression** (the KNeighborsRegressor grid entry,
  regresssklearn.py:55): broadcast train matrix, per-batch vectorized
  distance + top-k selection with deterministic ``(d², id)`` ties;
  uniform prediction is the exact integer neighbour-sum over k (one
  float division), distance-weighted prediction is the fixed
  rank-ordered ``Σ(y_i/d_i)/Σ(1/d_i)`` chain.
- **depth-limited histogram regression tree** (the tree-ensemble grid
  entries): per-level ``(feature, value) → (n, Σy, Σy²)`` histograms —
  one streaming pass per level, state bounded by the feature domain —
  split chosen by minimum ``SSE_L + SSE_R`` where each SSE is the
  double ``(n·Σy² − (Σy)²)/n`` of exact integers (IEEE division is
  correctly rounded, so DuckDB reproduces the same doubles
  bit-for-bit); ties break on (criterion, feature, threshold).
- **elastic-net coordinate descent** (the ElasticNet grid entry,
  regresssklearn.py:37): the standard cyclic coordinate-descent
  soft-threshold updates computed entirely from the one-pass exact
  Gram/moment statistics — each sweep is a fixed float chain over
  (d+1) scalars, so a fixed number of unrolled sweeps is
  bit-reproducible in SQL; no second data pass regardless of sweeps.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.stages.classify import group_rank_thresholds
from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine
from rsgislib_ray.stages.timeseries import chol_solve_np

MICRO = 1000000.0  # residual quantization unit (half-up micro-units)


# ---------------------------------------------------------------------------
# one-pass per-fold moments
# ---------------------------------------------------------------------------


def fold_moments(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    y_col: str,
    fold_col: str,
    n_folds: int,
    batch_size: int = 65536,
) -> dict:
    """One streaming pass → per-fold exact integer moments: ``n``,
    ``s{i} = Σx_i``, ``q{i}_{j} = Σx_i x_j``, ``sy = Σy``,
    ``syy = Σy²``, ``sxy{i} = Σx_i y``. Long-form partials (one row
    per (batch, fold)), cross-batch combine in Python ints. Returns
    ``{fold: {moment: int}, "global": {...}}``. Features and response
    must be integer-valued (validated)."""
    d = len(feature_cols)

    def partial(batch: pa.Table) -> pa.Table:
        xs = []
        for c in feature_cols + [y_col]:
            v = batch[c].to_numpy()
            vi = v.astype(np.int64)
            if not np.array_equal(vi.astype(v.dtype), v):
                raise ValueError(f"column {c} must be integer-valued")
            xs.append(vi)
        y = xs[-1]
        xs = xs[:-1]
        f = batch[fold_col].to_numpy().astype(np.int64)
        rows: dict = {"fold": []}
        for k in (
            ["n", "sy", "syy"]
            + [f"s{i}" for i in range(d)]
            + [f"q{i}_{j}" for i in range(d) for j in range(i, d)]
            + [f"sxy{i}" for i in range(d)]
        ):
            rows[k] = []
        for fo in range(n_folds):
            m = f == fo
            ym = y[m]
            rows["fold"].append(fo)
            rows["n"].append(int(m.sum()))
            rows["sy"].append(int(ym.sum()))
            rows["syy"].append(int(np.dot(ym, ym)))
            for i in range(d):
                xi = xs[i][m]
                rows[f"s{i}"].append(int(xi.sum()))
                rows[f"sxy{i}"].append(int(np.dot(xi, ym)))
                for j in range(i, d):
                    rows[f"q{i}_{j}"].append(int(np.dot(xi, xs[j][m])))
        return pa.table(
            {k: np.array(v, dtype=np.int64) for k, v in rows.items()}
        )

    pdf = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size
    ).to_pandas()
    cols = [c for c in pdf.columns if c != "fold"]
    out: dict = {}
    for fo in range(n_folds):
        sub = pdf[pdf["fold"] == fo]
        out[fo] = {c: int(sub[c].sum()) for c in cols}
    out["global"] = {
        c: sum(out[fo][c] for fo in range(n_folds)) for c in cols
    }
    return out


def kfold_lsq_fit(moments: dict, d: int, n_folds: int) -> np.ndarray:
    """Per-fold closed-form linear fit on the COMPLEMENT of the fold
    (train = global − fold, exact integer subtraction): solve
    ``G_f β_f = b_f`` with G the (d+1)×(d+1) Gram of ``[1, x]`` and
    ``b_f = [Σy, Σx_i y]``. Returns (n_folds, d+1) coefficients, the
    chol_solve_np chain being the SQL parity contract."""
    k1 = d + 1
    G = np.zeros((n_folds, k1, k1))
    B = np.zeros((n_folds, k1))
    g = moments["global"]
    for fo in range(n_folds):
        m = moments[fo]
        t = {c: g[c] - m[c] for c in m}
        G[fo, 0, 0] = float(t["n"])
        B[fo, 0] = float(t["sy"])
        for i in range(d):
            G[fo, 0, i + 1] = G[fo, i + 1, 0] = float(t[f"s{i}"])
            B[fo, i + 1] = float(t[f"sxy{i}"])
            for j in range(i, d):
                G[fo, i + 1, j + 1] = G[fo, j + 1, i + 1] = float(
                    t[f"q{i}_{j}"]
                )
    return chol_solve_np(G, B)


# ---------------------------------------------------------------------------
# residual quantization + exact distributed median
# ---------------------------------------------------------------------------


def residual_quantized(
    ds: ray.data.Dataset,
    coefs: np.ndarray,
    feature_cols: list[str],
    y_col: str,
    fold_col: str,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Adds the half-up micro-quantized absolute residual
    ``q = ⌊|y − ŷ|·10⁶ + ½⌋`` per row, where ŷ is the fixed
    left-associative ``((β0 + β1·x1) + β2·x2) + …`` chain of the
    row's fold model. Output columns: (fold, q). q must fit 24 bits
    (asserted) so the rank-selection shift below stays exact."""
    co = np.asarray(coefs, dtype=np.float64)

    def f(batch: pa.Table) -> pa.Table:
        fo = batch[fold_col].to_numpy().astype(np.int64)
        y = batch[y_col].to_numpy().astype(np.float64)
        b = co[fo]  # (n, d+1)
        s = b[:, 0].copy()
        for i, c in enumerate(feature_cols):
            s = s + b[:, i + 1] * batch[c].to_numpy().astype(np.float64)
        q = np.floor(np.abs(y - s) * MICRO + 0.5).astype(np.int64)
        if q.size and int(q.max()) >= (1 << 24):
            raise ValueError("quantized residual exceeds 24 bits")
        return pa.table({"fold": fo, "q": q})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=batch_size)


def fold_abs_error_stats(
    resid: ray.data.Dataset, n_folds: int, counts: dict[int, int]
) -> dict:
    """Exact per-fold Σq (int64 partial bincount per batch, tiny
    combine) and exact median of q via two distributed rank
    selections (`group_rank_thresholds`, z = q << 40 so the 16-bit
    bucket histogram reads q's bits 8..23 — no global sort). Returns
    ``{fold: (sum_q, med_lo, med_hi)}``."""

    def partial(batch: pa.Table) -> pa.Table:
        fo = batch["fold"].to_numpy()
        q = batch["q"].to_numpy()
        s = np.bincount(fo, weights=None, minlength=n_folds)
        sq = np.zeros(n_folds, dtype=np.int64)
        np.add.at(sq, fo, q)
        return pa.table(
            {
                "fold": np.arange(n_folds, dtype=np.int64),
                "cnt": s.astype(np.int64),
                "sq": sq,
            }
        )

    pdf = resid.map_batches(partial, batch_format="pyarrow").to_pandas()
    sums = {
        fo: int(pdf[pdf["fold"] == fo]["sq"].sum()) for fo in range(n_folds)
    }

    def shifted(batch: pa.Table) -> pa.Table:
        q = batch["q"].to_numpy().astype(np.uint64)
        return pa.table(
            {
                "fold": batch["fold"],
                "z": (q << np.uint64(40)).view(np.int64),
                "t": batch["q"],
            }
        )

    zds = resid.map_batches(shifted, batch_format="pyarrow")
    lo_ranks = {fo: (counts[fo] + 1) // 2 for fo in range(n_folds)}
    hi_ranks = {fo: counts[fo] // 2 + 1 for fo in range(n_folds)}
    lo = group_rank_thresholds(zds, "fold", "z", "t", lo_ranks)
    hi = group_rank_thresholds(zds, "fold", "z", "t", hi_ranks)
    out = {}
    for fo in range(n_folds):
        out[fo] = (
            sums[fo],
            int(lo[fo][0] >> np.uint64(40)),
            int(hi[fo][0] >> np.uint64(40)),
        )
    return out


# ---------------------------------------------------------------------------
# metric panel (fixed float chains over exact moments)
# ---------------------------------------------------------------------------


def fold_metric_panel(
    moments: dict,
    coefs: np.ndarray,
    abs_err: dict,
    d: int,
    n_folds: int,
) -> pa.Table:
    """The reference's 12-metric panel (perform_kfold_fit,
    regresssklearn.py:272-323) per test fold, every float a fixed
    chain over exact integer moments + β — the SQL parity contract.
    ``noise`` mirrors scores.py's decompose_bias_variance clamp."""
    rows: dict = {
        k: []
        for k in (
            "fold n mae_q mae med_q r2 explained_variance mse rmse "
            "norm_rmse bias norm_bias bias_sq variance noise".split()
        )
    }
    for fo in range(n_folds):
        m = moments[fo]
        b = [float(coefs[fo, i]) for i in range(d + 1)]
        fn = float(m["n"])
        fsy = float(m["sy"])
        fsyy = float(m["syy"])
        phi = [fn] + [float(m[f"s{i}"]) for i in range(d)]
        v = [fsy] + [float(m[f"sxy{i}"]) for i in range(d)]
        M = [[0.0] * (d + 1) for _ in range(d + 1)]
        M[0][0] = fn
        for i in range(d):
            M[0][i + 1] = M[i + 1][0] = float(m[f"s{i}"])
            for j in range(i, d):
                M[i + 1][j + 1] = M[j + 1][i + 1] = float(m[f"q{i}_{j}"])
        syhat = 0.0
        for i in range(d + 1):
            syhat = syhat + b[i] * phi[i]
        syh = 0.0
        for i in range(d + 1):
            syh = syh + b[i] * v[i]
        shh = 0.0
        for i in range(d + 1):
            for j in range(d + 1):
                shh = shh + (b[i] * b[j]) * M[i][j]
        sse = (fsyy - 2.0 * syh) + shh
        mse = sse / fn
        rmse = math.sqrt(mse)
        mean_y = fsy / fn
        sst = fsyy - (fsy * fsy) / fn
        r2 = 1.0 - sse / sst
        mean_e = (fsy - syhat) / fn
        var_e = mse - mean_e * mean_e
        var_y = sst / fn
        ev = 1.0 - var_e / var_y
        norm_rmse = 100.0 * (rmse / mean_y)
        bias = (syhat - fsy) / fn
        norm_bias = (bias / mean_y) * 100.0
        bias_sq = bias * bias
        variance = mse - bias * bias
        noise = mse - (bias_sq + variance)
        if noise < 0:
            noise = 0.0
        sq, qlo, qhi = abs_err[fo]
        mae = (float(sq) / MICRO) / fn
        med_q = (float(qlo) + float(qhi)) / 2.0
        for k, val in (
            ("fold", fo),
            ("n", m["n"]),
            ("mae_q", sq),
            ("mae", mae),
            ("med_q", med_q),
            ("r2", r2),
            ("explained_variance", ev),
            ("mse", mse),
            ("rmse", rmse),
            ("norm_rmse", norm_rmse),
            ("bias", bias),
            ("norm_bias", norm_bias),
            ("bias_sq", bias_sq),
            ("variance", variance),
            ("noise", noise),
        ):
            rows[k].append(val)
    return pa.table(
        {
            "fold": pa.array(rows["fold"], pa.int64()),
            "n": pa.array(rows["n"], pa.int64()),
            "mae_q": pa.array(rows["mae_q"], pa.int64()),
            "mae": pa.array(rows["mae"], pa.float64()),
            "med_q": pa.array(rows["med_q"], pa.float64()),
            **{
                k: pa.array(rows[k], pa.float64())
                for k in (
                    "r2 explained_variance mse rmse norm_rmse bias "
                    "norm_bias bias_sq variance noise".split()
                )
            },
        }
    )


def kfold_lsq_panel(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    y_col: str,
    fold_col: str,
    n_folds: int,
) -> pa.Table:
    """End-to-end k-fold linear-regression evaluation
    (perform_kfold_fit shape): one moment pass fits all folds, one
    residual pass + two rank selections score them. The narrow
    (fold, q) residual table is materialized once so the three
    consumers do not recompute the source pipeline."""
    d = len(feature_cols)
    m = fold_moments(ds, feature_cols, y_col, fold_col, n_folds)
    coefs = kfold_lsq_fit(m, d, n_folds)
    resid = residual_quantized(
        ds, coefs, feature_cols, y_col, fold_col
    ).materialize()
    counts = {fo: m[fo]["n"] for fo in range(n_folds)}
    abs_err = fold_abs_error_stats(resid, n_folds, counts)
    return fold_metric_panel(m, coefs, abs_err, d, n_folds)


# ---------------------------------------------------------------------------
# kNN regression (KNeighborsRegressor slice)
# ---------------------------------------------------------------------------


class KNNRegressor:
    """Actor-pool apply stage: broadcast train matrix, per-batch
    vectorized squared distances, deterministic k-selection by
    ``(d², train_id)`` lexsort. Emits the exact integer neighbour
    y-sum (uniform weights = sum/k, one division) and the fixed
    rank-ordered distance-weighted chain
    ``Σ_r (y_r/d_r) / Σ_r (1/d_r)`` (ranks ascend; zero distances
    fall back to the exact mean of zero-distance neighbours,
    sklearn's documented behaviour)."""

    def __init__(
        self,
        train_x: np.ndarray,
        train_y: np.ndarray,
        train_id: np.ndarray,
        feature_cols: list[str],
        k: int,
        key_col: str = "ck",
    ):
        self.tx = np.asarray(train_x, dtype=np.int64)
        self.ty = np.asarray(train_y, dtype=np.int64)
        self.tid = np.asarray(train_id, dtype=np.int64)
        self.feature_cols = feature_cols
        self.k = k
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        xs = np.stack(
            [
                batch[c].to_numpy().astype(np.int64)
                for c in self.feature_cols
            ],
            axis=1,
        )  # (n, d)
        n = xs.shape[0]
        k = self.k
        # exact integer squared distances (n, m)
        d2 = (
            (xs * xs).sum(axis=1)[:, None]
            - 2 * xs @ self.tx.T
            + (self.tx * self.tx).sum(axis=1)[None, :]
        )
        m = d2.shape[1]
        # full lexsort keeps (d², id) ties exact; the broadcast-train
        # shape targets small reference sets (the large-train scale
        # path is the ANN family's bucketed machinery).
        pid = np.broadcast_to(self.tid[None, :], (n, m))
        order = np.lexsort((pid, d2), axis=1)[:, :k]
        nd2 = np.take_along_axis(d2, order, axis=1)  # (n, k) ints
        ny = self.ty[order]
        ysum = ny.sum(axis=1)
        pred_u = ysum.astype(np.float64) / float(k)
        # distance-weighted: fixed rank order, sqrt of exact int d²
        dist = np.sqrt(nd2.astype(np.float64))
        wnum = np.zeros(n)
        wden = np.zeros(n)
        for r in range(k):
            wnum = wnum + ny[:, r].astype(np.float64) / dist[:, r]
            wden = wden + 1.0 / dist[:, r]
        haszero = (nd2 == 0).any(axis=1)
        if haszero.any():
            zm = (nd2 == 0) & haszero[:, None]
            zsum = np.where(zm, ny, 0).sum(axis=1)
            zcnt = zm.sum(axis=1)
            zpred = zsum[haszero].astype(np.float64) / zcnt[
                haszero
            ].astype(np.float64)
            pred_w = wnum / wden
            pred_w[haszero] = zpred
        else:
            pred_w = wnum / wden
        return pa.table(
            {
                self.key_col: batch[self.key_col],
                "ysum": ysum,
                "pred_u": pred_u,
                "pred_w": pred_w,
            }
        )


def knn_regress(
    test: ray.data.Dataset, batch_size: int = 8192, **kw
) -> ray.data.Dataset:
    return test.map_batches(
        KNNRegressor,
        fn_constructor_kwargs=kw,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, 8),
    )


# ---------------------------------------------------------------------------
# histogram regression tree (variance-reduction splits)
# ---------------------------------------------------------------------------


def _reg_hist(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    y_col: str,
    domains: list[int],
    route,
) -> dict:
    """One pass → per (node, feature, value) exact ``(n, Σy, Σy²)``
    (int64 scatters, so a block of any size sums exactly); ``route(xs)``
    maps rows to node ids. State is bounded by ``n_nodes · Σ domains``,
    never by rows."""
    d = len(feature_cols)

    def partial(batch: pa.Table) -> pa.Table:
        xs = [
            batch[c].to_numpy().astype(np.int64) for c in feature_cols
        ]
        y = batch[y_col].to_numpy().astype(np.int64)
        node = route(xs)
        n_nodes = int(node.max()) + 1 if len(node) else 1
        rows = {"node": [], "feat": [], "val": [], "n": [], "sy": [], "syy": []}
        for nd in range(n_nodes):
            mnd = node == nd
            if not mnd.any():
                continue
            ynd = y[mnd]
            for i in range(d):
                xv = xs[i][mnd]
                cnt = np.bincount(xv, minlength=domains[i])
                s1 = np.zeros(len(cnt), np.int64)
                s2 = np.zeros(len(cnt), np.int64)
                np.add.at(s1, xv, ynd)
                np.add.at(s2, xv, ynd * ynd)
                nz = np.nonzero(cnt)[0]
                rows["node"].extend([nd] * len(nz))
                rows["feat"].extend([i] * len(nz))
                rows["val"].extend(nz.tolist())
                rows["n"].extend(cnt[nz].tolist())
                rows["sy"].extend(s1[nz].tolist())
                rows["syy"].extend(s2[nz].tolist())
        return pa.table(
            {k: np.array(v, dtype=np.int64) for k, v in rows.items()}
        )

    agg = combine(
        map_blocks(ds, partial),
        ["node", "feat", "val"],
        ["n", "sy", "syy"],
    )
    return {
        (nd, f, v): (n, sy, syy)
        for nd, f, v, n, sy, syy in zip(*agg.to_pydict().values())
    }


def _best_reg_split(hist: dict, node: int, d: int, domains: list[int]):
    """Minimum ``SSE_L + SSE_R`` split: each SSE is the double
    ``float(n·Σy² − (Σy)²) / float(n)`` of exact integers (one
    correctly-rounded division), total the fixed sum ``sseL + sseR``
    — bit-reproducible in DuckDB. Ties →
    (criterion, feat, thr) ascending. Returns (feat, thr, crit) or
    None if no valid split. Split predicate: ``x[feat] <= thr``."""
    best = None
    for i in range(d):
        vals = sorted(
            v for (nd, f, v) in hist if nd == node and f == i
        )
        if len(vals) < 2:
            continue
        tot_n = sum(hist[(node, i, v)][0] for v in vals)
        tot_sy = sum(hist[(node, i, v)][1] for v in vals)
        tot_syy = sum(hist[(node, i, v)][2] for v in vals)
        cn = csy = csyy = 0
        for v in vals[:-1]:
            h = hist[(node, i, v)]
            cn += h[0]
            csy += h[1]
            csyy += h[2]
            rn = tot_n - cn
            rsy = tot_sy - csy
            rsyy = tot_syy - csyy
            if cn == 0 or rn == 0:
                continue
            sse_l = float(cn * csyy - csy * csy) / float(cn)
            sse_r = float(rn * rsyy - rsy * rsy) / float(rn)
            crit = sse_l + sse_r
            key = (crit, i, v)
            if best is None or key < best:
                best = key
        # note: vals iterates ascending so (crit, feat, thr) tie order
        # matches the SQL ORDER BY replay.
    if best is None:
        return None
    return (best[1], best[2], best[0])


def train_reg_tree(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    y_col: str,
    domains: list[int],
    max_depth: int = 2,
) -> dict:
    """Level-order training: one histogram pass per level. Node ids
    are heap-indexed (root 0; children 2i+1 / 2i+2 after offsetting
    per level). Leaves predict the exact mean ``float(Σy)/float(n)``.
    Returns {"splits": {node: (feat, thr)}, "leaf": {node: (sy, n)}}
    with node ids level-local (depth, idx)."""
    d = len(feature_cols)
    splits: dict = {}

    def route_fn(upto: int):
        def route(xs):
            node = np.zeros(len(xs[0]), dtype=np.int64)
            for _depth in range(upto):
                # unsplit nodes route left (node*2): their rows stay
                # one undivided group, so leaf means stay correct.
                nxt = node * 2
                for nd, (f, t) in splits.items():
                    if nd[0] != _depth:
                        continue
                    m = node == nd[1]
                    nxt[m] = np.where(
                        xs[f][m] <= t, nd[1] * 2, nd[1] * 2 + 1
                    )
                node = nxt
            return node

        return route

    for depth in range(max_depth):
        hist = _reg_hist(
            ds, feature_cols, y_col, domains, route_fn(depth)
        )
        n_nodes = 2**depth
        any_split = False
        for nd in range(n_nodes):
            if depth > 0 and ((depth - 1, nd // 2) not in splits):
                continue
            s = _best_reg_split(hist, nd, d, domains)
            if s is not None:
                splits[(depth, nd)] = (s[0], s[1])
                any_split = True
        if not any_split:
            break
    # leaf stats: one more pass at final depth
    final_depth = max_depth
    hist = _reg_hist(
        ds, feature_cols, y_col, domains, route_fn(final_depth)
    )
    leaf: dict = {}
    for (nd, f, v), (n, sy, syy) in hist.items():
        if f != 0:
            continue
        cur = leaf.get(nd, (0, 0))
        leaf[nd] = (cur[0] + sy, cur[1] + n)
    return {
        "splits": splits,
        "leaf": leaf,
        "depth": final_depth,
        "feature_cols": feature_cols,
    }


def apply_reg_tree(
    ds: ray.data.Dataset, model: dict, key_col: str = "ck"
) -> ray.data.Dataset:
    """Predict = exact leaf mean float(Σy)/float(n)."""
    splits = model["splits"]
    leaf = model["leaf"]
    depth = model["depth"]
    fc = model["feature_cols"]

    def f(batch: pa.Table) -> pa.Table:
        xs = [batch[c].to_numpy().astype(np.int64) for c in fc]
        node = np.zeros(len(xs[0]), dtype=np.int64)
        for dep in range(depth):
            nxt = node * 2
            for nd, (fe, t) in splits.items():
                if nd[0] != dep:
                    continue
                m = node == nd[1]
                nxt[m] = np.where(xs[fe][m] <= t, nd[1] * 2, nd[1] * 2 + 1)
            node = nxt
        pred = np.zeros(len(node), dtype=np.float64)
        nid = np.zeros(len(node), dtype=np.int64)
        for nd, (sy, n) in leaf.items():
            m = node == nd
            pred[m] = float(sy) / float(n)
            nid[m] = nd
        return pa.table(
            {key_col: batch[key_col], "leaf": nid, "pred": pred}
        )

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


# ---------------------------------------------------------------------------
# elastic-net coordinate descent from moments
# ---------------------------------------------------------------------------


def elasticnet_cd(
    moments: dict,
    d: int,
    alpha: float,
    l1_ratio: float,
    n_sweeps: int,
) -> list[float]:
    """Cyclic coordinate descent for the elastic net on the UNCENTERED
    design with an unpenalized intercept (the sklearn objective
    ``1/(2n)·Σ(y−β0−xβ)² + α·l1·Σ|βj| + α(1−l1)/2·Σβj²``), computed
    entirely from the exact integer moment dict — no data pass per
    sweep. Update order: intercept, then features 0..d−1, repeated
    ``n_sweeps`` times; every operation is a fixed float chain (the
    SQL parity contract). ``moments`` is ONE moment dict (pass
    ``fold_moments(...)["global"]``): n, s{i}, q{i}_{j}, sy, sxy{i}."""
    g = moments
    fn = float(g["n"])
    lam1 = alpha * l1_ratio * fn  # scaled to sum form
    lam2 = alpha * (1.0 - l1_ratio) * fn
    b0 = 0.0
    b = [0.0] * d

    def q(i: int, j: int) -> float:
        return float(g[f"q{min(i, j)}_{max(i, j)}"])

    for _s in range(n_sweeps):
        # intercept: b0 = (sy - Σ bj*sj) / n
        t = float(g["sy"])
        for j in range(d):
            t = t - b[j] * float(g[f"s{j}"])
        b0 = t / fn
        for i in range(d):
            # rho = sxy_i - b0*s_i - Σ_{j≠i} bj*q_ij
            rho = float(g[f"sxy{i}"]) - b0 * float(g[f"s{i}"])
            for j in range(d):
                if j == i:
                    continue
                rho = rho - b[j] * q(i, j)
            # soft threshold
            zi = q(i, i) + lam2
            if rho > lam1:
                b[i] = (rho - lam1) / zi
            elif rho < -lam1:
                b[i] = (rho + lam1) / zi
            else:
                b[i] = 0.0
    return [b0] + b


# ---------------------------------------------------------------------------
# PLS1 regression from moments (NIPALS, fixed component count)
# ---------------------------------------------------------------------------


def pls_fit(moments: dict, d: int, n_components: int) -> dict:
    """PLS1 regression (the PLSRegression grid entry,
    regresssklearn.py:113) with a FIXED component count, computed
    entirely from the one-pass exact moment dict via the rank-one
    deflation identities — no data pass per component:

      S_{a+1} = S_a − t'ᵗt · p pᵀ,   b_{a+1} = b_a − (wᵀb_a) · p,

    where w = b_a/‖b_a‖, p = S_a w / (wᵀ S_a w). Centered moments are
    fixed float chains over the exact integers (the SQL parity
    contract); final β = W (PᵀW)⁻¹ q (closed-form 2×2 solve for the
    default 2 components), intercept from the mean chain. Returns
    {"b0", "beta": [..], "q": [per-component regressions]}.
    ``moments`` is one moment dict (``fold_moments(...)["global"]``)."""
    assert n_components == 2, "fixed 2-component closed form"
    g = moments
    fn = float(g["n"])

    def Sym(store, i, j):
        return store[(min(i, j), max(i, j))]

    S: dict = {}
    b = [0.0] * d
    for i in range(d):
        b[i] = float(g[f"sxy{i}"]) - (float(g[f"s{i}"]) * float(g["sy"])) / fn
        for j in range(i, d):
            S[(i, j)] = (
                float(g[f"q{i}_{j}"])
                - (float(g[f"s{i}"]) * float(g[f"s{j}"])) / fn
            )
    ws, ps, qs = [], [], []
    for _a in range(n_components):
        nrm2 = 0.0
        for i in range(d):
            nrm2 = nrm2 + b[i] * b[i]
        nrm = math.sqrt(nrm2)
        w = [b[i] / nrm for i in range(d)]
        Sw = []
        for i in range(d):
            acc = 0.0
            for j in range(d):
                acc = acc + Sym(S, i, j) * w[j]
            Sw.append(acc)
        tt = 0.0
        for i in range(d):
            tt = tt + w[i] * Sw[i]
        p = [Sw[i] / tt for i in range(d)]
        wb = 0.0
        for i in range(d):
            wb = wb + w[i] * b[i]
        qa = wb / tt
        ws.append(w)
        ps.append(p)
        qs.append(qa)
        S = {
            (i, j): S[(i, j)] - tt * (p[i] * p[j])
            for i in range(d)
            for j in range(i, d)
        }
        b = [b[i] - wb * p[i] for i in range(d)]
    pw11 = 0.0
    pw12 = 0.0
    pw21 = 0.0
    pw22 = 0.0
    for i in range(d):
        pw11 = pw11 + ps[0][i] * ws[0][i]
        pw12 = pw12 + ps[0][i] * ws[1][i]
        pw21 = pw21 + ps[1][i] * ws[0][i]
        pw22 = pw22 + ps[1][i] * ws[1][i]
    det = pw11 * pw22 - pw12 * pw21
    c1 = (qs[0] * pw22 - qs[1] * pw12) / det
    c2 = (pw11 * qs[1] - pw21 * qs[0]) / det
    beta = [ws[0][i] * c1 + ws[1][i] * c2 for i in range(d)]
    b0 = float(g["sy"]) / fn
    for i in range(d):
        b0 = b0 - beta[i] * (float(g[f"s{i}"]) / fn)
    return {"b0": b0, "beta": beta, "q": qs}


# ---------------------------------------------------------------------------
# Breusch-Pagan heteroskedasticity test (tools/stats.py:318)
# ---------------------------------------------------------------------------


def bp_scalar_chain(pref: str, mom: dict[str, str]) -> list:
    """Cramer 3x3 solve for an intercept + 2-predictor OLS over the
    symmetric normal matrix [[n,s1,s2],[s1,q11,q12],[s2,q12,q22]] and
    rhs (ty, t1, t2).  ``mom`` maps the 9 role names to env column
    names (exact ints); all entries are lifted to DOUBLE first
    (``1.0e0 * x`` — exact below 2^53) so the chain never overflows
    BIGINT in SQL while Python big-ints would not."""
    m = mom
    ch = []
    for role in ("n", "s1", "s2", "q11", "q12", "q22", "ty", "t1", "t2"):
        ch.append((f"{pref}f{role}", f"1.0e0 * {m[role]}"))
    f = lambda r: f"{pref}f{r}"  # noqa: E731
    ch += [
        (
            f"{pref}det",
            f"{f('n')}*({f('q11')}*{f('q22')} - {f('q12')}*{f('q12')})"
            f" - {f('s1')}*({f('s1')}*{f('q22')} - {f('q12')}*{f('s2')})"
            f" + {f('s2')}*({f('s1')}*{f('q12')} - {f('q11')}*{f('s2')})",
        ),
        (
            f"{pref}b0",
            f"({f('ty')}*({f('q11')}*{f('q22')} - {f('q12')}*{f('q12')})"
            f" - {f('s1')}*({f('t1')}*{f('q22')} - {f('q12')}*{f('t2')})"
            f" + {f('s2')}*({f('t1')}*{f('q12')} - {f('q11')}*{f('t2')}))"
            f" / {pref}det",
        ),
        (
            f"{pref}b1",
            f"({f('n')}*({f('t1')}*{f('q22')} - {f('q12')}*{f('t2')})"
            f" - {f('ty')}*({f('s1')}*{f('q22')} - {f('q12')}*{f('s2')})"
            f" + {f('s2')}*({f('s1')}*{f('t2')} - {f('t1')}*{f('s2')}))"
            f" / {pref}det",
        ),
        (
            f"{pref}b2",
            f"({f('n')}*({f('q11')}*{f('t2')} - {f('t1')}*{f('q12')})"
            f" - {f('s1')}*({f('s1')}*{f('t2')} - {f('t1')}*{f('s2')})"
            f" + {f('ty')}*({f('s1')}*{f('q12')} - {f('q11')}*{f('s2')}))"
            f" / {pref}det",
        ),
    ]
    return ch


def bp_final_chain() -> list:
    """From the second-pass exact integer sums (se, see, s1e, s2e —
    squared residuals quantized to 0.01) and the first-pass normal
    matrix: the auxiliary-regression R^2 via the algebraic ss_res /
    ss_tot expansions, the Lagrange multiplier LM = n*r2, and the
    dof-2 p-value 1 - chi2cdf(LM, 2) = exp(-LM/2)."""
    return [
        ("emean", "1.0e0 * se / n"),
        (
            "ss_tot",
            "1.0e0*see - 2.0e0*emean*se + emean*emean*n",
        ),
        (
            "cquad",
            "cb0*cb0*bfn + 2.0e0*cb0*cb1*bfs1 + 2.0e0*cb0*cb2*bfs2"
            " + cb1*cb1*bfq11 + 2.0e0*cb1*cb2*bfq12 + cb2*cb2*bfq22",
        ),
        (
            "ss_res",
            "1.0e0*see - 2.0e0*(cb0*se + cb1*s1e + cb2*s2e) + cquad",
        ),
        ("r2", "1.0e0 - (ss_res / ss_tot)"),
        ("lm_stat", "n * r2"),
        ("pval", "EXP(-(lm_stat)/2.0e0)"),
    ]


def breusch_pagan(
    ds: ray.data.Dataset,
    x_cols: list[str],
    y_col: str,
    batch_size: int = 32768,
) -> pa.Table:
    """Breusch-Pagan test (tools/stats.py:318) for int-valued
    predictors/response, distributed as TWO zero-shuffle passes:
    (1) exact integer normal-equation moments for the intercept OLS
    fit y ~ X; (2) per-row squared residuals quantized to 0.01
    (the engine's defined precision — sums stay exact ints < 2^53)
    feeding the auxiliary regression err ~ X, whose R^2, LM = n*R^2
    and dof-k p-value come from fixed float chains over the exact
    sums.  The 2-predictor path (this function) mirrors bit-exactly
    in SQL via the shared chains; p-value = exp(-LM/2) at dof 2.
    Returns a 1-row table (lm_q, pval_q, test_result) with the
    reference's 99%/95% CI verdict strings."""
    from rsgislib_ray.functions.mirrorchain import eval_chain

    assert len(x_cols) == 2
    x1c, x2c = x_cols

    def p1(batch: pa.Table) -> pa.Table:
        x1 = batch[x1c].to_numpy().astype(np.int64)
        x2 = batch[x2c].to_numpy().astype(np.int64)
        y = batch[y_col].to_numpy().astype(np.int64)
        return pa.table(
            {
                "n": [len(y)],
                "s1": [int(x1.sum())],
                "s2": [int(x2.sum())],
                "q11": [int(np.dot(x1, x1))],
                "q12": [int(np.dot(x1, x2))],
                "q22": [int(np.dot(x2, x2))],
                "ty": [int(y.sum())],
                "t1": [int(np.dot(x1, y))],
                "t2": [int(np.dot(x2, y))],
            }
        )

    pdf = ds.map_batches(
        p1, batch_format="pyarrow", batch_size=batch_size
    ).to_pandas()
    env = {k: int(pdf[k].sum()) for k in pdf.columns}
    mom = {k: k for k in ("n", "s1", "s2", "q11", "q12", "q22")}
    env = eval_chain(
        bp_scalar_chain("b", {**mom, "ty": "ty", "t1": "t1", "t2": "t2"}),
        env,
    )
    b0, b1, b2 = env["bb0"], env["bb1"], env["bb2"]

    def p2(batch: pa.Table) -> pa.Table:
        x1 = batch[x1c].to_numpy().astype(np.int64)
        x2 = batch[x2c].to_numpy().astype(np.int64)
        y = batch[y_col].to_numpy().astype(np.int64)
        e = y - (b0 + b1 * x1 + b2 * x2)
        eq = np.floor(e * e * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "se": [int(eq.sum())],
                "see": [int(np.dot(eq, eq))],
                "s1e": [int(np.dot(x1, eq))],
                "s2e": [int(np.dot(x2, eq))],
            }
        )

    pdf2 = ds.map_batches(
        p2, batch_format="pyarrow", batch_size=batch_size
    ).to_pandas()
    for k in pdf2.columns:
        env[k] = int(pdf2[k].sum())
    env = eval_chain(
        bp_scalar_chain(
            "c", {**mom, "ty": "se", "t1": "s1e", "t2": "s2e"}
        ),
        env,
    )
    env = eval_chain(bp_final_chain(), env)
    pval = env["pval"]
    verdict = (
        "Heteroskedasticity present at 99% CI."
        if pval < 0.01
        else (
            "Heteroskedasticity present at 95% CI."
            if pval < 0.05
            else "No significant heteroskedasticity."
        )
    )
    return pa.table(
        {
            "lm_q": [int(math.floor(env["lm_stat"] * 1e6 + 0.5))],
            "pval_q": [int(math.floor(pval * 1e6 + 0.5))],
            "test_result": [verdict],
        }
    )
