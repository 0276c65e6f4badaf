"""Whole-image statistical operators from the reference's ``imagecalc``
family, re-expressed as distributed integer partial sums:

- cross-band moments → covariance / correlation / PCA
  (``get_pca_eigen_vector`` / ``perform_image_pca``,
  /root/reference/python/rsgislib/imagecalc/__init__.py:628,686, and
  ``calc_img_correlation`` :2011),
- joint histogram → per-cell PMI / mutual information
  (``calc_img_mutual_info`` :2113),
- two-population histogram → 1-D earth-mover distance
  (``calc_img_earth_move_dist`` :2230),
- per-key trapezoid area under curve (``calc_area_under_curve`` :3005).

Exactness contract (shared with this repo's other oracle-verified
float ops): every reduction is carried in INTEGERS (int64 per batch,
arbitrary-precision Python ints across batches), and each float output
is produced by ONE fixed expression over exact integer inputs —
float-cast, a single division, sqrt or scalar-libm log — so the
distributed result is bit-identical to DuckDB evaluating the same
expression, independent of partition order.

Scale notes: moments/histogram partials are one tiny row per batch
(O(blocks) driver state, same trade as ``zonal_stats``); the PCA
projection broadcasts a d×k component matrix inside the map_batches
closure; AUC uses the double-emit trapezoid trick (each sample feeds
its left and right pair slot) so the whole op is two narrow
integer-keyed groupbys with NO per-group Python.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray.data

from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine, segment_sum


# ---------------------------------------------------------------------------
# Cross-band moments
# ---------------------------------------------------------------------------


def _pair_names(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i, d)]


def band_cross_moments(
    ds: ray.data.Dataset, cols: list[str], batch_size: int = 32768
) -> dict:
    """Exact integer moments ``n, Σx_i, Σx_i·x_j`` over int-valued band
    columns. Per-batch int64 sums (batch_size bounds the int64 head-
    room), cross-batch combine in Python ints — one partial row per
    batch on the driver."""
    d = len(cols)
    pairs = _pair_names(d)

    def partial(batch: pa.Table) -> pa.Table:
        xs = [batch[c].to_numpy().astype(np.int64) for c in cols]
        out: dict = {"n": np.array([len(xs[0])], dtype=np.int64)}
        for i in range(d):
            out[f"s{i}"] = np.array([int(xs[i].sum())], dtype=np.int64)
        for i, j in pairs:
            out[f"q{i}_{j}"] = np.array(
                [int(np.dot(xs[i], xs[j]))], dtype=np.int64
            )
        return pa.table(out)

    pdf = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size
    ).to_pandas()
    n = int(pdf["n"].sum())
    s = [int(pdf[f"s{i}"].sum()) for i in range(d)]
    q = {(i, j): int(pdf[f"q{i}_{j}"].sum()) for i, j in pairs}
    return {"n": n, "s": s, "q": q, "d": d}


def covariance_from_moments(m: dict) -> np.ndarray:
    """Sample covariance, one fixed float expression per entry:
    ``float(n·Σxy − Σx·Σy) / float(n·(n−1))`` (numerator exact in
    Python ints, both casts round-to-nearest — DuckDB HUGEINT math
    produces the identical double)."""
    n, s, q, d = m["n"], m["s"], m["q"], m["d"]
    den = float(n * (n - 1))
    cov = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            cov[i, j] = cov[j, i] = float(n * q[(i, j)] - s[i] * s[j]) / den
    return cov


def correlation_from_moments(m: dict, i: int = 0, j: int = 1) -> float:
    """Pearson r via the integer decomposition (calc_img_correlation)."""
    n, s, q = m["n"], m["s"], m["q"]
    num = float(n * q[(i, j)] - s[i] * s[j])
    vx = float(n * q[(i, i)] - s[i] * s[i])
    vy = float(n * q[(j, j)] - s[j] * s[j])
    return num / math.sqrt(vx * vy)


def jacobi_eigh_pinned(
    C: np.ndarray, sweeps: int = 8
) -> tuple[list[float], list[list[float]]]:
    """Cyclic Jacobi eigensolver for a small symmetric matrix — the
    PINNED public substitution for ``np.linalg.eigh`` (LAPACK dsyevd's
    divide-and-conquer is not transcribable; the classical Jacobi
    rotation sweep, Golub & Van Loan §8.5, is a pure scalar
    +,-,*,/,sqrt chain).  Fixed ``sweeps`` full cycles over pairs
    (p,q) in row-major order; per rotation: tau = (a_qq-a_pp)/(2
    a_pq), t = sign(tau)/(|tau|+sqrt(1+tau^2)), c = 1/sqrt(1+t^2),
    s = t*c, with the a_pq == 0 branch pinned to (c,s) = (1,0) —
    which makes every update expression an exact pass-through, so
    the SQL oracle needs no per-entry CASE.  Updates are functional
    (all new entries from old values) in the documented order; the
    exact op sequence is the oracle parity contract.  Returns
    (diag eigenvalue list, V as row-major nested list — COLUMNS are
    eigenvectors).  Quadratic convergence: 8 sweeps reach machine
    precision for d <= 8 (pytest-checked invariants)."""
    d = C.shape[0]
    A = [[float(C[i, j]) for j in range(d)] for i in range(d)]
    V = [
        [1.0 if i == j else 0.0 for j in range(d)] for i in range(d)
    ]
    for _ in range(sweeps):
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p][q]
                if apq == 0.0:
                    c, s = 1.0, 0.0
                else:
                    tau = (A[q][q] - A[p][p]) / (2.0 * apq)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (
                            (-tau) + math.sqrt(1.0 + tau * tau)
                        )
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                oldp = [A[i][p] for i in range(d)]
                oldq = [A[i][q] for i in range(d)]
                app, aqq = A[p][p], A[q][q]
                for i in range(d):
                    if i != p and i != q:
                        nip = c * oldp[i] - s * oldq[i]
                        niq = s * oldp[i] + c * oldq[i]
                        A[i][p] = A[p][i] = nip
                        A[i][q] = A[q][i] = niq
                A[p][p] = ((c * c) * app - (2.0 * c * s) * apq) + (
                    s * s
                ) * aqq
                A[q][q] = ((s * s) * app + (2.0 * c * s) * apq) + (
                    c * c
                ) * aqq
                A[p][q] = A[q][p] = 0.0
                for i in range(d):
                    vip, viq = V[i][p], V[i][q]
                    V[i][p] = c * vip - s * viq
                    V[i][q] = s * vip + c * viq
    return [A[i][i] for i in range(d)], V


def image_pca(
    ds: ray.data.Dataset,
    cols: list[str],
    k: int = 2,
    key_col: str = "cell_key",
) -> tuple[ray.data.Dataset, np.ndarray, np.ndarray]:
    """perform_image_pca: eigendecompose the (tiny, driver-side)
    covariance from exact distributed moments via the PINNED cyclic
    Jacobi (``jacobi_eigh_pinned`` — so the whole chain from integer
    moments to scores is a deterministic float sequence the SQL
    oracle replays), fix each component's sign (largest-|loading|
    entry positive, first-max ties) for determinism, then project
    every cell in a second streaming pass as ordered left folds (no
    BLAS matmul — gemm summation order is unspecified). Eigenvalues
    must be distinct (asserted; strict-greater rank ordering is the
    oracle's tie-free contract). Returns
    ``(scores_ds, components[k,d], eigenvalues[k])``."""
    m = band_cross_moments(ds, cols)
    cov = covariance_from_moments(m)
    d = len(cols)
    mean = np.array([si / m["n"] for si in m["s"]])
    evs, V = jacobi_eigh_pinned(cov)
    rks = [
        sum(1 for j in range(d) if evs[j] > evs[i]) for i in range(d)
    ]
    assert sorted(rks) == list(range(d)), "distinct eigenvalues"
    comps = np.array(
        [[V[j][rks.index(r)] for j in range(d)] for r in range(k)]
    )
    for r in range(k):
        a = int(np.argmax(np.abs(comps[r])))
        if comps[r, a] < 0:
            comps[r] = -comps[r]
    evals = np.array([evs[rks.index(r)] for r in range(k)])

    def project(batch: pa.Table) -> pa.Table:
        xs = [
            batch[c].to_numpy().astype(np.float64) for c in cols
        ]
        out = {key_col: batch[key_col]}
        for r in range(k):
            acc = (xs[0] - mean[0]) * comps[r, 0]
            for j in range(1, d):
                acc = acc + (xs[j] - mean[j]) * comps[r, j]
            out[f"pc{r + 1}"] = acc
        return pa.table(out)

    return (
        ds.map_batches(project, batch_format="pyarrow", batch_size=65536),
        comps,
        evals,
    )


# ---------------------------------------------------------------------------
# Joint histogram / PMI / mutual information
# ---------------------------------------------------------------------------


def joint_histogram_pmi(
    ds: ray.data.Dataset,
    col_a: str,
    col_b: str,
    card_a: int,
    card_b: int,
) -> pa.Table:
    """calc_img_mutual_info: distributed joint histogram (per-batch 2-D
    bincount partials, one small row-set per batch) + per-cell PMI in
    micro-nats: ``floor(1e6 · ln(float(n·c_ij) / float(r_i·c_j)))`` —
    scalar-libm log over exact integer products, DuckDB-parity."""
    nbins = card_a * card_b

    def partial(batch: pa.Table) -> pa.Table:
        a = batch[col_a].to_numpy().astype(np.int64)
        b = batch[col_b].to_numpy().astype(np.int64)
        c = np.bincount(a * card_b + b, minlength=nbins)
        nz = np.flatnonzero(c)
        return pa.table(
            {"code": nz.astype(np.int64), "cnt": c[nz].astype(np.int64)}
        )

    agg = combine(
        map_blocks(ds, partial),
        "code",
        ["cnt"],
    )
    code = agg["code"].to_numpy()
    cnt = agg["cnt"].to_numpy()
    va, vb = code // card_b, code % card_b
    ra = np.bincount(va, weights=cnt, minlength=card_a).astype(np.int64)
    cb = np.bincount(vb, weights=cnt, minlength=card_b).astype(np.int64)
    n = int(cnt.sum())
    pmi = np.empty(len(code), dtype=np.int64)
    for t in range(len(code)):
        arg = float(n * int(cnt[t])) / float(int(ra[va[t]]) * int(cb[vb[t]]))
        pmi[t] = math.floor(1e6 * math.log(arg))
    return pa.table(
        {
            "val_a": va.astype(np.int64),
            "val_b": vb.astype(np.int64),
            "cnt": cnt,
            "pmi_micro": pmi,
        }
    )


def mutual_information_nats(pmi_table: pa.Table) -> float:
    """MI ≈ Σ (c_ij/n)·PMI_ij from the micro-nat table (test helper)."""
    cnt = pmi_table["cnt"].to_numpy()
    pmi = pmi_table["pmi_micro"].to_numpy()
    return float((cnt * pmi).sum()) / (cnt.sum() * 1e6)


# ---------------------------------------------------------------------------
# Two-population histogram EMD
# ---------------------------------------------------------------------------


def histogram_emd(
    ds: ray.data.Dataset,
    value_col: str,
    split_col: str,
    group_a,
    group_b,
    card: int,
) -> tuple[pa.Table, float]:
    """calc_img_earth_move_dist for two unit-spaced integer histograms:
    EMD(A,B) = Σ_v |CDF_A(v) − CDF_B(v)|. With counts kept integral the
    per-bin term is ``|cum_a·n_b − cum_b·n_a|`` (exact), and the final
    scalar is ONE float division ``Σterms / float(n_a·n_b)``."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy().astype(np.int64)
        s = batch[split_col].to_numpy(zero_copy_only=False)
        rows = []
        for grp, name in ((group_a, 0), (group_b, 1)):
            c = np.bincount(v[s == grp], minlength=card)
            nz = np.flatnonzero(c)
            rows.append(
                pa.table(
                    {
                        "which": np.full(len(nz), name, dtype=np.int64),
                        "val": nz.astype(np.int64),
                        "cnt": c[nz].astype(np.int64),
                    }
                )
            )
        return pa.concat_tables(rows)

    agg = combine(
        map_blocks(ds, partial),
        ["which", "val"],
        ["cnt"],
    )
    which, val, cnt = (agg[c].to_numpy() for c in ("which", "val", "cnt"))
    ca = np.zeros(card, dtype=np.int64)
    cb = np.zeros(card, dtype=np.int64)
    ca[val[which == 0]] = cnt[which == 0]
    cb[val[which == 1]] = cnt[which == 1]
    na, nb = int(ca.sum()), int(cb.sum())
    cum_a = np.cumsum(ca)
    cum_b = np.cumsum(cb)
    diff = np.abs(cum_a * nb - cum_b * na)
    table = pa.table(
        {
            "val": np.arange(card, dtype=np.int64),
            "cum_a": cum_a,
            "cum_b": cum_b,
            "diff_i": diff,
        }
    )
    emd = float(int(diff[:-1].sum())) / float(na * nb)
    return table, emd


# ---------------------------------------------------------------------------
# Per-key trapezoid AUC
# ---------------------------------------------------------------------------


def curve_auc(
    ds: ray.data.Dataset,
    key_col: str,
    x_col: str,
    y_col: str,
    x_stride: int = 16,
) -> ray.data.Dataset:
    """calc_area_under_curve per key on the unit x grid: 2·AUC = Σ over
    consecutive samples (y_x + y_{x+1}). Double-emit: each sample lands
    in pair slot x as the RIGHT end and slot x+1 as the LEFT end, with
    per-side sums kept separate; a slot is a trapezoid iff BOTH sides
    are present (grid gaps and curve endpoints drop out), and duplicate
    (key, x) samples fold into the series value y = Σ duplicates
    without a separate pre-aggregation shuffle. Two narrow int
    groupbys, zero per-group Python. ``x_stride`` must exceed the max
    x+1 (pair ids pack as key·stride + x)."""

    def emit(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy().astype(np.int64)
        x = batch[x_col].to_numpy().astype(np.int64)
        y = batch[y_col].to_numpy().astype(np.int64)
        zero = np.zeros(len(k), dtype=np.int64)
        one = np.ones(len(k), dtype=np.int64)
        return pa.table(
            {
                "slot": np.concatenate(
                    [k * x_stride + x, k * x_stride + x + 1]
                ),
                "yr": np.concatenate([y, zero]),
                "cr": np.concatenate([one, zero]),
                "yl": np.concatenate([zero, y]),
                "cl": np.concatenate([zero, one]),
            }
        )

    slots = ds.map_batches(emit, batch_format="pyarrow", batch_size=65536)
    pairs = segment_sum(slots, "slot", ["yr", "cr", "yl", "cl"])

    def to_key(batch: pa.Table) -> pa.Table:
        slot = batch["slot"].to_numpy()
        full = (batch["cr"].to_numpy() > 0) & (batch["cl"].to_numpy() > 0)
        y2 = (batch["yr"].to_numpy() + batch["yl"].to_numpy()).astype(np.int64)
        return pa.table(
            {"key": (slot[full] // x_stride).astype(np.int64), "area2": y2[full]}
        )

    keyed = pairs.map_batches(to_key, batch_format="pyarrow")
    out = segment_sum(keyed, "key", ["area2"])
    return out.map_batches(
        lambda b: b.rename_columns(["key", "auc2"]), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Split-window Otsu thresholds
# ---------------------------------------------------------------------------


def split_window_otsu(
    ds: ray.data.Dataset,
    tile_col: str,
    value_col: str,
    card: int,
    min_n_vals: int = 1,
) -> pa.Table:
    """calc_split_win_thresholds with THRES_METH_OTSU
    (/root/reference/python/rsgislib/imagecalc/__init__.py:1783): one
    Otsu threshold per window over integer pixel values in
    ``[0, card)``. Per-batch (tile, value) bincount partials stream to
    an O(tiles·card) driver histogram; the Otsu argmax is computed per
    tile from EXACT integers — between-class criterion
    ``float(N²) / float(W0·W1)`` with ``N = S0·W − S·W0`` — so the
    threshold choice (ties → lowest value) is bit-identical to the SQL
    window-function oracle."""

    def partial(batch: pa.Table) -> pa.Table:
        t = batch[tile_col].to_numpy().astype(np.int64)
        v = batch[value_col].to_numpy().astype(np.int64)
        code = t * card + v
        c = np.bincount(code)
        nz = np.flatnonzero(c)
        return pa.table(
            {"code": nz.astype(np.int64), "cnt": c[nz].astype(np.int64)}
        )

    agg = combine(
        map_blocks(ds, partial),
        "code",
        ["cnt"],
    )
    code, cnt = agg["code"].to_numpy(), agg["cnt"].to_numpy()
    tile = code // card
    out_tile, out_thr, out_crit, out_n = [], [], [], []
    for tid in np.unique(tile):
        hist = np.zeros(card, dtype=np.int64)
        hist[code[tile == tid] % card] = cnt[tile == tid]
        w = int(hist.sum())
        if w < min_n_vals:
            continue
        s = int(np.dot(hist, np.arange(card)))
        best_crit, best_t = -1.0, -1
        w0 = s0 = 0
        for t in range(card):
            w0 += int(hist[t])
            s0 += int(hist[t]) * t
            if w0 == 0 or w0 == w:
                continue
            num = s0 * w - s * w0
            crit = float(num * num) / float(w0 * (w - w0))
            if crit > best_crit:  # strict: ties keep the LOWEST t
                best_crit, best_t = crit, t
        if best_t >= 0:
            out_tile.append(int(tid))
            out_thr.append(best_t)
            out_crit.append(best_crit)
            out_n.append(w)
    return pa.table(
        {
            "tile_id": np.array(out_tile, dtype=np.int64),
            "threshold": np.array(out_thr, dtype=np.int64),
            "crit": np.array(out_crit, dtype=np.float64),
            "n_vals": np.array(out_n, dtype=np.int64),
        }
    )


# ---------------------------------------------------------------------------
# Per-pixel percentiles across images
# ---------------------------------------------------------------------------


def pixel_percentiles(
    ds: ray.data.Dataset, cols: list[str], percentiles: list[float]
) -> ray.data.Dataset:
    """calc_imgs_pxl_percentiles (imagecalc/__init__.py:1161): per-pixel
    rank-select across k co-registered images (the k band columns),
    lower-interpolation — index ``floor(p/100 · (k−1))`` into the
    row-sorted values. Pure row-wise map_batches, zero shuffles."""
    k = len(cols)
    idxs = [int(math.floor(p / 100.0 * (k - 1))) for p in percentiles]

    def f(batch: pa.Table) -> pa.Table:
        x = np.stack([batch[c].to_numpy().astype(np.int64) for c in cols], 1)
        x.sort(axis=1)
        out = {"pixel_id": batch["pixel_id"]}
        for p, i in zip(percentiles, idxs):
            out[f"p{int(p)}"] = x[:, i]
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


# ---------------------------------------------------------------------------
# Minimum Noise Fraction (noise-adjusted PCA)
# ---------------------------------------------------------------------------


def neighbor_differences(
    ds: ray.data.Dataset,
    cols: list[str],
    row_col: str = "row",
    col_col: str = "col",
    pixel_col: str = "pixel_id",
    width: int | None = None,
) -> ray.data.Dataset:
    """Per-band horizontal first differences d(p) = x(r,c+1) − x(r,c)
    — the MNF noise estimator's input (perform_image_mnf,
    /root/reference/python/rsgislib/imagecalc/__init__.py:746).
    Double-emit into pair slots keyed by the LEFT pixel id: the left
    member contributes −x, the right member +x; slots with both sides
    present sum to the exact difference. One ``segment_sum`` shuffle,
    no raster-ordering assumption on the input blocks."""

    def emit(batch: pa.Table) -> pa.Table:
        p = batch[pixel_col].to_numpy().astype(np.int64)
        c = batch[col_col].to_numpy().astype(np.int64)
        if width is not None:
            left_ok = c < width - 1
        else:
            left_ok = np.ones(len(c), dtype=bool)
        right_ok = c > 0
        cols_out = {
            "slot": np.concatenate([p[left_ok], (p - 1)[right_ok]]),
            "cl": np.concatenate(
                [
                    np.ones(int(left_ok.sum()), dtype=np.int64),
                    np.zeros(int(right_ok.sum()), dtype=np.int64),
                ]
            ),
            "cr": np.concatenate(
                [
                    np.zeros(int(left_ok.sum()), dtype=np.int64),
                    np.ones(int(right_ok.sum()), dtype=np.int64),
                ]
            ),
        }
        for k, cname in enumerate(cols):
            x = batch[cname].to_numpy().astype(np.int64)
            cols_out[f"d{k}"] = np.concatenate([-x[left_ok], x[right_ok]])
        return pa.table(cols_out)

    dcols = [f"d{k}" for k in range(len(cols))] + ["cl", "cr"]
    summed = segment_sum(
        ds.map_batches(emit, batch_format="pyarrow", batch_size=65536),
        "slot",
        dcols,
    )

    def finish(batch: pa.Table) -> pa.Table:
        ok = (batch["cl"].to_numpy() > 0) & (batch["cr"].to_numpy() > 0)
        out = {"pixel_id": batch["slot"].to_numpy()[ok]}
        for k in range(len(cols)):
            out[f"d{k}"] = batch[f"d{k}"].to_numpy()[ok]
        return pa.table(out)

    return summed.map_batches(finish, batch_format="pyarrow")


def image_mnf(
    ds: ray.data.Dataset,
    cols: list[str],
    k: int = 2,
    key_col: str = "pixel_id",
    col_col: str = "col",
    width: int | None = None,
) -> tuple[ray.data.Dataset, np.ndarray, np.ndarray]:
    """perform_image_mnf (imagecalc/__init__.py:746): noise covariance
    from horizontal neighbor differences, signal covariance from the
    raw bands (both via exact distributed integer moments), then the
    generalized eigenproblem Σ_S v = λ Σ_N v solved on the driver
    (noise-whitening: eigh of N^{-1/2} Σ_S N^{-1/2}) and the projection
    streamed over every pixel. Components are sign-fixed; returns
    ``(scores_ds, components[k,d], snr_eigenvalues[k])``."""
    d = len(cols)
    diffs = neighbor_differences(
        ds, cols, col_col=col_col, pixel_col=key_col, width=width
    )
    mn = band_cross_moments(diffs, [f"d{i}" for i in range(d)])
    ms = band_cross_moments(ds, cols)
    cov_n = covariance_from_moments(mn)
    cov_s = covariance_from_moments(ms)
    # PINNED chain (the image_pca Jacobi substitution, plus ordered
    # folds replacing every BLAS product — gemm summation order is
    # unspecified; the SQL oracle replays this sequence verbatim):
    # eigh(N) -> N^(-1/2) -> whitened signal covariance -> eigh ->
    # back-transformed directions.
    wn, vn = jacobi_eigh_pinned(cov_n)
    invs = [1.0 / math.sqrt(wn[t]) for t in range(d)]
    ih = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            acc = (vn[i][0] * invs[0]) * vn[j][0]
            for t in range(1, d):
                acc = acc + (vn[i][t] * invs[t]) * vn[j][t]
            ih[i][j] = ih[j][i] = acc
    mw = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            acc = (ih[i][0] * float(cov_s[0, 0])) * ih[0][j]
            first = True
            for t in range(d):
                for u in range(d):
                    if first:
                        first = False
                        continue
                    acc = acc + (
                        ih[i][t] * float(cov_s[t, u])
                    ) * ih[u][j]
            mw[i, j] = mw[j, i] = acc
    w2, v2 = jacobi_eigh_pinned(mw)
    rks = [
        sum(1 for j in range(d) if w2[j] > w2[i]) for i in range(d)
    ]
    assert sorted(rks) == list(range(d)), "distinct SNR eigenvalues"
    comps = np.empty((k, d))
    for r in range(k):
        ir = rks.index(r)
        for j in range(d):
            acc = ih[j][0] * v2[0][ir]
            for t in range(1, d):
                acc = acc + ih[j][t] * v2[t][ir]
            comps[r, j] = acc
    for r in range(k):
        a = int(np.argmax(np.abs(comps[r])))
        if comps[r, a] < 0:
            comps[r] = -comps[r]
    evals = np.array([w2[rks.index(r)] for r in range(k)])
    mean = np.array([si / ms["n"] for si in ms["s"]])

    def project(batch: pa.Table) -> pa.Table:
        xs = [batch[c].to_numpy().astype(np.float64) for c in cols]
        out = {key_col: batch[key_col]}
        for r in range(k):
            acc = (xs[0] - mean[0]) * comps[r, 0]
            for j in range(1, d):
                acc = acc + (xs[j] - mean[j]) * comps[r, j]
            out[f"mnf{r + 1}"] = acc
        return pa.table(out)

    return (
        ds.map_batches(project, batch_format="pyarrow", batch_size=65536),
        comps,
        evals,
    )


# ---------------------------------------------------------------------------
# Global histogram thresholding (tools/stats.py family)
# ---------------------------------------------------------------------------


def global_histogram(
    ds: ray.data.Dataset, col: str, card: int
) -> np.ndarray:
    """Exact global integer-value histogram of ``col`` (values in
    [0, card)): per-batch bincount partials, tiny driver combine —
    the shared input of the threshold family below."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy().astype(np.int64)
        cnt = np.bincount(v, minlength=card)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {"v": nz.astype(np.int64), "n_partial": cnt[nz]}
        )

    agg = combine(
        map_blocks(ds, partial),
        "v",
        ["n_partial"],
    )
    hist = np.zeros(card, dtype=np.int64)
    hist[agg["v"].to_numpy()] = agg["n_partial"].to_numpy()
    return hist


def histogram_thresholds(hist: np.ndarray) -> dict:
    """Thresholds from an exact integer-value histogram, mirroring the
    reference's skimage-based formulas over OUR binning (one unit-width
    bin per integer value between the observed min and max — the
    reference bins with the Freedman-Diaconis rule, so thresholds agree
    in semantics, not bit-for-bit with float32 binning):

    - ``otsu``  — between-class-variance argmax
      (tools/stats.py:calc_otsu_threshold), exact integer criterion
      comparison, tie -> lowest value;
    - ``yen``   — Yen (1995) criterion argmax (:684-720);
    - ``isodata`` — Ridler-Calvard inter-means fixed point (:722-770),
      vectorized fixed-point test, first qualifying bin;
    - ``li``    — Li & Lee minimum-cross-entropy iteration (:839-905),
      histogram-weighted means, tolerance = half the minimum gap
      between observed values;
    - ``li_cross_entropy`` — the Li-Lee objective at the Li threshold
      (calc_hist_cross_entropy, :800-836).

    Everything is deterministic driver math over the exact histogram,
    so results are order- and partitioning-independent."""
    nz = np.flatnonzero(hist)
    vmin, vmax = int(nz[0]), int(nz[-1])
    vals = np.arange(vmin, vmax + 1, dtype=np.int64)
    h = hist[vmin : vmax + 1].astype(np.int64)
    n = int(h.sum())
    p = h / n

    # --- otsu (exact integer between-class criterion) ---
    w0 = np.cumsum(h)[:-1]
    w1 = n - w0
    s0 = np.cumsum(h * vals)[:-1]
    s1 = int((h * vals).sum()) - s0
    # maximize w1*s0 - w0*s1 squared over w0*w1 in exact ints
    num = (w1 * s0 - w0 * s1).astype(object) ** 2
    den = (w0 * w1).astype(object)
    best, besti = None, 0
    for i in range(len(num)):
        if den[i] == 0:
            continue
        # compare num[i]/den[i] > best via cross-multiplication
        if best is None or num[i] * best[1] > best[0] * den[i]:
            best, besti = (num[i], den[i]), i
    otsu = float(vals[besti])

    # --- yen ---
    p1 = np.cumsum(p)
    p1_sq = np.cumsum(p**2)
    p2_sq = np.cumsum(p[::-1] ** 2)[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = np.log(
            ((p1_sq[:-1] * p2_sq[1:]) ** -1) * (p1[:-1] * (1.0 - p1[:-1])) ** 2
        )
    yen = float(vals[int(np.nanargmax(crit))])

    # --- isodata (vectorized fixed-point test, skimage semantics) ---
    csuml = np.cumsum(p)
    csumh = csuml[-1] - csuml
    csum_intensity = np.cumsum(p * vals)
    lower = csum_intensity[:-1] / csuml[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        higher = (csum_intensity[-1] - csum_intensity[:-1]) / csumh[:-1]
    all_mean = (lower + higher) / 2.0
    distances = all_mean - vals[:-1]
    ok = (distances >= 0) & (distances < 1.0)
    isodata = float(vals[:-1][np.flatnonzero(ok)[0]])

    # --- li (minimum cross entropy, histogram-weighted means) ---
    offset = 0.0
    li_vals = vals.astype(np.float64)
    if vmin < 1:
        offset = abs(vmin) + 1.0
        li_vals = li_vals + offset
    gaps = np.diff(np.flatnonzero(h))
    tolerance = (gaps.min() if len(gaps) else 1.0) / 2.0
    t_next = float((h * li_vals).sum() / n)
    t_curr = -2.0 * tolerance
    cs_n = np.cumsum(h)
    cs_s = np.cumsum(h * li_vals)
    while abs(t_next - t_curr) > tolerance:
        t_curr = t_next
        # foreground = values > t_curr (searchsorted on the value axis)
        k = int(np.searchsorted(li_vals, t_curr, side="right"))
        n_back, s_back = int(cs_n[k - 1]) if k else 0, (
            float(cs_s[k - 1]) if k else 0.0
        )
        n_fore = n - n_back
        s_fore = float(cs_s[-1]) - s_back
        mean_fore = s_fore / n_fore
        mean_back = s_back / n_back
        t_next = (mean_back - mean_fore) / (
            np.log(mean_back) - np.log(mean_fore)
        )
    li = float(t_next - offset)

    # --- cross-entropy objective at the li threshold (:800-836) ---
    t = int(np.flatnonzero(li_vals > li + offset)[0])
    m0a, m0b = p[:t].sum(), p[t:].sum()
    m1a = float((p[:t] * li_vals[:t]).sum())
    m1b = float((p[t:] * li_vals[t:]).sum())
    nu = -m1a * np.log(m1a / m0a) - m1b * np.log(m1b / m0b)

    return {
        "otsu": otsu,
        "yen": yen,
        "isodata": isodata,
        "li": li,
        "li_cross_entropy": float(nu),
    }


def sym3_eig_closed(A: np.ndarray):
    """Eigenvalues (descending) and eigenvectors of a symmetric 3x3
    via the trigonometric closed form (Smith 1961): the same scalar
    expression chain a SQL mirror can evaluate. Eigenvectors come from
    the cross product of the first two rows of (A - lambda I)
    (requires those rows independent — generic for covariance
    matrices), normalized and sign-fixed (largest |component|
    positive). Returns (lams[3], vecs[3,3] rows)."""
    a, b, c = A[0, 0], A[1, 1], A[2, 2]
    d, e, f = A[0, 1], A[0, 2], A[1, 2]
    p1 = d * d + e * e + f * f
    q = (a + b + c) / 3.0
    p2 = (a - q) * (a - q) + (b - q) * (b - q) + (c - q) * (c - q) + 2.0 * p1
    if p2 == 0.0:
        # exactly isotropic (A = q*I, e.g. constant or perfectly
        # uncorrelated equal-variance bands): every direction is an
        # eigenvector; return the diagonal and identity axes instead
        # of dividing by p=0 and poisoning PCA/MNF scores with NaNs
        return (
            np.array([q, q, q], dtype=np.float64),
            np.eye(3, dtype=np.float64),
        )
    p = np.sqrt(p2 / 6.0)
    b00, b11, b22 = (a - q) / p, (b - q) / p, (c - q) / p
    b01, b02, b12 = d / p, e / p, f / p
    detB = (
        b00 * (b11 * b22 - b12 * b12)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    r = detB / 2.0
    r = min(1.0, max(-1.0, r))
    phi = np.arccos(r) / 3.0
    l1 = q + 2.0 * p * np.cos(phi)
    l3 = q + 2.0 * p * np.cos(phi + 2.0943951023931953)  # + 2*pi/3
    l2 = 3.0 * q - l1 - l3
    lams = [l1, l2, l3]
    vecs = []
    for lk in lams:
        r0 = np.array([a - lk, d, e])
        r1 = np.array([d, b - lk, f])
        v = np.array(
            [
                r0[1] * r1[2] - r0[2] * r1[1],
                r0[2] * r1[0] - r0[0] * r1[2],
                r0[0] * r1[1] - r0[1] * r1[0],
            ]
        )
        L = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        v = v / L
        dom = v[int(np.argmax(np.abs(v)))]
        if dom < 0:
            v = -v
        vecs.append(v)
    return np.array(lams), np.vstack(vecs)


def mnf3_closed(S: np.ndarray, N: np.ndarray):
    """Closed-form 3-band MNF directions: Cholesky-whiten the noise
    (closed-form 3x3 L and L^-1), closed-form symmetric eigen of the
    whitened signal (sym3_eig_closed), back-transform comps = W^T u,
    sign-fix in the original space. Every operation is a scalar
    expression chain a SQL mirror can evaluate. Returns
    (snr_eigenvalues[3] desc, comps[3,3] rows, noise-normalized
    v' N v = 1)."""
    n00, n11, n22 = N[0, 0], N[1, 1], N[2, 2]
    n01, n02, n12 = N[0, 1], N[0, 2], N[1, 2]
    l00 = np.sqrt(n00)
    l10 = n01 / l00
    l20 = n02 / l00
    l11 = np.sqrt(n11 - l10 * l10)
    l21 = (n12 - l20 * l10) / l11
    l22 = np.sqrt(n22 - l20 * l20 - l21 * l21)
    w00 = 1.0 / l00
    w11 = 1.0 / l11
    w22 = 1.0 / l22
    w10 = -l10 / (l00 * l11)
    w21 = -l21 / (l11 * l22)
    w20 = (l10 * l21 - l20 * l11) / (l00 * l11 * l22)
    W = np.array([[w00, 0.0, 0.0], [w10, w11, 0.0], [w20, w21, w22]])
    T = W @ S
    Sp = T @ W.T
    # exact symmetrization: T W^T is symmetric analytically; enforce it
    # so sym3_eig_closed sees identical off-diagonals on both sides
    Sp = np.array(
        [
            [Sp[0, 0], Sp[0, 1], Sp[0, 2]],
            [Sp[0, 1], Sp[1, 1], Sp[1, 2]],
            [Sp[0, 2], Sp[1, 2], Sp[2, 2]],
        ]
    )
    lams, U = sym3_eig_closed(Sp)
    comps = U @ W  # rows: comps_k = W^T u_k
    for k in range(3):
        dom = comps[k, int(np.argmax(np.abs(comps[k])))]
        if dom < 0:
            comps[k] = -comps[k]
    return lams, comps


def percentile_linear_from_hist(
    hist: np.ndarray, p: float
) -> float:
    """numpy-default linear-interpolation percentile from an exact
    integer-value histogram (reference tools/stats.py uses
    numpy.percentile throughout — cqv_threshold:87,
    get_nbins_histogram:609): h = (n-1)*p/100, lerp between the
    floor(h)-th and (floor(h)+1)-th order statistics. The chain
    (one multiply for h, one lerp) is the SQL parity contract."""
    n = int(hist.sum())
    if n == 0:
        raise ValueError("empty histogram")
    h = (n - 1) * (p / 100.0)
    k = int(np.floor(h))
    frac = h - np.floor(h)
    cum = np.cumsum(hist)
    vk = float(np.searchsorted(cum, k + 1))
    vk1 = float(np.searchsorted(cum, min(k + 2, n)))
    return vk + (vk1 - vk) * frac


def cqv_from_hists(
    hists: dict[str, np.ndarray],
    low: float = 0.25,
    high: float = 0.75,
) -> "pa.Table":
    """Quartile coefficient of variation per column
    (tools/stats.py:87 cqv_threshold): cqv = (q3-q1)/(q3+q1) with
    numpy-lerp quartiles; keep = low <= cqv <= high. One row per
    column, insertion order."""
    cols, cqvs, keeps = [], [], []
    for c, hist in hists.items():
        q1 = percentile_linear_from_hist(hist, 25.0)
        q3 = percentile_linear_from_hist(hist, 75.0)
        cqv = (q3 - q1) / (q3 + q1)
        cols.append(c)
        cqvs.append(cqv)
        keeps.append(bool((cqv >= low) & (cqv <= high)))
    return pa.table(
        {
            "col": pa.array(cols, pa.string()),
            "cqv": pa.array(cqvs, pa.float64()),
            "keep": pa.array(keeps, pa.bool_()),
        }
    )


def freedman_diaconis_bins(
    hist: np.ndarray,
) -> tuple[int, float]:
    """Histogram bin count + width (tools/stats.py:609
    get_nbins_histogram): bin_width = 2*IQR*n^(-1/3) with numpy-lerp
    quartiles; n_bins = int((max-min)/width) + 2."""
    n = int(hist.sum())
    q1 = percentile_linear_from_hist(hist, 25.0)
    q3 = percentile_linear_from_hist(hist, 75.0)
    iqr = q3 - q1
    width = 2.0 * iqr * float(n) ** (-1.0 / 3.0)
    nz = np.flatnonzero(hist)
    vmin, vmax = float(nz[0]), float(nz[-1])
    return int((vmax - vmin) / width) + 2, float(width)


def kurt_skew_threshold(
    hist: np.ndarray,
    max_val: float,
    min_val: float,
    low_thres: bool = True,
    contamination: float = 10.0,
    only_kurtosis: bool = False,
) -> dict:
    """calc_kurt_skew_threshold (tools/stats.py:905) with the
    stochastic ``scipy.optimize.dual_annealing`` search replaced by a
    DETERMINISTIC exhaustive sweep of the integer threshold lattice —
    the objective ``|kurtosis| + |skewness|`` of the ``data > x``
    (resp. ``< x``) subset is piecewise-constant between data values,
    so the lattice argmin is the global optimum the annealer converges
    toward (``init_thres`` only seeds the annealer and cannot change
    the optimum; dropped). The contamination-percentile preamble
    mirrors the reference exactly (numpy-lerp percentile from the
    exact histogram, then the min/max adjustment rules).

    All statistics come from suffix (resp. prefix) sums of the exact
    integer histogram: Fisher kurtosis ``m4/m2² − 3`` and skewness
    ``m3/(m2·√m2)`` (algebraically ``m3/m2^1.5``; written with sqrt so
    numpy and DuckDB agree bit-for-bit) over fixed central-moment
    chains. Candidates need n ≥ 2 and m2 > 0. Ties → lowest
    threshold. Returns {"thr", "n", "kurt", "skew", "obj"}."""
    card = len(hist)
    vals = np.arange(card, dtype=np.int64)
    n_tot = int(hist.sum())
    # numpy-lerp percentile from the histogram
    p = contamination / 100.0 if low_thres else (100.0 - contamination) / 100.0
    pos = float(n_tot - 1) * p
    k = int(math.floor(pos))
    cum = np.cumsum(hist)
    vk = float(int(np.searchsorted(cum, k + 1)))
    vk1 = float(int(np.searchsorted(cum, min(k + 1, n_tot - 1) + 1)))
    pct = vk + (vk1 - vk) * (pos - float(k))
    data_min = float(int(np.flatnonzero(hist)[0]))
    data_max = float(int(np.flatnonzero(hist)[-1]))
    if low_thres:
        if pct < max_val:
            max_val = pct
        if min_val >= max_val:
            min_val = data_min
    else:
        if pct > min_val:
            min_val = pct
        if max_val <= min_val:
            max_val = data_max
    if min_val >= max_val:
        raise ValueError("degenerate threshold range")
    lo = int(math.ceil(min_val))
    hi = int(math.floor(max_val))
    # suffix/prefix power sums
    h = hist.astype(object)
    pw = [h, h * vals, h * vals**2, h * vals**3, h * vals**4]
    if low_thres:
        sums = [np.cumsum(w[::-1])[::-1] for w in pw]  # Σ over v >= x
        pick = lambda s, x: int(s[x + 1]) if x + 1 < card else 0  # v > x
    else:
        sums = [np.cumsum(w) for w in pw]
        pick = lambda s, x: int(s[x - 1]) if x >= 1 else 0  # v < x
    best = None
    for x in range(lo, hi + 1):
        n = pick(sums[0], x)
        if n < 2:
            continue
        fn = float(n)
        s1, s2, s3, s4 = (float(pick(sums[i], x)) for i in range(1, 5))
        mu = s1 / fn
        r2 = s2 / fn
        r3 = s3 / fn
        r4 = s4 / fn
        m2 = r2 - mu * mu
        if not m2 > 0.0:
            continue
        m3 = (r3 - 3.0 * mu * r2) + 2.0 * ((mu * mu) * mu)
        m4 = ((r4 - 4.0 * mu * r3) + 6.0 * ((mu * mu) * r2)) - 3.0 * (
            (mu * mu) * (mu * mu)
        )
        kurt = m4 / (m2 * m2) - 3.0
        skew = m3 / (m2 * math.sqrt(m2))
        obj = abs(kurt) if only_kurtosis else abs(kurt) + abs(skew)
        key = (obj, x)
        if best is None or key < best[0]:
            best = (key, n, kurt, skew)
    if best is None:
        raise ValueError("no valid threshold candidate")
    (obj, x), n, kurt, skew = best
    return {"thr": x, "n": n, "kurt": kurt, "skew": skew, "obj": obj}


def ppi_counts(
    ds: "ray.data.Dataset",
    value_cols: list[str],
    r_mat: np.ndarray,
    *,
    lthres: float = 0.0,
    uthres: float = 0.0,
    key_col: str = "pix",
) -> pa.Table:
    """Pixel purity index (specunmixing/__init__.py:1373 ``calc_ppi``,
    Boardman 1995): mean-center the band matrix, project onto
    ``r_mat``'s random unit-cube directions (the reference's
    ``numpy.random.rand(d) - 0.5`` replaced by a caller-supplied
    pinned matrix — splitmix64-derived in the contract query), and
    count per pixel how often it is extreme. ``lthres``/``uthres`` = 0
    counts only the argmin/argmax pixel, ties by (s, pixel id)
    lexicographic (the reference's first-index rule under
    pixel-id-ordered rows); > 0 counts every pixel within the
    threshold of the extreme. Three passes, all map_batches partials:
    exact-int64 band sums -> broadcast means; per-iteration
    (min, argmin, max, argmax) partials (bounded: n_iters rows per
    batch) -> broadcast extremes; per-pixel counting. The projection
    is the pinned left-associated chain ((c0*r0 + c1*r1) + ...) the
    SQL oracle replays."""
    d = len(value_cols)
    n_iters = r_mat.shape[0]
    assert r_mat.shape == (n_iters, d)

    def sums(batch: pa.Table) -> pa.Table:
        out = {"n": np.array([batch.num_rows], np.int64)}
        for j, c in enumerate(value_cols):
            out[f"s{j}"] = np.array(
                [batch[c].to_numpy().sum()], np.int64
            )
        return pa.table(out)

    part = ds.map_batches(
        sums, batch_format="pyarrow", batch_size=65536
    ).to_arrow_refs()
    import ray as _ray

    ptbl = pa.concat_tables(_ray.get(part))
    n = int(ptbl["n"].to_numpy().sum())
    means = np.array(
        [
            float(ptbl[f"s{j}"].to_numpy().sum()) / n
            for j in range(d)
        ]
    )

    def proj(batch: pa.Table) -> np.ndarray:
        p = batch.num_rows
        acc = None
        for j, c in enumerate(value_cols):
            cj = batch[c].to_numpy().astype(np.float64) - means[j]
            term = cj[:, None] * r_mat[None, :, j]
            acc = term if acc is None else acc + term
        return acc          # (p, n_iters)

    def extremes(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "it": pa.array([], pa.int64()),
                    "smin": pa.array([], pa.float64()),
                    "pmin": pa.array([], pa.int64()),
                    "smax": pa.array([], pa.float64()),
                    "pmax": pa.array([], pa.int64()),
                }
            )
        s = proj(batch)
        pid = batch[key_col].to_numpy().astype(np.int64)
        o_min = np.lexsort((pid[:, None].repeat(n_iters, 1), s),
                           axis=0)[0]
        o_max = np.lexsort(
            (pid[:, None].repeat(n_iters, 1), -s), axis=0
        )[0]
        idx = np.arange(n_iters)
        return pa.table(
            {
                "it": idx,
                "smin": s[o_min, idx],
                "pmin": pid[o_min],
                "smax": s[o_max, idx],
                "pmax": pid[o_max],
            }
        )

    etbl = pa.concat_tables(
        _ray.get(
            ds.map_batches(
                extremes, batch_format="pyarrow", batch_size=65536
            ).to_arrow_refs()
        )
    )
    ed = etbl.to_pandas()
    smin = np.full(n_iters, np.inf)
    pmin = np.full(n_iters, np.iinfo(np.int64).max)
    smax = np.full(n_iters, -np.inf)
    pmax = np.full(n_iters, np.iinfo(np.int64).max)
    for it, a, pa_, b, pb in zip(
        ed["it"], ed["smin"], ed["pmin"], ed["smax"], ed["pmax"]
    ):
        if (a, pa_) < (smin[it], pmin[it]):
            smin[it], pmin[it] = a, pa_
        if (-b, pb) < (-smax[it], pmax[it]):
            smax[it], pmax[it] = b, pb

    def count(batch: pa.Table) -> pa.Table:
        s = proj(batch)
        pid = batch[key_col].to_numpy().astype(np.int64)
        if lthres == 0.0:
            lo = (pid[:, None] == pmin[None, :]).sum(axis=1)
        else:
            lo = (s <= (smin + lthres)[None, :]).sum(axis=1)
        if uthres == 0.0:
            hi = (pid[:, None] == pmax[None, :]).sum(axis=1)
        else:
            hi = (s >= (smax - uthres)[None, :]).sum(axis=1)
        return pa.table(
            {key_col: pid, "ppi": (lo + hi).astype(np.int64)}
        )

    return ds.map_batches(
        count, batch_format="pyarrow", batch_size=65536
    )


def nnls_unmix(
    ds: "ray.data.Dataset",
    value_cols: list[str],
    E: np.ndarray,
    *,
    weight: int | None = None,
    key_col: str = "pix",
):
    """Per-pixel non-negative least-squares unmixing for m = 3
    endmembers (specunmixing/__init__.py:264 ``spec_unmix_spts_nnls``
    via pysptools/scipy Lawson-Hanson, absent here) + the downstream
    helpers in one pass: rescaled sum-to-one abundances (:471
    ``rescale_unmixing_results``), predicted reflectance (:528
    ``predict_refl_linear_unmixing``) and per-pixel RMSE (:585
    ``calc_unmixing_rmse_residual_err``).

    The iterative active-set solver is replaced by EXACT KKT subset
    enumeration: with integer endmembers/signals, every principal
    subset solve is integer Cramer (det(G_S) > 0 since G is a Gram
    matrix of independent rows), so primal feasibility (x_i > 0 <=>
    Cramer numerator > 0) and dual feasibility (w_j <= 0 <=> integer
    numerator b_j*det - sum g_ji num_i <= 0) are exact INTEGER
    predicates — deterministic, partitioning-independent, and
    replayed verbatim by the SQL oracle. The first subset in the
    pinned order [{0,1,2},{0,1},{0,2},{1,2},{0},{1},{2},{}] passing
    both tests is the (unique) NNLS optimum. Scarth-2010 ``weight``
    appends a weight column to E and every signal (G += w^2 on every
    entry, b += w^2). Abundances are single divisions num/det."""
    m, nb = E.shape
    assert m == 3
    G = (E.astype(np.int64) @ E.astype(np.int64).T)
    w2 = 0 if weight is None else int(weight) ** 2
    G = G + w2

    SUBSETS = [
        (0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,), (),
    ]

    def solve_subset(S, b):
        """(num array list aligned to full index set, det) as exact
        int64 vectors; absent coordinates carry num = 0."""
        p = b.shape[0]
        nums = [np.zeros(p, np.int64) for _ in range(3)]
        if len(S) == 0:
            det = np.ones(p, np.int64)
        elif len(S) == 1:
            i = S[0]
            det = np.full(p, G[i, i], np.int64)
            nums[i] = b[:, i].copy()
        elif len(S) == 2:
            i, j = S
            det_s = G[i, i] * G[j, j] - G[i, j] * G[i, j]
            det = np.full(p, det_s, np.int64)
            nums[i] = b[:, i] * G[j, j] - b[:, j] * G[i, j]
            nums[j] = b[:, j] * G[i, i] - b[:, i] * G[i, j]
        else:
            a, bb, c = G[0], G[1], G[2]
            det_s = (
                a[0] * (bb[1] * c[2] - bb[2] * c[1])
                - a[1] * (bb[0] * c[2] - bb[2] * c[0])
                + a[2] * (bb[0] * c[1] - bb[1] * c[0])
            )
            det = np.full(p, int(det_s), np.int64)
            # adjugate columns (G symmetric)
            adj = np.empty((3, 3), np.int64)
            for i in range(3):
                for j in range(3):
                    r = [k for k in range(3) if k != j]
                    cidx = [k for k in range(3) if k != i]
                    mnr = (
                        G[r[0], cidx[0]] * G[r[1], cidx[1]]
                        - G[r[0], cidx[1]] * G[r[1], cidx[0]]
                    )
                    adj[i, j] = ((-1) ** (i + j)) * mnr
            for i in range(3):
                nums[i] = (
                    b[:, 0] * adj[i, 0] + b[:, 1] * adj[i, 1]
                    + b[:, 2] * adj[i, 2]
                )
        return nums, det

    def f(batch: pa.Table) -> pa.Table:
        p = batch.num_rows
        Y = np.stack(
            [
                batch[c].to_numpy().astype(np.int64)
                for c in value_cols
            ],
            axis=1,
        )
        b = Y @ E.astype(np.int64).T + w2
        sel_num = [np.zeros(p, np.int64) for _ in range(3)]
        sel_det = np.ones(p, np.int64)
        done = np.zeros(p, bool)
        for S in SUBSETS:
            nums, det = solve_subset(S, b)
            ok = ~done
            for i in S:
                ok &= nums[i] > 0
            for j in range(3):
                if j in S:
                    continue
                # dual numerator: b_j*det - sum_{i in S} g_ji num_i
                dn = b[:, j] * det
                for i in S:
                    dn = dn - G[j, i] * nums[i]
                ok &= dn <= 0
            for i in range(3):
                sel_num[i] = np.where(ok, nums[i], sel_num[i])
            sel_det = np.where(ok, det, sel_det)
            done |= ok
        x = [
            sel_num[i].astype(np.float64)
            / sel_det.astype(np.float64)
            for i in range(3)
        ]
        ssum = (x[0] + x[1]) + x[2]
        zero = ssum == 0.0
        safe = np.where(zero, 1.0, ssum)
        out = {key_col: batch[key_col]}
        for i in range(3):
            out[f"a{i}"] = x[i]
            out[f"an{i}"] = pa.array(
                x[i] / safe, mask=zero, type=pa.float64()
            )
        # predicted reflectance + RMSE over the ORIGINAL bands
        acc = None
        for bi in range(nb):
            pred = (
                x[0] * float(E[0, bi]) + x[1] * float(E[1, bi])
            ) + x[2] * float(E[2, bi])
            r = Y[:, bi].astype(np.float64) - pred
            sq = r * r
            acc = sq if acc is None else acc + sq
            if bi == 0:
                out["pred_b0"] = pred
        out["rmse"] = np.sqrt(acc / float(nb))
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow",
                          batch_size=65536)


def _int_det_adj(K: list) -> tuple:
    """Exact integer determinant + adjugate of a small (<= 4x4) integer
    matrix via cofactor expansion (Python ints — no overflow)."""
    n = len(K)

    def det(M):
        if len(M) == 1:
            return M[0][0]
        if len(M) == 2:
            return M[0][0] * M[1][1] - M[0][1] * M[1][0]
        s = 0
        for j in range(len(M)):
            if M[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            s += ((-1) ** j) * M[0][j] * det(minor)
        return s

    d = det(K)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [K[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i
            ]
            adj[j][i] = ((-1) ** (i + j)) * det(minor)
    return d, adj


def fcls_unmix(
    ds: "ray.data.Dataset",
    value_cols: list[str],
    E: np.ndarray,
    *,
    key_col: str = "pix",
):
    """Per-pixel FULLY-constrained least-squares unmixing (m = 3
    endmembers): non-negative AND sum-to-one, the
    ``spec_unmix_spts_fcls`` semantics (specunmixing/__init__.py:496
    via pysptools FCLS, absent here — the optimisation problem is
    identical and its optimum unique, so the exact solver below is a
    faithful replacement, the same pinning as :func:`nnls_unmix`).

    For every support subset S (pinned order: full set, pairs,
    singletons) the equality-constrained KKT system is the BORDERED
    Gram system [[G_S, 1], [1^T, 0]] [a_S, lam] = [b_S, 1]. With
    integer endmembers/signals its adjugate and determinant are exact
    integers (computed once at setup, sign-normalised so det > 0), so

    - primal feasibility  a_i > 0      <=>  num_i > 0          (exact)
    - dual feasibility    mu_j >= 0    <=>  sum_i G[j,i]*num_i
                                             + num_lam - b_j*det >= 0

    are integer predicates — deterministic, partition-independent and
    replayed verbatim by the SQL oracle. The first feasible subset is
    the unique optimum (strictly convex objective on the simplex);
    abundances are single divisions num/det."""
    m, nb = E.shape
    assert m == 3
    Eo = E.astype(object)
    G = Eo @ Eo.T

    SUBSETS = [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,)]

    solves = {}
    for S in SUBSETS:
        k = len(S)
        K = [
            [int(G[S[i], S[j]]) for j in range(k)] + [1]
            for i in range(k)
        ] + [[1] * k + [0]]
        d, adj = _int_det_adj(K)
        if d < 0:
            d = -d
            adj = [[-x for x in row] for row in adj]
        solves[S] = (d, adj)

    def f(batch: pa.Table) -> pa.Table:
        p = batch.num_rows
        Y = np.stack(
            [batch[c].to_numpy().astype(np.int64) for c in value_cols],
            axis=1,
        )
        b = Y @ E.astype(np.int64).T  # (p, 3)
        sel_num = [np.zeros(p, np.int64) for _ in range(3)]
        sel_det = np.ones(p, np.int64)
        done = np.zeros(p, bool)
        for S in SUBSETS:
            d, adj = solves[S]
            k = len(S)
            # num for unknown u (a over S, then lambda):
            # sum_t adj[u][t] * b_{S[t]}  +  adj[u][k] * 1
            nums = {}
            for u in range(k + 1):
                acc = np.full(p, adj[u][k], np.int64)
                for t in range(k):
                    acc = acc + adj[u][t] * b[:, S[t]]
                nums[u] = acc
            ok = ~done
            for u in range(k):
                ok &= nums[u] > 0
            for j in range(3):
                if j in S:
                    continue
                mu = nums[k] - b[:, j] * d
                for u in range(k):
                    mu = mu + int(G[j, S[u]]) * nums[u]
                ok &= mu >= 0
            for u, i in enumerate(S):
                sel_num[i] = np.where(ok, nums[u], sel_num[i])
            sel_det = np.where(ok, d, sel_det)
            done |= ok
        out = {key_col: batch[key_col]}
        for i in range(3):
            out[f"a{i}"] = sel_num[i].astype(np.float64) / sel_det.astype(
                np.float64
            )
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)
