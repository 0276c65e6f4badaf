"""Binary-classification and probabilistic-response scoring panels
plus regression bias/variance decomposition.

Reimplements /root/reference/python/rsgislib/tools/stats.py:
``accuracy_scores_binary`` (:457-609 — the Guisan et al. habitat
panel; the reference's quirks are mirrored faithfully and flagged:
its TP/TA/FP/FA naming swaps the conventional false-positive /
false-negative roles, and its prevalence formula divides TP by FA
rather than summing), ``bin_accuracy_scores_prob`` (:381-455 — ROC
AUC, point-biserial r, average precision, Brier score, log loss) and
``bias_score`` / ``decompose_bias_variance`` (:1023-1082).

Distribution model: the only data-sized pass is a pre-reduced
combine (:mod:`rsgislib_ray.stages.segsum`) — a 2x2 confusion count
for the binary panel, a per-score-value (n_pos, n_neg) histogram for
the probabilistic panel (scores live on an integer lattice
0..score_scale, the quantized-probability contract), and exact
integer difference moments for the bias panel. Every metric is then a fixed-order float chain over those
integers (driver-side, k or score_scale+1 terms), mirrored literally
by the SQL oracles. The two ln-based outputs (log loss, NMI) are
emitted as half-up nano-unit integers because np.log and DuckDB ln
can disagree by 1 ulp (measured); all other outputs are raw floats
from exact chains.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine, combine_arrays

LOG_EPS = 1e-15  # sklearn log_loss clipping
_BP_SCHEMA = pa.schema(
    [("n", pa.int64()), ("lm_stat", pa.float64()), ("aux_r2", pa.float64())]
)


def binary_confusion(
    ds: ray.data.Dataset, y_col: str, pred_col: str
) -> dict[str, int]:
    """Distributed 2x2 counts with the REFERENCE's naming
    (stats.py:520-524): TP = (1,1), TA = (0,0), FP = true 1 pred 0,
    FA = true 0 pred 1."""

    def partial(batch: pa.Table) -> pa.Table:
        y = batch[y_col].to_numpy().astype(np.int64)
        p = batch[pred_col].to_numpy().astype(np.int64)
        key = y * 2 + p
        cnt = np.bincount(key, minlength=4)
        return pa.table(
            {
                "k": np.arange(4, dtype=np.int64),
                "n_partial": cnt.astype(np.int64),
            }
        )

    agg = combine(
        map_blocks(ds, partial),
        "k",
        ["n_partial"],
    )
    n = dict(zip(agg["k"].to_pylist(), agg["n_partial"].to_pylist()))
    return {
        "TP": n.get(3, 0),
        "TA": n.get(0, 0),
        "FP": n.get(2, 0),  # true presence predicted absent (sic)
        "FA": n.get(1, 0),  # true absence predicted present (sic)
    }


def accuracy_scores_binary(counts: dict[str, int]) -> pa.Table:
    """The 16-metric panel (stats.py:494-609), emitted as half-up
    nano-unit integers (metric, score_nano). Chains follow the
    reference line by line, including the prevalence quirk
    ``(TP / FA) / n``."""
    TP, TA = float(counts["TP"]), float(counts["TA"])
    FP, FA = float(counts["FP"]), float(counts["FA"])
    n = TP + TA + FP + FA
    n_presence = TP + FP
    n_absence = TA + FA
    prevalence = (TP / FA) / n
    odp = 1.0 - prevalence
    ccr = (TP + TA) / n
    mr = (FP + FA) / n
    sensitivity = TP / n_presence
    ppp = TP / (TP + FP)
    app = TA / (TA + FA)
    specificity = TA / n_absence
    accuracy = (TP + TA) / (n_presence + n_absence)
    balanced = ((TP / n_presence) + (TA / n_absence)) / 2.0
    precision = TP / (TP + FP)
    f1 = 2.0 * TP / ((2.0 * TP) + FP + FA)
    mcc = ((TP * TA) - (FP * FA)) / (
        ((TP + FP) * (TP + FA) * (TA + FP) * (TA + FA)) ** 0.5
    )
    tss = sensitivity + specificity - 1.0
    # Cohen kappa from the same counts: po = accuracy, pe from
    # marginals (pred marg: pred1 = TP + FA, pred0 = TA + FP)
    pe = ((n_presence * (TP + FA)) + (n_absence * (TA + FP))) / (n * n)
    kappa = (accuracy - pe) / (1.0 - pe)
    # NMI (arithmetic mean normalization): cells in (true, pred)
    # i-major order (0,0) (0,1) (1,0) (1,1)
    cells = [
        (TA, n_absence, TA + FP),
        (FA, n_absence, TP + FA),
        (FP, n_presence, TA + FP),
        (TP, n_presence, TP + FA),
    ]
    mi = 0.0
    for cnt, a_i, b_j in cells:
        if cnt > 0.0:
            mi = mi + (cnt / n) * math.log((n * cnt) / (a_i * b_j))
    hu = 0.0
    for a_i in (n_absence, n_presence):
        if a_i > 0.0:
            hu = hu - (a_i / n) * math.log(a_i / n)
    hv = 0.0
    for b_j in (TA + FP, TP + FA):
        if b_j > 0.0:
            hv = hv - (b_j / n) * math.log(b_j / n)
    nmi = mi / ((hu + hv) / 2.0)
    names = [
        "Prevalence",
        "Overall Diagnostic Power",
        "Correct Classification Rate",
        "Misclassification Rate",
        "Presence Predictive Power",
        "Absence Predictive Power",
        "Accuracy",
        "Balanced Accuracy",
        "Sensitivity",
        "Specificity",
        "Precision",
        "F1 Score",
        "Matthews Correlation",
        "Cohen Kappa",
        "Normalised Mutual Information",
        "Hanssen-Kuiper skill",
    ]
    vals = [
        prevalence, odp, ccr, mr, ppp, app, accuracy, balanced,
        sensitivity, specificity, precision, f1, mcc, kappa, nmi, tss,
    ]
    return pa.table(
        {
            "metric": pa.array(names, pa.string()),
            "score_nano": pa.array(
                [int(math.floor(v * 1e9 + 0.5)) for v in vals],
                pa.int64(),
            ),
        }
    )


def prob_score_histogram(
    ds: ray.data.Dataset, y_col: str, score_col: str, score_scale: int
) -> np.ndarray:
    """(score_scale+1, 2) histogram: per lattice score value, the
    negative and positive counts — the one distributed pass of the
    probabilistic panel."""

    def partial(batch: pa.Table) -> pa.Table:
        y = batch[y_col].to_numpy().astype(np.int64)
        s = batch[score_col].to_numpy().astype(np.int64)
        key = s * 2 + y
        cnt = np.bincount(key, minlength=2 * (score_scale + 1))
        nz = np.flatnonzero(cnt)
        return pa.table(
            {"k": nz.astype(np.int64), "n_partial": cnt[nz]}
        )

    agg = combine(
        map_blocks(ds, partial),
        "k",
        ["n_partial"],
    )
    hist = np.zeros(2 * (score_scale + 1), dtype=np.int64)
    hist[agg["k"].to_numpy()] = agg["n_partial"].to_numpy()
    return hist.reshape(score_scale + 1, 2)


def bin_accuracy_scores_prob(
    hist: np.ndarray, score_scale: int
) -> pa.Table:
    """The probabilistic panel from the lattice histogram
    (stats.py:381-455): ROC AUC (exact midrank pair counting),
    point-biserial r (exact integer moments), sklearn-shaped average
    precision (descending-threshold chain), Brier score (exact
    integer squared-error sum), and log loss (clipped, emitted
    nano-quantized — see module docstring). One row:
    (auc, point_biserial, avg_precision, brier, log_loss_nano)."""
    S = score_scale
    neg = hist[:, 0]
    pos = hist[:, 1]
    P = int(pos.sum())
    N = int(neg.sum())
    n = P + N
    # AUC: 2*numerator = sum_s (2 * pos_s * cneg_below + pos_s * neg_s)
    num2 = 0
    cneg = 0
    for s in range(S + 1):
        num2 += 2 * int(pos[s]) * cneg + int(pos[s]) * int(neg[s])
        cneg += int(neg[s])
    auc = float(num2) / (2.0 * float(P) * float(N))
    # point-biserial = Pearson(y, s): exact integer moments
    sy = P  # sum of y
    ss = 0
    ssy = 0
    sss = 0
    for s in range(S + 1):
        c = int(pos[s]) + int(neg[s])
        ss += s * c
        sss += s * s * c
        ssy += s * int(pos[s])
    pbr = (float(n * ssy - ss * sy)) / math.sqrt(
        float(n * sss - ss * ss) * float(n * sy - sy * sy)
    )
    # average precision: descending distinct present scores
    ap = 0.0
    tp = 0
    fp = 0
    prev_tp = 0
    for s in range(S, -1, -1):
        c = int(pos[s]) + int(neg[s])
        if c == 0:
            continue
        tp += int(pos[s])
        fp += int(neg[s])
        ap = ap + (float(tp - prev_tp) / float(P)) * (
            float(tp) / float(tp + fp)
        )
        prev_tp = tp
    # Brier: sum (s - y*S)^2 / (n * S^2)
    bnum = 0
    for s in range(S + 1):
        bnum += (s - S) * (s - S) * int(pos[s]) + s * s * int(neg[s])
    brier = float(bnum) / (float(n) * float(S * S))
    # log loss with sklearn clipping, ascending-score chain
    ll = 0.0
    for s in range(S + 1):
        p = s / float(S)
        pc = min(max(p, LOG_EPS), 1.0 - LOG_EPS)
        if pos[s]:
            ll = ll - float(int(pos[s])) * math.log(pc)
        if neg[s]:
            ll = ll - float(int(neg[s])) * math.log(1.0 - pc)
    ll = ll / float(n)
    return pa.table(
        {
            "auc": pa.array([auc], pa.float64()),
            "point_biserial": pa.array([pbr], pa.float64()),
            "avg_precision": pa.array([ap], pa.float64()),
            "brier": pa.array([brier], pa.float64()),
            "log_loss_nano": pa.array(
                [int(math.floor(ll * 1e9 + 0.5))], pa.int64()
            ),
        }
    )


def bias_variance_panel(
    ds: ray.data.Dataset, true_col: str, pred_col: str
) -> pa.Table:
    """bias_score + decompose_bias_variance (stats.py:1023-1082) from
    exact integer difference moments: bias = mean(pred - true),
    norm_bias = bias / mean(true) * 100, mse = mean(d^2),
    bias^2, variance = mse - bias^2 (population), noise =
    mse - (bias^2 + variance) clamped at 0 (identically 0 here — the
    decomposition over a single prediction set has no irreducible
    term, matching the reference's formula)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = batch[true_col].to_numpy().astype(np.int64)
        p = batch[pred_col].to_numpy().astype(np.int64)
        d = p - t
        return pa.table(
            {
                "n": [np.int64(len(d))],
                "sd": [d.sum()],
                "sdd": [(d * d).sum()],
                "st": [t.sum()],
            }
        )

    pdf = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=65536
    ).to_pandas()
    n = float(int(pdf["n"].sum()))
    sd = float(int(pdf["sd"].sum()))
    sdd = float(int(pdf["sdd"].sum()))
    st = float(int(pdf["st"].sum()))
    bias = sd / n
    norm_bias = (bias / (st / n)) * 100.0
    mse = sdd / n
    bias_sq = bias * bias
    variance = sdd / n - bias * bias
    noise = mse - (bias_sq + variance)
    if noise < 0:
        noise = 0.0
    return pa.table(
        {
            "bias": pa.array([bias], pa.float64()),
            "norm_bias": pa.array([norm_bias], pa.float64()),
            "mse": pa.array([mse], pa.float64()),
            "bias_sq": pa.array([bias_sq], pa.float64()),
            "variance": pa.array([variance], pa.float64()),
            "noise": pa.array([noise], pa.float64()),
        }
    )


def breusch_pagan(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    x_domain: range,
) -> pa.Table:
    """Breusch-Pagan heteroskedasticity test statistic for a simple
    (1-predictor) linear model (tools/stats.py:318 — OLS fit, squared
    residuals, auxiliary regression of the squared errors on x,
    LM = n * R^2 of the auxiliary fit; the reference's chi-square
    p-value needs scipy, absent in this environment, so the statistic
    and R^2 are emitted and the p-value is documented out).

    Distribution model: x lives on a bounded integer domain, so ONE
    pre-reduced combine collects per-x power sums of y (count,
    sum y..sum y^4 — exact int64); every residual moment then
    decomposes per x-group (sum (y - C)^k expands over the power
    sums with C = a + b*x), and the driver accumulates the float
    group terms in ascending-x order — the fixed chain the unrolled
    SQL oracle replays. An empty input gives a zero-row table."""

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy().astype(np.int64)
        y = batch[y_col].to_numpy().astype(np.int64)
        return combine_arrays({"x": x}, {f"s{k}": y**k for k in range(5)})

    agg = combine(
        map_blocks(ds, partial),
        "x",
        [f"s{k}" for k in range(5)],
    )
    g = {x: s for x, *s in zip(*agg.to_pydict().values())}
    # exact integer global moments
    n = sum(s[0] for s in g.values())
    if n == 0:
        return _BP_SCHEMA.empty_table()
    Sx = sum(x * s[0] for x, s in g.items())
    Sxx = sum(x * x * s[0] for x, s in g.items())
    Sy = sum(s[1] for s in g.values())
    Sxy = sum(x * s[1] for x, s in g.items())
    det = n * Sxx - Sx * Sx
    b = float(n * Sxy - Sx * Sy) / float(det)
    a = (float(Sy) - b * float(Sx)) / float(n)
    Sz = 0.0
    Szx = 0.0
    Szz = 0.0
    for x in x_domain:
        if x not in g:
            continue
        cnt, s1, s2, s3, s4 = g[x]
        C = a + b * float(x)
        grp = (float(s2) - 2.0 * C * float(s1)) + C * C * float(cnt)
        Sz = Sz + grp
        Szx = Szx + float(x) * grp
        Szz = Szz + (
            (
                (float(s4) - 4.0 * C * float(s3))
                + 6.0 * C * C * float(s2)
            )
            - 4.0 * C * C * C * float(s1)
        ) + C * C * C * C * float(cnt)
    nf = float(n)
    num = nf * Szx - float(Sx) * Sz
    r2 = (num * num) / (float(det) * (nf * Szz - Sz * Sz))
    lm = nf * r2
    return pa.table({"n": [n], "lm_stat": [lm], "aux_r2": [r2]}, schema=_BP_SCHEMA)


# ---------------------------------------------------------------------------
# correlation feature selection (tools/stats.py:corr_feature_selection)
# ---------------------------------------------------------------------------


def complete_linkage_labels(D: np.ndarray, k: int) -> np.ndarray:
    """Deterministic complete-linkage agglomeration on a precomputed
    distance matrix (the FeatureAgglomeration(linkage="complete",
    metric=pearson-affinity) shape of corr_feature_selection,
    tools/stats.py:937): repeatedly merge the pair with the smallest
    maximum pairwise distance, ties → lowest (i, j). Labels are dense
    ranks of each cluster's smallest member index."""
    n = D.shape[0]
    clusters: list[list[int]] = [[i] for i in range(n)]
    while len(clusters) > k:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = max(
                    D[i, j] for i in clusters[a] for j in clusters[b]
                )
                key = (d, clusters[a][0], clusters[b][0])
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        clusters[a] = sorted(clusters[a] + clusters[b])
        del clusters[b]
    clusters.sort(key=lambda c: c[0])
    labels = np.empty(n, dtype=np.int64)
    for lab, c in enumerate(clusters):
        for i in c:
            labels[i] = lab
    return labels


def silhouette_precomputed(D: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient (Rousseeuw 1987) on a precomputed
    distance matrix; singleton clusters contribute 0 (sklearn
    convention)."""
    n = D.shape[0]
    ss = []
    for i in range(n):
        own = labels == labels[i]
        n_own = int(own.sum())
        if n_own <= 1:
            ss.append(0.0)
            continue
        a = float(D[i, own].sum()) / float(n_own - 1)
        b = math.inf
        for lab in np.unique(labels):
            if lab == labels[i]:
                continue
            m = labels == lab
            b = min(b, float(D[i, m].mean()))
        ss.append((b - a) / max(a, b))
    return float(np.mean(ss))


def corr_feature_select(
    corr_pred: np.ndarray,
    rbar: np.ndarray,
    n_min_clusters: int = 2,
    n_max_clusters: int = 4,
) -> dict:
    """corr_feature_selection (tools/stats.py:937) decision layer over
    the distributed correlation panel: cluster predictors on
    D = 1 − |pairwise Pearson r|, pick the cluster count maximizing
    the silhouette coefficient (ties → fewest clusters), then keep the
    predictor with the largest |Fisher-mean r to the responses| per
    cluster (ties → lowest index). All inputs are tiny k×k driver
    matrices built from ONE distributed moment pass."""
    D = 1.0 - np.abs(corr_pred)
    np.fill_diagonal(D, 0.0)
    best = None
    for k in range(n_min_clusters, min(n_max_clusters, len(rbar)) + 1):
        labels = complete_linkage_labels(D, k)
        sil = silhouette_precomputed(D, labels)
        key = (-sil, k)
        if best is None or key < best[0]:
            best = (key, k, labels)
    _, k, labels = best
    selected = []
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        pick = idx[np.argmax(np.abs(rbar[idx]))]
        selected.append(int(pick))
    return {
        "n_clusters": k,
        "labels": labels,
        "selected": sorted(selected),
    }
