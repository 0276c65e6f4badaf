"""From-scratch distributed classifiers + balanced resampling.

The reference's classification module wraps third-party estimators
(classification/classsklearn.py:128 ``train_sklearn_classifier``,
:219 ``apply_sklearn_classifier`` — mask-gated per-pixel predict with
an ``out_id`` LUT remap; classimblearn.py:109 ``rand_oversample_smpls``
/ :251 ``random_undersample_smpls``). None of those libraries exist in
this sandbox, and wrapping them would not be Ray-Data-native anyway —
this module re-expresses the same user-facing surface with models
trained from exact distributed statistics:

- **one-vs-rest least-squares classifier** (the ridge/linear-model
  slice): global Gram matrix from exact int64/ Python-int moments, one
  streaming pass; per-class closed-form solve through the shared
  fixed-order Cholesky (`stages/timeseries.chol_solve_np`) whose
  +,-,*,/,sqrt chain is the bit-parity contract with the SQL oracle.
- **Gaussian naive Bayes**: per-class mean/population-variance from
  exact integer moments (variance numerator ``n·Σx² − (Σx)²`` exact in
  Python ints); predict is a fixed left-associative log-likelihood
  chain (the ~dozen ``ln`` calls are per-(class,feature) constants, so
  the per-row math is pure arithmetic).
- **histogram decision tree** (the LightGBM-shaped slice): per-level
  (feature, value, class) count histograms — one streaming pass per
  tree level, count state bounded by the feature domain, never by
  rows — split chosen by minimum weighted-Gini where the impurity is
  the double ``(nL²−ΣcL²)/nL + (nR²−ΣcR²)/nR`` of exact integers
  (IEEE division is correctly rounded, so DuckDB reproduces the same
  doubles bit-for-bit); ties break on (impurity, feature, threshold).
- **balanced random under/over-sampling**: splitmix64-keyed per-class
  rank with a two-level (bucket histogram → refine) exact rank-
  threshold selection, so no class's rows ever sort globally or land
  on the driver (only the ~n/2^16-row boundary bucket does).

Apply stages are plain ``map_batches`` over broadcast tiny models,
mirroring the reference's RIOS applier shape (mask gating: pixels
where ``mask != msk_val`` emit class 0 and zero scores).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.functions.hashing import splitmix64
from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine
from rsgislib_ray.stages.timeseries import chol_solve_np

TWO_PI = 6.283185307179586  # repr(2*math.pi): the SQL literal


# ---------------------------------------------------------------------------
# shared moment pass
# ---------------------------------------------------------------------------


def class_moments(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    class_col: str,
    classes: list[int],
    batch_size: int = 32768,
) -> dict:
    """One streaming pass → exact global Gram over ``[1, x_1..x_d]``
    plus per-class ``(n_c, Σx_i, Σx_i²)``. Per-batch int64 partials
    (one row per batch), cross-batch combine in Python ints (the
    `band_cross_moments` pattern, stages/imagestats.py:49). Features
    must be integer-valued (validated, as in focal_stats)."""
    d = len(feature_cols)
    ks = list(classes)

    def partial(batch: pa.Table) -> pa.Table:
        xs = []
        for c in feature_cols:
            v = batch[c].to_numpy()
            vi = v.astype(np.int64)
            if not np.array_equal(vi.astype(v.dtype), v):
                raise ValueError(f"feature {c} must be integer-valued")
            xs.append(vi)
        y = batch[class_col].to_numpy().astype(np.int64)
        out: dict = {"n": [len(y)]}
        for i in range(d):
            out[f"s{i}"] = [int(xs[i].sum())]
            for j in range(i, d):
                out[f"q{i}_{j}"] = [int(np.dot(xs[i], xs[j]))]
        for k in ks:
            m = y == k
            out[f"n_c{k}"] = [int(m.sum())]
            for i in range(d):
                xm = xs[i][m]
                out[f"s_c{k}_{i}"] = [int(xm.sum())]
                out[f"q_c{k}_{i}"] = [int(np.dot(xm, xm))]
        return pa.table({k2: np.array(v, dtype=np.int64) for k2, v in out.items()})

    pdf = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size
    ).to_pandas()
    g = {c: int(pdf[c].sum()) for c in pdf.columns}
    return {"d": d, "classes": ks, **g}


# ---------------------------------------------------------------------------
# one-vs-rest least squares
# ---------------------------------------------------------------------------


def train_lsq_ovr(m: dict) -> np.ndarray:
    """Closed-form one-vs-rest least squares with intercept from the
    moment dict: solve ``G β_c = b_c`` with G the (d+1)×(d+1) Gram of
    ``[1, x]`` and ``b_c = Σ φ·y_c``, ``y_c = ±1`` so
    ``b_c = 2·Σ_{y=c} φ − Σ φ`` (exact integers). Returns coef
    ``(K, d+1)``, row order = ``classes`` order; every float is
    ``float(exact int)`` then the chol_solve_np chain."""
    d, ks = m["d"], m["classes"]
    k1 = d + 1
    G = np.zeros((k1, k1))
    G[0, 0] = float(m["n"])
    for i in range(d):
        G[0, i + 1] = G[i + 1, 0] = float(m[f"s{i}"])
        for j in range(i, d):
            G[i + 1, j + 1] = G[j + 1, i + 1] = float(m[f"q{i}_{j}"])
    B = np.zeros((len(ks), k1))
    for r, c in enumerate(ks):
        B[r, 0] = float(2 * m[f"n_c{c}"] - m["n"])
        for i in range(d):
            B[r, i + 1] = float(2 * m[f"s_c{c}_{i}"] - m[f"s{i}"])
    Gs = np.broadcast_to(G, (len(ks), k1, k1)).copy()
    return chol_solve_np(Gs, B)  # (K, d+1)


class ApplyLinearClassifier:
    """Actor-pool apply stage (apply_sklearn_classifier shape): scores
    = fixed left-associative ``((β0 + β1·x1) + β2·x2) + …`` per class,
    label = first-argmax (numpy semantics: lowest class index wins
    ties), ``out_ids`` LUT remap, mask gating → class 0 / zero scores."""

    def __init__(
        self,
        coefs: np.ndarray,
        classes: list[int],
        feature_cols: list[str],
        out_ids: dict[int, int] | None = None,
        key_col: str = "ck",
        mask_col: str | None = None,
        msk_val: int = 1,
        emit_scores: bool = True,
    ):
        self.coefs = np.asarray(coefs, dtype=np.float64)
        self.classes = list(classes)
        self.feature_cols = feature_cols
        self.lut = out_ids or {c: c for c in self.classes}
        self.key_col = key_col
        self.mask_col = mask_col
        self.msk_val = msk_val
        self.emit_scores = emit_scores

    def __call__(self, batch: pa.Table) -> pa.Table:
        xs = [
            batch[c].to_numpy().astype(np.float64) for c in self.feature_cols
        ]
        n = len(xs[0])
        K = len(self.classes)
        scores = np.empty((K, n))
        for r in range(K):
            s = np.full(n, self.coefs[r, 0])
            for i, x in enumerate(xs):
                s = s + self.coefs[r, i + 1] * x
            scores[r] = s
        lab_idx = np.argmax(scores, axis=0)
        out_id = np.array(
            [self.lut[c] for c in self.classes], dtype=np.int64
        )[lab_idx]
        if self.mask_col is not None:
            keep = batch[self.mask_col].to_numpy() == self.msk_val
            out_id = np.where(keep, out_id, 0)
            scores = np.where(keep[None, :], scores, 0.0)
        out = {self.key_col: batch[self.key_col], "out_id": out_id}
        if self.emit_scores:
            for r, c in enumerate(self.classes):
                out[f"s{c}"] = scores[r]
        return pa.table(out)


def apply_linear_classifier(
    ds: ray.data.Dataset, batch_size: int = 65536, **kw
) -> ray.data.Dataset:
    return ds.map_batches(
        ApplyLinearClassifier,
        fn_constructor_kwargs=kw,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, 8),
    )


# ---------------------------------------------------------------------------
# Gaussian naive Bayes
# ---------------------------------------------------------------------------


def train_gnb(m: dict) -> dict:
    """Per-class Gaussian parameters from the moment dict.
    ``μ = float(Σx)/float(n_c)``; population variance via the exact
    integer decomposition ``(n_c·Σx² − (Σx)²)/n_c²`` (both casts of
    exact ints, one correctly-rounded division). The ``ln`` constants
    (``ln(prior)``, ``ln(2π·σ²)``) are evaluated once here — per-row
    scoring is pure +,-,*,/."""
    d, ks = m["d"], m["classes"]
    n = m["n"]
    mu = np.zeros((len(ks), d))
    var = np.zeros((len(ks), d))
    lnp = np.zeros(len(ks))
    lnt = np.zeros((len(ks), d))
    for r, c in enumerate(ks):
        nc = m[f"n_c{c}"]
        lnp[r] = math.log(float(nc) / float(n))
        for i in range(d):
            s, q = m[f"s_c{c}_{i}"], m[f"q_c{c}_{i}"]
            mu[r, i] = float(s) / float(nc)
            var[r, i] = float(nc * q - s * s) / float(nc * nc)
            if var[r, i] <= 0.0:
                raise ValueError(
                    f"class {c} feature {i} has zero variance — "
                    "GNB needs spread in every (class, feature)"
                )
            lnt[r, i] = math.log(TWO_PI * var[r, i])
    return {"classes": ks, "mu": mu, "var": var, "lnp": lnp, "lnt": lnt}


class ApplyGNB:
    """Per-row log-likelihood, fixed left-associative chain per class:
    ``s = lnp; s = s − 0.5·lnt_j; s = s − 0.5·((x_j−μ_j)²/σ²_j)`` for
    j ascending — the op-order contract with the SQL oracle. Emits the
    argmax label (lowest class on ties) and micro-nat half-up
    quantized scores (the ln constants carry a measured-1-ulp
    DuckDB/libm divergence; the chain itself is exact)."""

    def __init__(self, model: dict, feature_cols: list[str], key_col="ck"):
        self.m = model
        self.feature_cols = feature_cols
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = self.m
        xs = [
            batch[c].to_numpy().astype(np.float64) for c in self.feature_cols
        ]
        n = len(xs[0])
        K = len(m["classes"])
        scores = np.empty((K, n))
        for r in range(K):
            s = np.full(n, m["lnp"][r])
            for j, x in enumerate(xs):
                dlt = x - m["mu"][r, j]
                s = s - 0.5 * m["lnt"][r, j]
                s = s - 0.5 * ((dlt * dlt) / m["var"][r, j])
            scores[r] = s
        lab = np.array(m["classes"], dtype=np.int64)[
            np.argmax(scores, axis=0)
        ]
        out = {self.key_col: batch[self.key_col], "pred": lab}
        for r, c in enumerate(m["classes"]):
            out[f"qs{c}"] = np.floor(scores[r] * 1e6 + 0.5).astype(np.int64)
        return pa.table(out)


def apply_gnb(
    ds: ray.data.Dataset, model: dict, feature_cols: list[str], **kw
) -> ray.data.Dataset:
    return ds.map_batches(
        ApplyGNB,
        fn_constructor_kwargs={
            "model": model,
            "feature_cols": feature_cols,
            **kw,
        },
        batch_format="pyarrow",
        batch_size=65536,
        concurrency=(1, 8),
    )


# ---------------------------------------------------------------------------
# histogram decision tree
# ---------------------------------------------------------------------------


def _hist_counts(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    class_col: str,
    route=None,
) -> dict:
    """(feature, value, class) → count histograms, optionally per
    routed node side. One streaming pass; per-batch partials are
    bounded by the feature domain (long-form rows), combined on the
    driver (domain-sized state, never row-sized). ``route(xs)`` maps
    the batch's feature arrays to an int node-id array (root pass:
    None → all node 0)."""
    counts: dict = {}

    def partial(batch: pa.Table) -> pa.Table:
        xs = [batch[c].to_numpy().astype(np.int64) for c in feature_cols]
        y = batch[class_col].to_numpy().astype(np.int64)
        node = (
            np.zeros(len(y), dtype=np.int64) if route is None else route(xs)
        )
        keys, cts = [], []
        for f, x in enumerate(xs):
            key = ((node * len(feature_cols) + f) << np.int64(32)) | (
                (x << np.int64(8)) | y
            )
            u1, ct1 = np.unique(key, return_counts=True)
            keys.append(u1)
            cts.append(ct1)
        u = np.concatenate(keys)
        ct = np.concatenate(cts)
        nf = (u >> np.int64(32)).astype(np.int64)
        return pa.table(
            {
                "node": nf // len(feature_cols),
                "feat": nf % len(feature_cols),
                "val": (u & np.int64(0xFFFFFFFF)) >> np.int64(8),
                "cls": u & np.int64(0xFF),
                "cnt": ct.astype(np.int64),
            }
        )

    agg = combine(
        map_blocks(ds, partial),
        ["node", "feat", "val", "cls"],
        ["cnt"],
    )
    for node, feat, val, cls, cnt in zip(*agg.to_pydict().values()):
        counts.setdefault(node, {}).setdefault((feat, val), {})[cls] = cnt
    return counts


def _best_split(node_counts: dict, classes: list[int]):
    """Minimum weighted-Gini split over all (feature, threshold)
    candidates with both sides non-empty. Impurity =
    ``float(nL²−ΣcL²)/float(nL) + float(nR²−ΣcR²)/float(nR)`` —
    exact ints, two correctly-rounded divisions, one add: DuckDB
    reproduces the identical double. Ties → lowest (feature,
    threshold). Returns (feat, thr, impurity) or None."""
    feats: dict = {}
    for (f, v), cc in node_counts.items():
        feats.setdefault(f, {})[v] = cc
    best = None
    for f in sorted(feats):
        vals = sorted(feats[f])
        tot = {c: 0 for c in classes}
        for v in vals:
            for c, ct in feats[f][v].items():
                tot[c] += ct
        n_all = sum(tot.values())
        cl = {c: 0 for c in classes}
        nl = 0
        for v in vals[:-1]:  # last value leaves right side empty
            for c, ct in feats[f][v].items():
                cl[c] += ct
            nl += sum(feats[f][v].values())
            nr = n_all - nl
            if nl == 0 or nr == 0:
                continue
            al = nl * nl - sum(cl[c] * cl[c] for c in classes)
            ar = nr * nr - sum(
                (tot[c] - cl[c]) * (tot[c] - cl[c]) for c in classes
            )
            imp = float(al) / float(nl) + float(ar) / float(nr)
            key = (imp, f, v)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[1], best[2], best[0]


def _majority(node_counts: dict, classes: list[int], feat: int = 0):
    """Leaf label: majority class from the node's feature-0 marginal
    (every feature's marginal sums to the node's rows); ties → lowest
    class id."""
    tot = {c: 0 for c in classes}
    for (f, _v), cc in node_counts.items():
        if f != feat:
            continue
        for c, ct in cc.items():
            tot[c] += ct
    best_c, best_n = None, -1
    for c in sorted(classes):
        if tot[c] > best_n:
            best_c, best_n = c, tot[c]
    return best_c


def train_hist_tree(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    class_col: str,
    classes: list[int],
    max_depth: int = 2,
) -> dict:
    """Depth-``max_depth`` histogram tree: one counting pass per
    level (the distributed-histogram strategy the reference's wrapped
    LightGBM uses), deterministic split selection on the driver over
    domain-sized count tables. Node ids: root 0; children of k are
    2k+1 (left, x≤thr) / 2k+2."""
    splits: dict = {}
    leaves: dict = {}

    def route_fn(upto: dict):
        def route(xs):
            node = np.zeros(len(xs[0]), dtype=np.int64)
            for _ in range(max_depth):
                nxt = node.copy()
                for k, (f, t, _imp) in upto.items():
                    m = node == k
                    if not m.any():
                        continue
                    nxt[m] = np.where(xs[f][m] <= t, 2 * k + 1, 2 * k + 2)
                if np.array_equal(nxt, node):
                    break
                node = nxt
            return node

        return route

    frontier = {0}
    for depth in range(max_depth):
        counts = _hist_counts(
            ds,
            feature_cols,
            class_col,
            route=None if depth == 0 else route_fn(splits),
        )
        new_frontier = set()
        for k in sorted(frontier):
            nc = counts.get(k)
            if nc is None:
                leaves[k] = min(classes)
                continue
            sp = _best_split(nc, classes)
            if sp is None or depth == max_depth:
                leaves[k] = _majority(nc, classes)
                continue
            splits[k] = sp
            new_frontier |= {2 * k + 1, 2 * k + 2}
        frontier = new_frontier
    if frontier:
        counts = _hist_counts(
            ds, feature_cols, class_col, route=route_fn(splits)
        )
        for k in sorted(frontier):
            nc = counts.get(k)
            leaves[k] = (
                _majority(nc, classes) if nc else min(classes)
            )
    return {"splits": splits, "leaves": leaves, "classes": classes}


def apply_hist_tree(
    ds: ray.data.Dataset,
    tree: dict,
    feature_cols: list[str],
    key_col: str = "ck",
) -> ray.data.Dataset:
    """Vectorized routing through the (tiny, broadcast) tree; emits
    (key, leaf, pred)."""
    splits, leaves = tree["splits"], tree["leaves"]

    def f(batch: pa.Table) -> pa.Table:
        xs = [batch[c].to_numpy().astype(np.int64) for c in feature_cols]
        node = np.zeros(len(xs[0]), dtype=np.int64)
        for _ in range(64):
            nxt = node.copy()
            for k, (ft, t, _imp) in splits.items():
                m = node == k
                if m.any():
                    nxt[m] = np.where(xs[ft][m] <= t, 2 * k + 1, 2 * k + 2)
            if np.array_equal(nxt, node):
                break
            node = nxt
        pred = np.empty(len(node), dtype=np.int64)
        for k, c in leaves.items():
            pred[node == k] = c
        return pa.table({key_col: batch[key_col], "leaf": node, "pred": pred})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=65536)


# ---------------------------------------------------------------------------
# balanced random resampling (classimblearn shape)
# ---------------------------------------------------------------------------


def _class_counts(ds, class_col) -> dict:
    def partial(batch: pa.Table) -> pa.Table:
        y = batch[class_col].to_numpy().astype(np.int64)
        u, ct = np.unique(y, return_counts=True)
        return pa.table({"y": u, "n": ct.astype(np.int64)})

    agg = combine(
        map_blocks(ds, partial),
        "y",
        ["n"],
    )
    return dict(zip(agg["y"].to_pylist(), agg["n"].to_pylist()))


def group_rank_thresholds(
    ds: ray.data.Dataset,
    class_col: str,
    z_col: str,
    tie_col: str,
    ranks: dict[int, int],
) -> dict:
    """Exact per-class rank-``k`` threshold on (z, tie): two-level
    selection — pass 1 histograms the top-16 bits of z per class
    (bounded 65536×K state), pass 2 pulls only the boundary bucket
    (expected n/2^16 rows per class) and sorts it. Returns
    ``{cls: (z_thr, tie_thr)}``: row selected ⇔ ``z < z_thr or
    (z == z_thr and tie <= tie_thr)``; rank 0 → (−1, −1) selects
    nothing (z is uint64-as-int64-bits ≥ 0 here: we keep z in uint64
    and compare unsigned)."""
    ks = sorted(ranks)
    kidx = {c: i for i, c in enumerate(ks)}

    def hist_partial(batch: pa.Table) -> pa.Table:
        # long-form: only the buckets some class hits in this block
        y = batch[class_col].to_numpy().astype(np.int64)
        z = batch[z_col].to_numpy().astype(np.uint64)
        hs = [
            np.bincount((z[y == c] >> np.uint64(48)).astype(np.int64), minlength=65536)
            for c in ks
        ]
        b = np.flatnonzero(np.sum(hs, axis=0)) if hs else np.arange(0)
        out = {"b": b.astype(np.int64)}
        for c, h in zip(ks, hs):
            out[f"h{c}"] = h[b].astype(np.int64)
        return pa.table(out)

    agg = combine(
        map_blocks(ds, hist_partial),
        "b",
        [f"h{c}" for c in ks],
    )
    hists = {c: np.zeros(65536, dtype=np.int64) for c in ks}
    for c in ks:
        hists[c][agg["b"].to_numpy()] = agg[f"h{c}"].to_numpy()
    buckets = {}
    for c in ks:
        k = ranks[c]
        if k <= 0:
            buckets[c] = None
            continue
        cum = np.cumsum(hists[c])
        b = int(np.searchsorted(cum, k))
        prev = int(cum[b - 1]) if b > 0 else 0
        buckets[c] = (b, k - prev)  # need the (k-prev)-th in bucket b

    def boundary(batch: pa.Table) -> pa.Table:
        y = batch[class_col].to_numpy().astype(np.int64)
        z = batch[z_col].to_numpy().astype(np.uint64)
        t = batch[tie_col].to_numpy().astype(np.int64)
        keep = np.zeros(len(y), dtype=bool)
        for c, bk in buckets.items():
            if bk is None:
                continue
            keep |= (y == c) & ((z >> np.uint64(48)) == np.uint64(bk[0]))
        return pa.table(
            {"y": y[keep], "z": z[keep], "t": t[keep]}
        )

    bt = ds.map_batches(
        boundary, batch_format="pyarrow", batch_size=262144
    ).to_pandas()
    out = {}
    for c in ks:
        bk = buckets.get(c)
        if bk is None:
            out[c] = (np.uint64(0), -1, True)  # empty marker
            continue
        sub = bt[bt["y"] == c]
        order = np.lexsort(
            (sub["t"].to_numpy(), sub["z"].to_numpy(dtype=np.uint64))
        )
        i = order[bk[1] - 1]
        out[c] = (
            np.uint64(sub["z"].to_numpy(dtype=np.uint64)[i]),
            int(sub["t"].to_numpy()[i]),
            False,
        )
    return out


def balanced_undersample(
    ds: ray.data.Dataset,
    class_col: str,
    key_col: str,
    seed: int,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """random_undersample_smpls (classimblearn.py:251): every class
    down-sampled to the minority count. Selection = the n_min lowest
    ``(splitmix64(key+seed), key)`` per class — deterministic,
    partition-independent, and resolved by broadcast thresholds (no
    shuffle of the data rows)."""
    counts = _class_counts(ds, class_col)
    n_min = min(counts.values())

    def add_z(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            z = splitmix64(k + np.uint64(seed))
        return batch.append_column("_z", pa.array(z))

    zds = ds.map_batches(add_z, batch_format="pyarrow", batch_size=65536)
    thr = group_rank_thresholds(
        zds, class_col, "_z", key_col, {c: n_min for c in counts}
    )

    def filt(batch: pa.Table) -> pa.Table:
        y = batch[class_col].to_numpy().astype(np.int64)
        z = batch["_z"].to_numpy().astype(np.uint64)
        t = batch[key_col].to_numpy().astype(np.int64)
        keep = np.zeros(len(y), dtype=bool)
        for c, (zt, tt, empty) in thr.items():
            if empty:
                continue
            keep |= (y == c) & ((z < zt) | ((z == zt) & (t <= tt)))
        out = batch.filter(pa.array(keep)).drop_columns(["_z"])
        if keep_cols:
            out = out.select(keep_cols)
        return out

    return zds.map_batches(filt, batch_format="pyarrow", batch_size=65536)


def balanced_oversample(
    ds: ray.data.Dataset,
    class_col: str,
    key_col: str,
    seed: int,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """rand_oversample_smpls (classimblearn.py:109): every class
    up-sampled to the majority count by whole-row replication —
    ``base = n_maj // n_c`` copies each, plus one extra for the
    ``n_maj % n_c`` lowest-(z, key) rows (same deterministic rank as
    undersampling). Emits ``copy_idx`` (0-based) per replica."""
    counts = _class_counts(ds, class_col)
    n_maj = max(counts.values())
    rem = {c: n_maj % n for c, n in counts.items()}
    base = {c: n_maj // n for c, n in counts.items()}

    def add_z(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            z = splitmix64(k + np.uint64(seed))
        return batch.append_column("_z", pa.array(z))

    zds = ds.map_batches(add_z, batch_format="pyarrow", batch_size=65536)
    thr = group_rank_thresholds(zds, class_col, "_z", key_col, rem)

    def explode(batch: pa.Table) -> pa.Table:
        y = batch[class_col].to_numpy().astype(np.int64)
        z = batch["_z"].to_numpy().astype(np.uint64)
        t = batch[key_col].to_numpy().astype(np.int64)
        reps = np.zeros(len(y), dtype=np.int64)
        for c in counts:
            m = y == c
            reps[m] = base[c]
            zt, tt, empty = thr[c]
            if not empty:
                extra = m & ((z < zt) | ((z == zt) & (t <= tt)))
                reps[extra] += 1
        idx = np.repeat(np.arange(len(y)), reps)
        cols = keep_cols or [
            c for c in batch.column_names if c != "_z"
        ]
        out = batch.select(cols).take(pa.array(idx))
        ends = np.cumsum(reps)
        starts = ends - reps
        copy_idx = np.arange(int(ends[-1]) if len(ends) else 0) - np.repeat(
            starts, reps
        )
        return out.append_column("copy_idx", pa.array(copy_idx))

    return zds.map_batches(explode, batch_format="pyarrow", batch_size=65536)
