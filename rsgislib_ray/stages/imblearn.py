"""kNN-based class-balancing resamplers (imbalanced-learn family).

Reference surface: classification/classimblearn.py —
``near_miss_undersample_smpls`` (:280, NearMiss v1),
``edited_near_neigh_undersample_smpls`` (:309, ENN, n_neighbors=3,
kind_sel='all'), ``one_sided_sel_undersample_smpls`` (:419, the
imblearn one-shot OSS + auto Tomek) and
``smotetomek_combined_sample_smpls`` (:504, SMOTE + Tomek 'all').  The reference delegates to the imbalanced-learn
package (absent here); these are from-scratch implementations of the
published algorithms with this engine's deterministic tie rules.

Physical plan: training-sample tables are the SMALL side of a
pipeline (they fit a worker by the same contract as the reference's
in-memory H5 reads), so the feature matrix is broadcast once via
``ray.put`` and every kNN batch is a vectorized distance matmul —
zero shuffles, streaming over the candidate rows.

Determinism contract (drives the SQL oracles): features are ints, so
squared distances are exact ints; neighbour ties break by (d2, id)
ascending; NearMiss ranks by the SUM of 2^-24-quantized Euclidean
distances (exact ints — the sqrt reorders sums, so quantizing each
distance keeps the engine and DuckDB bit-identical); boundary ties
break by id; the minority class is the (count, class_id)-min class.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages import partition


def _gather(ds: ray.data.Dataset, id_col, class_col, feat_cols):
    tbl = pa.concat_tables(
        ray.get(ds.to_arrow_refs()), promote_options="default"
    )
    ids = tbl[id_col].to_numpy().astype(np.int64)
    cls = tbl[class_col].to_numpy().astype(np.int64)
    X = np.stack(
        [tbl[c].to_numpy().astype(np.int64) for c in feat_cols], axis=1
    )
    order = np.argsort(ids)
    return ids[order], cls[order], X[order]


def _d2_block(Xa: np.ndarray, Xb: np.ndarray) -> np.ndarray:
    """Exact integer squared Euclidean distances (int64 matmul)."""
    aa = (Xa * Xa).sum(axis=1)[:, None]
    bb = (Xb * Xb).sum(axis=1)[None, :]
    return aa + bb - 2 * (Xa @ Xb.T)


def _knn_ids(
    d2: np.ndarray, cand_ids: np.ndarray, k: int, exclude_ids=None
) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the k candidates by (d2, id) ascending.  Returns
    (k-column id matrix, k-column d2 matrix)."""
    d2 = d2.astype(np.float64)
    if exclude_ids is not None:
        d2 = d2 + np.where(
            cand_ids[None, :] == exclude_ids[:, None], np.inf, 0.0
        )
    # lexicographic (d2, id): stable double key via argsort over
    # structured ranking — d2 fits exactly in f64 for int features
    order = np.lexsort(
        (np.broadcast_to(cand_ids, d2.shape), d2), axis=1
    )[:, :k]
    rows = np.arange(d2.shape[0])[:, None]
    return cand_ids[order], d2[rows, order]


def minority_class(cls: np.ndarray) -> int:
    u, cnt = np.unique(cls, return_counts=True)
    i = np.lexsort((u, cnt))[0]
    return int(u[i])


def tomek_links_undersample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """TomekLinks (sampling_strategy='auto'): a link is a pair of
    different-class samples that are mutual 1-NNs; every NON-minority
    member of a link is dropped.  Returns the kept rows."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    mino = minority_class(cls)
    nn1 = np.empty(len(ids), dtype=np.int64)
    for lo in range(0, len(ids), batch_size):
        hi = min(lo + batch_size, len(ids))
        d2 = _d2_block(X[lo:hi], X)
        nn1[lo:hi] = _knn_ids(d2, ids, 1, exclude_ids=ids[lo:hi])[0][:, 0]
    pos = {int(i): k for k, i in enumerate(ids)}
    nn_of = dict(zip(ids.tolist(), nn1.tolist()))
    drop = set()
    for i, j in nn_of.items():
        if nn_of.get(j) == i and cls[pos[i]] != cls[pos[j]]:
            if cls[pos[i]] != mino:
                drop.add(i)
            if cls[pos[j]] != mino:
                drop.add(j)
    dref = ray.put(drop)

    def f(batch: pa.Table) -> pa.Table:
        d = ray.get(dref)
        keep = ~np.isin(
            batch[id_col].to_numpy().astype(np.int64), list(d)
        )
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def edited_nn_undersample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    n_neighbors: int = 3,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """EditedNearestNeighbours (defaults: n_neighbors=3,
    kind_sel='all', strategy='auto'): every NON-minority sample is
    kept only if ALL of its n_neighbors nearest neighbours (self
    excluded) share its class; minority rows always survive."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    mino = minority_class(cls)
    iref = ray.put((ids, cls, X, mino))

    def f(batch: pa.Table) -> pa.Table:
        aids, acls, aX, amino = ray.get(iref)
        bids = batch[id_col].to_numpy().astype(np.int64)
        bcls = batch[class_col].to_numpy().astype(np.int64)
        bX = np.stack(
            [batch[c].to_numpy().astype(np.int64) for c in feat_cols],
            axis=1,
        )
        d2 = _d2_block(bX, aX)
        nbr_ids, _ = _knn_ids(d2, aids, n_neighbors, exclude_ids=bids)
        cls_of = acls[np.searchsorted(aids, nbr_ids)]
        agree = (cls_of == bcls[:, None]).all(axis=1)
        keep = (bcls == amino) | agree
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=batch_size)


def near_miss_undersample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    n_neighbors: int = 3,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """NearMiss version 1 (classimblearn.py:280 defaults): each
    non-minority class keeps its n_minority samples with the SMALLEST
    sum of quantized Euclidean distances to their n_neighbors nearest
    MINORITY samples (sum of FLOOR(sqrt(d2)*2^24 + 0.5) — exact int,
    ties by id)."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    mino = minority_class(cls)
    mmask = cls == mino
    mX, mids = X[mmask], ids[mmask]
    n_min = int(mmask.sum())
    keep_ids: set[int] = set(mids.tolist())
    for c in np.unique(cls):
        if int(c) == mino:
            continue
        cmask = cls == c
        cX, cids = X[cmask], ids[cmask]
        sums = np.empty(len(cids), dtype=np.int64)
        for lo in range(0, len(cids), batch_size):
            hi = min(lo + batch_size, len(cids))
            d2 = _d2_block(cX[lo:hi], mX)
            _, nd2 = _knn_ids(d2, mids, n_neighbors)
            dq = np.floor(np.sqrt(nd2) * 16777216.0 + 0.5).astype(
                np.int64
            )
            sums[lo:hi] = dq.sum(axis=1)
        order = np.lexsort((cids, sums))[:n_min]
        keep_ids.update(cids[order].tolist())
    kref = ray.put(keep_ids)

    def f(batch: pa.Table) -> pa.Table:
        k = ray.get(kref)
        keep = np.isin(batch[id_col].to_numpy().astype(np.int64), list(k))
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def smote_oversample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    k: int = 5,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """SMOTE (classimblearn.py:138 via imblearn, from the Chawla et
    al. 2002 algorithm): every non-MAJORITY class is oversampled to
    the majority count with synthetics x_b + lam * (x_nbr - x_b),
    where x_nbr is one of the k nearest SAME-class neighbours of the
    base sample.  imblearn draws base/neighbour/lambda from its RNG;
    this engine's deterministic contract (mirrored by the oracle):
    synthetic t of class c uses base = (t mod n_c)-th id ascending,
    neighbour slot (t*7 + 3) mod k (of the (d2,id)-ordered k-NN,
    self excluded) and lam = ((t*31 + 11) mod 997)/997.

    Returns the synthetic rows (syn_id = c*100000 + t, cls, float
    features); union with the input for the balanced set.  The
    feature matrix is broadcast (training-set contract); synthesis
    itself streams over a range dataset."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    u, cnt = np.unique(cls, return_counts=True)
    maj_i = np.lexsort((u, -cnt))[0]
    maj_cnt = int(cnt[maj_i])
    plan = []  # (class, n_needed, class ids asc, kNN id matrix)
    for ci, c in enumerate(u):
        if ci == maj_i or cnt[ci] == maj_cnt:
            continue
        cmask = cls == c
        cX, cids = X[cmask], ids[cmask]
        nbrs = np.empty((len(cids), k), dtype=np.int64)
        for lo in range(0, len(cids), batch_size):
            hi = min(lo + batch_size, len(cids))
            d2 = _d2_block(cX[lo:hi], cX)
            nbrs[lo:hi] = _knn_ids(
                d2, cids, k, exclude_ids=cids[lo:hi]
            )[0]
        plan.append((int(c), maj_cnt - int(cnt[ci]), cids, cX, nbrs))
    pref = ray.put(plan)
    total = sum(p[1] for p in plan)

    def gen(batch: pa.Table) -> pa.Table:
        t_all = batch["id"].to_numpy().astype(np.int64)
        p = ray.get(pref)
        outs = {
            "syn_id": [],
            "cls": [],
            **{c: [] for c in feat_cols},
        }
        off = 0
        for c, need, cids, cX, nbrs in p:
            tt = t_all[(t_all >= off) & (t_all < off + need)] - off
            if len(tt):
                base = tt % len(cids)
                slot = (tt * 7 + 3) % nbrs.shape[1]
                lam = ((tt * 31 + 11) % 997) / 997.0
                nid = nbrs[base, slot]
                npos = np.searchsorted(cids, nid)
                outs["syn_id"].append(c * 100000 + tt)
                outs["cls"].append(np.full(len(tt), c, dtype=np.int64))
                for j, col in enumerate(feat_cols):
                    xb = cX[base, j]
                    xn = cX[npos, j]
                    outs[col].append(xb + lam * (xn - xb))
            off += need
        return pa.table(
            {
                "syn_id": np.concatenate(outs["syn_id"])
                if outs["syn_id"]
                else np.array([], dtype=np.int64),
                "cls": np.concatenate(outs["cls"])
                if outs["cls"]
                else np.array([], dtype=np.int64),
                **{
                    c: np.concatenate(outs[c])
                    if outs[c]
                    else np.array([], dtype=np.float64)
                    for c in feat_cols
                },
            }
        )

    rng = ray.data.range(total).map_batches(
        lambda b: pa.table({"id": b["id"]}), batch_format="pyarrow"
    )
    return rng.map_batches(gen, batch_format="pyarrow", batch_size=batch_size)


def adasyn_oversample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    k: int = 5,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """ADASYN (classimblearn.py adasyn_oversample_smpls via imblearn;
    He et al. 2008, from scratch): each non-majority class c with
    n_c < n_majority synthesizes G = n_majority - n_c samples,
    allocated per base sample i proportionally to the adaptive ratio
    delta_i = #(different-class samples among i's k nearest
    neighbours over the WHOLE set, self excluded).  imblearn's
    ``np.rint(r_i * G)`` draw is replaced by the engine's exact
    integer allocation (mirrored by the SQL oracle):
    g_i = (delta_i * G) // S with S = sum(delta), and the first
    (G - sum g_i) base samples by id ascending get one extra.  An
    all-interior class (S == 0, imblearn raises) falls back to
    delta_i = 1 uniform.  Generation mirrors SMOTE: the t-th
    synthetic of class c (t = position in the id-ascending blocks of
    g_i copies) interpolates its base towards same-class k-NN slot
    (t*7 + 3) mod k with lam = ((t*31 + 11) mod 997)/997;
    syn_id = c*100000 + t."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    u, cnt = np.unique(cls, return_counts=True)
    maj_i = np.lexsort((u, -cnt))[0]
    maj_cnt = int(cnt[maj_i])
    plan = []
    for ci, c in enumerate(u):
        if ci == maj_i or cnt[ci] == maj_cnt:
            continue
        cmask = cls == c
        cX, cids = X[cmask], ids[cmask]
        n_c = len(cids)
        G = maj_cnt - n_c
        delta = np.empty(n_c, dtype=np.int64)
        nbrs = np.empty((n_c, k), dtype=np.int64)
        for lo in range(0, n_c, batch_size):
            hi = min(lo + batch_size, n_c)
            # ratio kNN over the WHOLE set (all classes)
            d2a = _d2_block(cX[lo:hi], X)
            nbr_all, _ = _knn_ids(d2a, ids, k, exclude_ids=cids[lo:hi])
            ncls = cls[np.searchsorted(ids, nbr_all)]
            delta[lo:hi] = (ncls != c).sum(axis=1)
            # generation kNN within the class
            d2c = _d2_block(cX[lo:hi], cX)
            nbrs[lo:hi] = _knn_ids(
                d2c, cids, k, exclude_ids=cids[lo:hi]
            )[0]
        S = int(delta.sum())
        if S == 0:
            delta = np.ones(n_c, dtype=np.int64)
            S = n_c
        g = (delta * G) // S
        rem = G - int(g.sum())
        g[:rem] += 1
        # base index per synthetic t: blocks of g_i copies, ids asc
        base_of_t = np.repeat(np.arange(n_c), g)
        plan.append((int(c), G, cids, cX, nbrs, base_of_t))
    pref = ray.put(plan)
    total = sum(p[1] for p in plan)

    def gen(batch: pa.Table) -> pa.Table:
        t_all = batch["id"].to_numpy().astype(np.int64)
        p = ray.get(pref)
        outs = {"syn_id": [], "cls": [], **{c: [] for c in feat_cols}}
        off = 0
        for c, need, cids, cX, nbrs, base_of_t in p:
            tt = t_all[(t_all >= off) & (t_all < off + need)] - off
            if len(tt):
                base = base_of_t[tt]
                slot = (tt * 7 + 3) % nbrs.shape[1]
                lam = ((tt * 31 + 11) % 997) / 997.0
                nid = nbrs[base, slot]
                npos = np.searchsorted(cids, nid)
                outs["syn_id"].append(c * 100000 + tt)
                outs["cls"].append(np.full(len(tt), c, dtype=np.int64))
                for j, col in enumerate(feat_cols):
                    xb = cX[base, j]
                    xn = cX[npos, j]
                    outs[col].append(xb + lam * (xn - xb))
            off += need
        return pa.table(
            {
                "syn_id": np.concatenate(outs["syn_id"])
                if outs["syn_id"] else np.array([], dtype=np.int64),
                "cls": np.concatenate(outs["cls"])
                if outs["cls"] else np.array([], dtype=np.int64),
                **{
                    c: np.concatenate(outs[c])
                    if outs[c] else np.array([], dtype=np.float64)
                    for c in feat_cols
                },
            }
        )

    rng = ray.data.range(total).map_batches(
        lambda b: pa.table({"id": b["id"]}), batch_format="pyarrow"
    )
    return rng.map_batches(gen, batch_format="pyarrow", batch_size=batch_size)


def borderline_smote_oversample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    k: int = 5,
    m: int = 10,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """Borderline-SMOTE-1 (classimblearn.py
    borderline_smote_oversample_smpls via imblearn; Han et al. 2005,
    from scratch): a minority-class sample is DANGER iff, among its m
    nearest neighbours over the whole set (self excluded),
    the different-class count x satisfies m/2 <= x < m (x == m is
    noise, x < m/2 is safe; pinned as 2*x >= m AND x < m).  Only
    DANGER samples seed synthesis; the t-th synthetic of class c uses
    base = (t mod n_danger)-th danger id ascending, same-class k-NN
    slot (t*7+3) mod k and lam = ((t*31+11) mod 997)/997 — the SMOTE
    schedules.  A class with no danger samples synthesizes nothing
    (imblearn's in-danger early return)."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    u, cnt = np.unique(cls, return_counts=True)
    maj_i = np.lexsort((u, -cnt))[0]
    maj_cnt = int(cnt[maj_i])
    plan = []
    for ci, c in enumerate(u):
        if ci == maj_i or cnt[ci] == maj_cnt:
            continue
        cmask = cls == c
        cX, cids = X[cmask], ids[cmask]
        n_c = len(cids)
        danger = np.zeros(n_c, dtype=bool)
        nbrs = np.empty((n_c, k), dtype=np.int64)
        for lo in range(0, n_c, batch_size):
            hi = min(lo + batch_size, n_c)
            d2a = _d2_block(cX[lo:hi], X)
            nbr_all, _ = _knn_ids(d2a, ids, m, exclude_ids=cids[lo:hi])
            ncls = cls[np.searchsorted(ids, nbr_all)]
            x = (ncls != c).sum(axis=1)
            danger[lo:hi] = (2 * x >= m) & (x < m)
            d2c = _d2_block(cX[lo:hi], cX)
            nbrs[lo:hi] = _knn_ids(
                d2c, cids, k, exclude_ids=cids[lo:hi]
            )[0]
        didx = np.flatnonzero(danger)
        if len(didx) == 0:
            continue
        G = maj_cnt - n_c
        plan.append((int(c), G, cids, cX, nbrs, didx))
    pref = ray.put(plan)
    total = sum(p[1] for p in plan)

    def gen(batch: pa.Table) -> pa.Table:
        t_all = batch["id"].to_numpy().astype(np.int64)
        p = ray.get(pref)
        outs = {"syn_id": [], "cls": [], **{c: [] for c in feat_cols}}
        off = 0
        for c, need, cids, cX, nbrs, didx in p:
            tt = t_all[(t_all >= off) & (t_all < off + need)] - off
            if len(tt):
                base = didx[tt % len(didx)]
                slot = (tt * 7 + 3) % nbrs.shape[1]
                lam = ((tt * 31 + 11) % 997) / 997.0
                nid = nbrs[base, slot]
                npos = np.searchsorted(cids, nid)
                outs["syn_id"].append(c * 100000 + tt)
                outs["cls"].append(np.full(len(tt), c, dtype=np.int64))
                for j, col in enumerate(feat_cols):
                    xb = cX[base, j]
                    xn = cX[npos, j]
                    outs[col].append(xb + lam * (xn - xb))
            off += need
        return pa.table(
            {
                "syn_id": np.concatenate(outs["syn_id"])
                if outs["syn_id"] else np.array([], dtype=np.int64),
                "cls": np.concatenate(outs["cls"])
                if outs["cls"] else np.array([], dtype=np.int64),
                **{
                    c: np.concatenate(outs[c])
                    if outs[c] else np.array([], dtype=np.float64)
                    for c in feat_cols
                },
            }
        )

    rng = ray.data.range(total).map_batches(
        lambda b: pa.table({"id": b["id"]}), batch_format="pyarrow"
    )
    return rng.map_batches(gen, batch_format="pyarrow", batch_size=batch_size)


def all_knn_undersample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    n_neighbors: int = 3,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """AllKNN (classimblearn.py all_knn_undersample_smpls via
    imblearn): the k = 1..n_neighbors sweep of ENN — round k keeps a
    non-minority SURVIVOR only if all k of its nearest surviving
    neighbours (self excluded, (d2,id) ties) share its class; the
    minority class (fixed on the ORIGINAL counts) always survives.
    imblearn's early-termination guard (stop if the majority would
    drop below the minority) is not modelled — callers' fixtures must
    not trigger it (this one never loses a majority)."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    mino = minority_class(cls)
    alive = np.ones(len(ids), dtype=bool)
    for kk in range(1, n_neighbors + 1):
        aids, acls, aX = ids[alive], cls[alive], X[alive]
        keep = np.zeros(len(ids), dtype=bool)
        pos_alive = np.flatnonzero(alive)
        for lo in range(0, len(aids), batch_size):
            hi = min(lo + batch_size, len(aids))
            d2 = _d2_block(aX[lo:hi], aX)
            nbr_ids, _ = _knn_ids(
                d2, aids, kk, exclude_ids=aids[lo:hi]
            )
            ncls = acls[np.searchsorted(aids, nbr_ids)]
            agree = (ncls == acls[lo:hi, None]).all(axis=1)
            keep[pos_alive[lo:hi]] = (acls[lo:hi] == mino) | agree
        alive = keep
    kref = ray.put(set(ids[alive].tolist()))

    def f(batch: pa.Table) -> pa.Table:
        kset = ray.get(kref)
        keep = np.isin(
            batch[id_col].to_numpy().astype(np.int64), list(kset)
        )
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def smote_enn_combined(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    k: int = 5,
    n_neighbors: int = 3,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """SMOTEENN (classimblearn.py smoteenn_combined_sample_smpls via
    imblearn): SMOTE to the majority count, then
    EditedNearestNeighbours with sampling_strategy='all' (the
    SMOTEENN default — EVERY class is cleaned, no minority
    exemption) over the combined set.  The ENN distances involve the
    synthetic floats; to keep them exact the combined set is held at
    a x997 integer scale internally: a synthetic feature
    xb + (m/997)*(xn - xb) is EXACTLY (997*xb + m*(xn - xb))/997, so
    scaled features are int64 and the 3-NN order is an exact integer
    comparison (the lam quantization pin, mirrored by the SQL
    oracle).  Output features are the single-division floats;
    original rows keep ids, synthetics use c*100000 + t."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    u, cnt = np.unique(cls, return_counts=True)
    maj_i = np.lexsort((u, -cnt))[0]
    maj_cnt = int(cnt[maj_i])
    all_ids = [ids]
    all_cls = [cls]
    all_X997 = [X * 997]
    for ci, c in enumerate(u):
        if ci == maj_i or cnt[ci] == maj_cnt:
            continue
        cmask = cls == c
        cX, cids = X[cmask], ids[cmask]
        n_c = len(cids)
        need = maj_cnt - n_c
        nbrs = np.empty((n_c, k), dtype=np.int64)
        for lo in range(0, n_c, batch_size):
            hi = min(lo + batch_size, n_c)
            d2 = _d2_block(cX[lo:hi], cX)
            nbrs[lo:hi] = _knn_ids(
                d2, cids, k, exclude_ids=cids[lo:hi]
            )[0]
        tt = np.arange(need, dtype=np.int64)
        base = tt % n_c
        slot = (tt * 7 + 3) % k
        mq = (tt * 31 + 11) % 997
        nid = nbrs[base, slot]
        npos = np.searchsorted(cids, nid)
        synX = 997 * cX[base] + mq[:, None] * (cX[npos] - cX[base])
        all_ids.append(c * 100000 + tt)
        all_cls.append(np.full(need, c, dtype=np.int64))
        all_X997.append(synX)
    cids_all = np.concatenate(all_ids)
    ccls_all = np.concatenate(all_cls)
    cX997 = np.concatenate(all_X997)
    order = np.argsort(cids_all)
    cids_all, ccls_all, cX997 = (
        cids_all[order], ccls_all[order], cX997[order],
    )
    # ENN sampling_strategy='all' over the x997-scaled integers
    keep = np.zeros(len(cids_all), dtype=bool)
    for lo in range(0, len(cids_all), batch_size):
        hi = min(lo + batch_size, len(cids_all))
        d2 = _d2_block(cX997[lo:hi], cX997)
        nbr_ids, _ = _knn_ids(
            d2, cids_all, n_neighbors, exclude_ids=cids_all[lo:hi]
        )
        ncls = ccls_all[np.searchsorted(cids_all, nbr_ids)]
        keep[lo:hi] = (ncls == ccls_all[lo:hi, None]).all(axis=1)
    out_tbl = pa.table(
        {
            "out_id": cids_all[keep],
            "cls": ccls_all[keep],
            **{
                col: (cX997[keep, j] / 997.0)
                for j, col in enumerate(feat_cols)
            },
        }
    )
    return partition.table_blocks(out_tbl, 4)


def smote_tomek_combined(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    k: int = 5,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """SMOTETomek (classimblearn.py:504
    smotetomek_combined_sample_smpls via imblearn): SMOTE to the
    majority count, then TomekLinks with sampling_strategy='all'
    (the SMOTETomek default — BOTH members of every differing-class
    mutual-1-NN pair are removed, no minority exemption) over the
    combined set.  Same x997 integer internal scale as
    ``smote_enn_combined`` so the post-SMOTE 1-NN order is an exact
    integer comparison; ties (d2, id) ascending."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    u, cnt = np.unique(cls, return_counts=True)
    maj_i = np.lexsort((u, -cnt))[0]
    maj_cnt = int(cnt[maj_i])
    all_ids = [ids]
    all_cls = [cls]
    all_X997 = [X * 997]
    for ci, c in enumerate(u):
        if ci == maj_i or cnt[ci] == maj_cnt:
            continue
        cmask = cls == c
        cX, cids = X[cmask], ids[cmask]
        n_c = len(cids)
        need = maj_cnt - n_c
        nbrs = np.empty((n_c, k), dtype=np.int64)
        for lo in range(0, n_c, batch_size):
            hi = min(lo + batch_size, n_c)
            d2 = _d2_block(cX[lo:hi], cX)
            nbrs[lo:hi] = _knn_ids(
                d2, cids, k, exclude_ids=cids[lo:hi]
            )[0]
        tt = np.arange(need, dtype=np.int64)
        base = tt % n_c
        slot = (tt * 7 + 3) % k
        mq = (tt * 31 + 11) % 997
        nid = nbrs[base, slot]
        npos = np.searchsorted(cids, nid)
        synX = 997 * cX[base] + mq[:, None] * (cX[npos] - cX[base])
        all_ids.append(c * 100000 + tt)
        all_cls.append(np.full(need, c, dtype=np.int64))
        all_X997.append(synX)
    cids_all = np.concatenate(all_ids)
    ccls_all = np.concatenate(all_cls)
    cX997 = np.concatenate(all_X997)
    order = np.argsort(cids_all)
    cids_all, ccls_all, cX997 = (
        cids_all[order], ccls_all[order], cX997[order],
    )
    # Tomek sampling_strategy='all' over the x997-scaled integers
    nn1 = np.empty(len(cids_all), dtype=np.int64)
    for lo in range(0, len(cids_all), batch_size):
        hi = min(lo + batch_size, len(cids_all))
        d2 = _d2_block(cX997[lo:hi], cX997)
        nn1[lo:hi] = _knn_ids(
            d2, cids_all, 1, exclude_ids=cids_all[lo:hi]
        )[0][:, 0]
    pos = np.searchsorted(cids_all, nn1)
    mutual = nn1[pos] == cids_all
    link = mutual & (ccls_all != ccls_all[pos])
    keep = ~link
    out_tbl = pa.table(
        {
            "out_id": cids_all[keep],
            "cls": ccls_all[keep],
            **{
                col: (cX997[keep, j] / 997.0)
                for j, col in enumerate(feat_cols)
            },
        }
    )
    return partition.table_blocks(out_tbl, 4)


def one_sided_selection_undersample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """OneSidedSelection (classimblearn.py:419
    one_sided_sel_undersample_smpls via imblearn; Kubat & Matwin
    1997 as implemented by imbalanced-learn): for each non-minority
    class c, fit a 1-NN classifier on C = (all minority samples +
    ONE seed sample of class c) and keep, besides the seed, only the
    class-c samples that C MISCLASSIFIES (one shot — imblearn's OSS
    does NOT grow the store, unlike Hart's CNN); minority rows always
    survive.  Then TomekLinks with the default 'auto' strategy drops
    the non-minority member of every differing-class mutual-1-NN
    pair.  imblearn's ``random_state.randint`` seed draw is replaced
    by the LOWEST-ID class-c sample (the splitmix64-free pinned
    substitution used across this family); 1-NN ties (d2, id)
    ascending, exact integer distances."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    mino = minority_class(cls)
    mmask = cls == mino
    keep_mask = mmask.copy()
    for c in np.unique(cls):
        if int(c) == mino:
            continue
        cmask = cls == c
        cids = ids[cmask]
        cX = X[cmask]
        # pinned seed: lowest id of the class (ids are sorted asc)
        C_X = np.concatenate([X[mmask], cX[:1]])
        C_ids = np.concatenate([ids[mmask], cids[:1]])
        C_cls = np.concatenate(
            [cls[mmask], np.array([c], dtype=np.int64)]
        )
        S_X, S_ids = cX[1:], cids[1:]
        pred = np.empty(len(S_ids), dtype=np.int64)
        for lo in range(0, len(S_ids), batch_size):
            hi = min(lo + batch_size, len(S_ids))
            d2 = _d2_block(S_X[lo:hi], C_X)
            nbr = _knn_ids(d2, C_ids, 1)[0][:, 0]
            # C ids are not sorted (seed appended); map via argsort
            co = np.argsort(C_ids)
            pred[lo:hi] = C_cls[co[np.searchsorted(C_ids[co], nbr)]]
        mis_ids = S_ids[pred != c]
        keep_mask |= np.isin(ids, np.concatenate([cids[:1], mis_ids]))
    kids = ids[keep_mask]
    kcls = cls[keep_mask]
    kX = X[keep_mask]
    # Tomek 'auto': drop non-minority members of mutual links
    nn1 = np.empty(len(kids), dtype=np.int64)
    for lo in range(0, len(kids), batch_size):
        hi = min(lo + batch_size, len(kids))
        d2 = _d2_block(kX[lo:hi], kX)
        nn1[lo:hi] = _knn_ids(
            d2, kids, 1, exclude_ids=kids[lo:hi]
        )[0][:, 0]
    pos = np.searchsorted(kids, nn1)
    mutual = nn1[pos] == kids
    link = mutual & (kcls != kcls[pos])
    drop = link & (kcls != mino)
    out_tbl = pa.table(
        {
            "id": kids[~drop],
            "cls": kcls[~drop],
            **{
                col: kX[~drop, j]
                for j, col in enumerate(feat_cols)
            },
        }
    )
    return partition.table_blocks(out_tbl, 4)


def condensed_nn_undersample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """CondensedNearestNeighbour (classimblearn.py:390
    condensed_near_neigh_undersample_smpls via imblearn; Hart 1968):
    per non-minority class c the STORE starts as all minority
    samples + one seed of class c, then class-c samples are scanned
    and every sample the store's 1-NN rule MISCLASSIFIES is added to
    the store immediately (later samples in the same pass see it);
    passes repeat over the class until one makes no additions (the
    Hart fixpoint).  Output = the union of the per-class stores
    (minority survives whole, each majority class keeps its
    condensed set).

    Pinned substitutions (the family contract): imblearn's
    random-seed draw -> the LOWEST-ID class-c sample; its single
    re-predict-S loop -> Hart's published multi-pass scan; scan
    order = id ascending; 1-NN ties (d2, id) ascending over exact
    integer distances.  The scan is inherently sequential (the store
    grows mid-pass), so it runs on the driver over the broadcast
    feature matrix — the same small-side contract as the rest of
    this family — while the SQL oracle replays the identical
    scan as a recursive CTE carrying the store list.  A store
    member scanning itself is its own 0-distance 1-NN (self-pairs
    kept in the distance relation), so it classifies correctly and
    is never re-added — the skip rule needs no special case."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    mino = minority_class(cls)
    keep = np.zeros(len(ids), dtype=bool)
    keep[cls == mino] = True
    d2max = int(
        max(
            (int(X[:, j].max()) - int(X[:, j].min())) ** 2
            for j in range(X.shape[1])
        )
    ) * X.shape[1]
    assert d2max * 1048576 + len(ids) < (1 << 62)
    assert int(ids.max()) < 1048576
    for c in np.unique(cls):
        if int(c) == mino:
            continue
        cmask = cls == c
        cids = ids[cmask]
        cX = X[cmask]
        store = (cls == mino).copy()
        store[np.searchsorted(ids, cids[0])] = True
        D = np.empty((len(cids), len(ids)), dtype=np.int64)
        for lo in range(0, len(cids), batch_size):
            hi = min(lo + batch_size, len(cids))
            D[lo:hi] = _d2_block(cX[lo:hi], X)
        key_all = D * 1048576 + ids[None, :]
        changed = True
        while changed:
            changed = False
            for si in range(len(cids)):
                cand = np.flatnonzero(store)
                nn_pos = cand[np.argmin(key_all[si, cand])]
                if cls[nn_pos] != c:
                    store[np.searchsorted(ids, cids[si])] = True
                    changed = True
        keep |= store & cmask
    out_tbl = pa.table(
        {
            "id": ids[keep],
            "cls": cls[keep],
            **{
                col: X[keep, j]
                for j, col in enumerate(feat_cols)
            },
        }
    )
    return partition.table_blocks(out_tbl, 4)


def repeated_enn_undersample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    n_neighbors: int = 3,
    max_iter: int = 100,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """RepeatedEditedNearestNeighbours (classimblearn.py
    repeat_edited_near_neigh_undersample_smpls via imblearn): the
    all-agree ENN edit (k = n_neighbors, minority fixed on ORIGINAL
    counts always survives) repeated over its own survivors until a
    round removes nothing (or max_iter).  ENN is monotone —
    re-editing a converged set removes nothing — so a SQL oracle may
    simply unroll >= the convergence round count; the engine loops to
    the true fixpoint."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    mino = minority_class(cls)
    alive = np.ones(len(ids), dtype=bool)
    for _ in range(max_iter):
        aids, acls, aX = ids[alive], cls[alive], X[alive]
        keep_local = np.zeros(len(aids), dtype=bool)
        for lo in range(0, len(aids), batch_size):
            hi = min(lo + batch_size, len(aids))
            d2 = _d2_block(aX[lo:hi], aX)
            nbr_ids, _ = _knn_ids(
                d2, aids, n_neighbors, exclude_ids=aids[lo:hi]
            )
            ncls = acls[np.searchsorted(aids, nbr_ids)]
            agree = (ncls == acls[lo:hi, None]).all(axis=1)
            keep_local[lo:hi] = (acls[lo:hi] == mino) | agree
        if keep_local.all():
            break
        nxt = np.zeros(len(ids), dtype=bool)
        nxt[np.flatnonzero(alive)[keep_local]] = True
        alive = nxt
    kref = ray.put(set(ids[alive].tolist()))

    def f(batch: pa.Table) -> pa.Table:
        kset = ray.get(kref)
        keep = np.isin(
            batch[id_col].to_numpy().astype(np.int64), list(kset)
        )
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def ncl_undersample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    n_neighbors: int = 3,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """NeighbourhoodCleaningRule (classimblearn.py
    neighbourhood_clean_undersample_smpls via imblearn; Laurikkala
    2001, from scratch).  With vote(i) = the most frequent class
    among i's k nearest neighbours (self excluded, (d2,id) ties;
    vote ties -> LOWEST class id):

    - A1 = non-minority rows misclassified by the vote;
    - A2 = the non-minority members of the k-NN of every MINORITY
      row misclassified by the vote;
    - drop A1 union A2 (minority rows always survive)."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    mino = minority_class(cls)
    n = len(ids)
    drop: set[int] = set()
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        d2 = _d2_block(X[lo:hi], X)
        nbr_ids, _ = _knn_ids(
            d2, ids, n_neighbors, exclude_ids=ids[lo:hi]
        )
        npos = np.searchsorted(ids, nbr_ids)
        ncls = cls[npos]
        # vote: max count, ties by lowest class id
        votes = np.empty(hi - lo, dtype=np.int64)
        u_all = np.unique(cls)
        counts = np.stack(
            [(ncls == c).sum(axis=1) for c in u_all]
        )  # (n_classes, rows)
        best = np.argmax(counts, axis=0)  # first max = lowest cls id
        votes = u_all[best]
        mis = votes != cls[lo:hi]
        # A1: misclassified non-minority rows
        a1 = ids[lo:hi][(cls[lo:hi] != mino) & mis]
        drop.update(a1.tolist())
        # A2: non-minority neighbours of misclassified minority rows
        mrows = np.flatnonzero((cls[lo:hi] == mino) & mis)
        if len(mrows):
            nn = nbr_ids[mrows]
            nc = ncls[mrows]
            drop.update(nn[nc != mino].tolist())
    dref = ray.put(drop)

    def f(batch: pa.Table) -> pa.Table:
        d = ray.get(dref)
        bid = batch[id_col].to_numpy().astype(np.int64)
        bcl = batch[class_col].to_numpy().astype(np.int64)
        keep = (bcl == mino) | ~np.isin(bid, list(d))
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def cluster_centroid_undersample(
    ds: ray.data.Dataset,
    id_col: str,
    class_col: str,
    feat_cols: list[str],
    n_iter: int = 3,
) -> ray.data.Dataset:
    """ClusterCentroids (classimblearn.py
    cluster_centroid_undersample_smpls via imblearn): every
    non-minority class is replaced by n_minority k-means centroids.
    sklearn's randomized to-convergence KMeans is replaced by the
    engine's deterministic pinned variant (mirrored by the SQL
    oracle): seeds = the class samples at id-ascending positions
    floor(j*n_c/k); exactly ``n_iter`` Lloyd rounds; assignment by
    (squared distance, centroid index) ascending; an empty cluster
    keeps its previous centroid.  Centroid updates are exact integer
    sums with one division, so every round is bit-replayable.
    Output: minority rows (out_id = id) + centroids
    (out_id = cls*100000 + j) with float features."""
    ids, cls, X = _gather(ds, id_col, class_col, feat_cols)
    mino = minority_class(cls)
    n_min = int((cls == mino).sum())
    rows_id = [ids[cls == mino]]
    rows_cls = [cls[cls == mino]]
    rows_X = [X[cls == mino].astype(np.float64)]
    for c in np.unique(cls):
        if int(c) == mino:
            continue
        cmask = cls == c
        cX = X[cmask].astype(np.float64)
        n_c = len(cX)
        k = min(n_min, n_c)
        seeds = (np.arange(k, dtype=np.int64) * n_c) // k
        cent = cX[seeds].copy()
        for _ in range(n_iter):
            # assignment by (d2, centroid idx)
            d2 = (
                ((cX[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
            )
            assign = np.argmin(d2, axis=1)  # first min = lowest idx
            for j in range(k):
                sel = assign == j
                if sel.any():
                    cent[j] = cX[sel].sum(axis=0) / float(sel.sum())
        rows_id.append(int(c) * 100000 + np.arange(k, dtype=np.int64))
        rows_cls.append(np.full(k, c, dtype=np.int64))
        rows_X.append(cent)
    out = pa.table(
        {
            "out_id": np.concatenate(rows_id),
            "cls": np.concatenate(rows_cls),
            **{
                col: np.concatenate([x[:, j] for x in rows_X])
                for j, col in enumerate(feat_cols)
            },
        }
    )
    return partition.table_blocks(out, 4)
