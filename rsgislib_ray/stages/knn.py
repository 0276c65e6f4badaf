"""k-nearest-neighbour joins and radius counts.

Reimplements:
- ``match_closest_vec_pts`` 1-NN attribute-copy join
  (/root/reference/python/rsgislib/vectorutils/__init__.py:3482-3598):
  the reference builds a FULL base x target distance matrix (:3537),
  takes the row argmin, RAISES on exact distance ties (:3553-3557), and
  a ``tolerance`` subsets the output to matches within range
  (:3586-3587).
- ``calc_npts_in_radius`` self radius-count (vectorattrs/__init__.py:
  1104-1157; subtracts self at :1152).
- RAT kNN defaults k=12, distance thresholds
  (/root/reference/src/rastergis/RSGISRATKNN.h:63) motivate the k>1
  long-format output.

Physical strategies (the target side is broadcast once via
``ray.put``; base point batches stream through stateless tasks that
read it from the per-process cache — no shuffle):
- ``brute``: chunked vectorized distance matrix — exact, right when
  targets fit comfortably (the reference's own envelope).
- ``grid``: cell-bucket index + Chebyshev ring expansion; a point is
  finished once its kth distance <= r * cell_w (any target in a
  farther ring is at least that far), matching brute exactly. This is
  the 100 TB path: the index build is O(T log T) once, on the driver;
  per-batch cost is local.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.functions.arrayops import expand, run_lookup, run_table
from rsgislib_ray.functions.cells import DEFAULT_FRAME

_CHUNK_ELEMS = 8_000_000  # max base*target distance-matrix elements


class KNNTieError(ValueError):
    """Exact-distance tie with tie='error' (reference raise semantics,
    vectorutils/__init__.py:3553-3557)."""


class _TargetIndex:
    """Broadcastable target-side state: coords + optional grid buckets."""

    def __init__(self, tbl: pa.Table, id_col: str, x_col: str, y_col: str,
                 attr_cols, grid_level: int | None):
        self.ids = tbl[id_col].to_numpy().astype(np.int64)
        self.tx = tbl[x_col].to_numpy().astype(np.float64)
        self.ty = tbl[y_col].to_numpy().astype(np.float64)
        self.attrs = tbl.select(attr_cols) if attr_cols else None
        # id-ascending permutation: lets the brute path resolve distance
        # ties with ONE stable argsort (ORDER BY dist, id) per chunk
        self.id_order = np.argsort(self.ids, kind="stable")
        self.grid_level = grid_level
        if grid_level is not None:
            n = 1 << grid_level
            cw = DEFAULT_FRAME.width / n
            col = np.clip(np.floor((self.tx - DEFAULT_FRAME.x0) / cw), 0, n - 1)
            row = np.clip(np.floor((self.ty - DEFAULT_FRAME.y0) / cw), 0, n - 1)
            key = (row * n + col).astype(np.int64)
            self.order = np.argsort(key, kind="stable")
            # targets of cell run i: order[starts[i]:starts[i + 1]]
            self.cells, self.starts = run_table(key[self.order])
            self.cell_w = cw
            self.n_side = n


_METRICS = ("euclidean", "manhattan", "chebyshev", "minkowski", "mahalanobis")


def _pair_dist(dx, dy, metric: str, p: float, vi):
    """Vectorized 2-D distance matrix for the RAT-kNN metric set
    (/root/reference/src/rastergis/RSGISRATKNN.h:63: euclid, mahalanobis,
    manhattan, minkowski, chebyshev). Euclidean returns the SQUARED
    distance (ordering-equivalent, matches the oracle formulas); the
    others return the metric value itself."""
    if metric == "euclidean":
        return dx * dx + dy * dy
    if metric == "manhattan":
        return np.abs(dx) + np.abs(dy)
    if metric == "chebyshev":
        return np.maximum(np.abs(dx), np.abs(dy))
    if metric == "minkowski":
        return (np.abs(dx) ** p + np.abs(dy) ** p) ** (1.0 / p)
    if metric == "mahalanobis":
        a, b, c = vi  # inverse-covariance [[a, b], [b, c]]
        return a * dx * dx + 2.0 * b * dx * dy + c * dy * dy
    raise ValueError(f"unknown metric {metric!r}")


def _topk_brute(px, py, idx: _TargetIndex, k: int, metric: str = "euclidean",
                p: float = 3.0, vi=None):
    """Chunked exact top-k: returns (dist, target_pos) arrays of
    shape (B, k) padded with inf / -1, plus a tie flag per point for
    k=1."""
    B = len(px)
    T = len(idx.tx)
    kk = min(k, T)
    out_d = np.full((B, kk), np.inf)
    out_i = np.full((B, kk), -1, dtype=np.int64)
    tie = np.zeros(B, dtype=bool)
    step = max(1, _CHUNK_ELEMS // max(T, 1))
    for s in range(0, B, step):
        e = min(B, s + step)
        dx = px[s:e, None] - idx.tx[None, :]
        dy = py[s:e, None] - idx.ty[None, :]
        d = _pair_dist(dx, dy, metric, p, vi)
        # Widened survivor window: lattice coordinates make equal
        # distances COMMON, so the window carries 16 columns of slack
        # beyond kk+1 — tie runs at the kth boundary almost always end
        # inside it, keeping the fixup a cheap vectorized re-sort of
        # survivors instead of a full-row sort.
        W = min(T, kk + 17)
        if W < T:
            part = np.argpartition(d, W - 1, axis=1)[:, :W]
        else:
            part = np.broadcast_to(np.arange(T), (e - s, T)).copy()
        pd = np.take_along_axis(d, part, axis=1)
        o = np.argsort(pd, axis=1, kind="stable")
        pd_sorted = np.take_along_axis(pd, o, axis=1)
        pi_sorted = np.take_along_axis(part, o, axis=1)
        # deterministic ordering for equal distances: by target id
        # (ORDER BY dist, target_id), fully vectorized: rows with ANY
        # adjacent equal distance re-sort their survivors by id first
        # (stable), then by distance (stable) — a rowwise lexsort.
        if pd_sorted.shape[1] > 1:
            rows = np.flatnonzero(
                (pd_sorted[:, :-1] == pd_sorted[:, 1:]).any(axis=1)
            )
            if len(rows):
                ids_s = idx.ids[pi_sorted[rows]]
                o1 = np.argsort(ids_s, axis=1, kind="stable")
                pd_r = np.take_along_axis(pd_sorted[rows], o1, axis=1)
                pi_r = np.take_along_axis(pi_sorted[rows], o1, axis=1)
                o2 = np.argsort(pd_r, axis=1, kind="stable")
                pd_sorted[rows] = np.take_along_axis(pd_r, o2, axis=1)
                pi_sorted[rows] = np.take_along_axis(pi_r, o2, axis=1)
                tie[s + rows] = pd_sorted[rows, 0] == pd_sorted[rows, 1]
                if W < T:
                    # a tie run covering the ENTIRE slack escapes the
                    # window; those (rare) rows get the exact full-row
                    # (dist, id) sort over the id-ascending permutation
                    esc = rows[
                        pd_sorted[rows, kk - 1] == pd_sorted[rows, W - 1]
                    ]
                    if len(esc):
                        io = idx.id_order
                        D2 = d[esc][:, io]
                        oo = np.argsort(D2, axis=1, kind="stable")[:, :W]
                        pi_sorted[esc] = io[oo]
                        pd_sorted[esc] = np.take_along_axis(D2, oo, axis=1)
                        tie[s + esc] = (
                            pd_sorted[esc, 0] == pd_sorted[esc, 1]
                        )
        out_d[s:e] = pd_sorted[:, :kk]
        out_i[s:e] = pi_sorted[:, :kk]
    return out_d, out_i, tie


def _topk_grid(px, py, idx: _TargetIndex, k: int):
    """Ring-expansion exact top-k over the cell-bucket index.

    Internally tracks at least 2 neighbours so the 1-NN tie flag can be
    recomputed once from the FINAL merged result (an equidistant pair
    seen in an early ring must not flag a tie when a later ring holds a
    strictly nearer unique neighbour)."""
    B = len(px)
    T = len(idx.tx)
    out_k = min(k, T)
    kk = min(max(k, 2), T)  # track top-2 minimum for exact tie detection
    n = idx.n_side
    cw = idx.cell_w
    pcol = np.clip(np.floor((px - DEFAULT_FRAME.x0) / cw), 0, n - 1).astype(np.int64)
    prow = np.clip(np.floor((py - DEFAULT_FRAME.y0) / cw), 0, n - 1).astype(np.int64)

    best_d = np.full((B, kk), np.inf)
    best_i = np.full((B, kk), -1, dtype=np.int64)
    alive = np.arange(B)
    r = 0
    max_r = 2 * n
    while len(alive) and r <= max_r:
        # candidate cells on ring r for every alive point
        offs = (
            [(0, 0)]
            if r == 0
            else [
                (dc, dr)
                for dc in range(-r, r + 1)
                for dr in range(-r, r + 1)
                if max(abs(dc), abs(dr)) == r
            ]
        )
        cand_p = []
        cand_t = []
        for dc, dr in offs:
            c2 = pcol[alive] + dc
            r2 = prow[alive] + dr
            ok = (c2 >= 0) & (c2 < n) & (r2 >= 0) & (r2 < n)
            if not ok.any():
                continue
            key = r2[ok] * n + c2[ok]
            lo, cnt = run_lookup(idx.cells, idx.starts, key)
            nz = cnt > 0
            if not nz.any():
                continue
            rep, within = expand(cnt[nz])
            cand_p.append(alive[ok][nz][rep])
            cand_t.append(idx.order[lo[nz][rep] + within])
        if cand_p:
            pp = np.concatenate(cand_p)
            tt = np.concatenate(cand_t)
            dx = px[pp] - idx.tx[tt]
            dy = py[pp] - idx.ty[tt]
            dd = dx * dx + dy * dy
            # merge candidates with current bests per point
            allp = np.concatenate([pp, np.repeat(alive, kk)])
            alld = np.concatenate([dd, best_d[alive].ravel()])
            alli = np.concatenate([tt, best_i[alive].ravel()])
            allid = np.where(alli >= 0, idx.ids[np.maximum(alli, 0)], np.int64(2**62))
            order = np.lexsort((allid, alld, allp))
            allp, alld, alli = allp[order], alld[order], alli[order]
            starts = np.concatenate([[0], np.flatnonzero(np.diff(allp)) + 1])
            counts = np.diff(np.concatenate([starts, [len(allp)]]))
            rank = np.arange(len(allp)) - np.repeat(starts, counts)
            keep = rank < kk
            kp, kd, ki, kr = allp[keep], alld[keep], alli[keep], rank[keep]
            best_d[kp, kr] = kd
            best_i[kp, kr] = ki
        # finish condition: kth distance within the guaranteed ring bound
        kth = best_d[alive, kk - 1]
        bound = (r * cw) ** 2  # any target in ring > r is at least r*cw away
        done = (kth <= bound) & np.isfinite(kth)
        alive = alive[~done]
        r += 1
    # 1-NN tie flag from the FINAL merged top-2 (not or-ed per ring)
    if kk >= 2:
        tie = (best_d[:, 0] == best_d[:, 1]) & (best_i[:, 1] >= 0)
    else:
        tie = np.zeros(B, dtype=bool)
    return best_d[:, :out_k], best_i[:, :out_k], tie


def _knn_batch(
    idx: _TargetIndex,
    batch: pa.Table,
    k: int,
    x_col: str,
    y_col: str,
    prefix: str,
    tie: str,
    tolerance: float | None,
    strategy: str,
    metric: str = "euclidean",
    minkowski_p: float = 3.0,
    vi=None,
) -> pa.Table:
    px = batch[x_col].to_numpy().astype(np.float64)
    py = batch[y_col].to_numpy().astype(np.float64)
    if metric != "euclidean":
        strategy = "brute"  # grid ring bound assumes euclidean geometry
    if strategy == "auto":
        # grid wins well below the old 20k cutoff: at 15k lattice targets
        # the ring search is ~100x cheaper than the full distance matrix
        strategy = (
            "grid" if (idx.grid_level is not None and len(idx.ids) > 2000) else "brute"
        )
    if strategy == "grid" and idx.grid_level is not None:
        d, i, tie_flags = _topk_grid(px, py, idx, k)
    else:
        d, i, tie_flags = _topk_brute(px, py, idx, k, metric, minkowski_p, vi)
    if tie == "error" and k == 1 and tie_flags.any():
        bad = int(np.flatnonzero(tie_flags)[0])
        raise KNNTieError(
            f"point row {bad} has two targets at identical distance "
            "(reference raises; pass tie='lowest' for deterministic "
            "lowest-id tiebreak)"
        )
    B, kk = d.shape
    rows = np.repeat(np.arange(B, dtype=np.int64), kk)
    rank = np.tile(np.arange(kk, dtype=np.int64), B)
    tpos = i.ravel()
    dist_sq = d.ravel()
    valid = tpos >= 0
    if tolerance is not None:
        # euclidean/mahalanobis carry SQUARED values in the dist column;
        # the other metrics carry the metric value itself, so compare
        # against the unsquared tolerance for them.
        thresh = (
            tolerance * tolerance
            if metric in ("euclidean", "mahalanobis")
            else tolerance
        )
        valid &= dist_sq <= thresh
    rows, rank, tpos, dist_sq = (
        rows[valid],
        rank[valid],
        tpos[valid],
        dist_sq[valid],
    )
    out = batch.take(pa.array(rows, type=pa.int64()))
    out = out.append_column(f"{prefix}rank", pa.array(rank + 1))
    out = out.append_column(
        f"{prefix}id", pa.array(idx.ids[tpos], type=pa.int64())
    )
    out = out.append_column(f"{prefix}dist_sq", pa.array(dist_sq))
    if idx.attrs is not None:
        taken = idx.attrs.take(pa.array(tpos, type=pa.int64()))
        for name in taken.column_names:
            out = out.append_column(
                f"{prefix}{name}", taken[name].combine_chunks()
            )
    return out


def _knn_task(
    batch: pa.Table,
    targets_ref=None,
    k: int = 1,
    x_col: str = "x",
    y_col: str = "y",
    prefix: str = "nn_",
    tie: str = "error",
    tolerance: float | None = None,
    strategy: str = "auto",
    metric: str = "euclidean",
    minkowski_p: float = 3.0,
    vi=None,
) -> pa.Table:
    from rsgislib_ray.state.broadcast import cached

    idx = cached(targets_ref)
    return _knn_batch(
        idx, batch, k, x_col, y_col, prefix, tie, tolerance, strategy,
        metric, minkowski_p, vi,
    )


def broadcast_targets(
    tbl: pa.Table,
    id_col: str = "target_id",
    x_col: str = "x",
    y_col: str = "y",
    attr_cols: list[str] | None = None,
    grid_level: int | None = 7,
):
    return ray.put(_TargetIndex(tbl, id_col, x_col, y_col, attr_cols, grid_level))


def knn_join(
    points: ray.data.Dataset,
    targets_tbl: pa.Table,
    k: int = 1,
    id_col: str = "target_id",
    target_x: str = "x",
    target_y: str = "y",
    attr_cols: list[str] | None = None,
    x_col: str = "x",
    y_col: str = "y",
    prefix: str = "nn_",
    tie: str = "error",
    tolerance: float | None = None,
    strategy: str = "auto",
    metric: str = "euclidean",
    minkowski_p: float = 3.0,
    concurrency=(1, 8),
    batch_size: int = 16384,
) -> ray.data.Dataset:
    """kNN join; ``metric`` covers the RAT-kNN set (RSGISRATKNN.h:63):
    euclidean (squared distances in the output column), manhattan,
    chebyshev, minkowski(p), mahalanobis (inverse covariance estimated
    from the target coordinates, like the reference's training-data
    covariance)."""
    vi = None
    if metric == "mahalanobis":
        tx = targets_tbl[target_x].to_numpy().astype(np.float64)
        ty = targets_tbl[target_y].to_numpy().astype(np.float64)
        cov = np.cov(np.stack([tx, ty]))
        inv = np.linalg.inv(cov)
        vi = (float(inv[0, 0]), float(inv[0, 1]), float(inv[1, 1]))
    ref = broadcast_targets(targets_tbl, id_col, target_x, target_y, attr_cols)
    return points.map_batches(
        _knn_task,
        fn_kwargs={
            "targets_ref": ref,
            "k": k,
            "x_col": x_col,
            "y_col": y_col,
            "prefix": prefix,
            "tie": tie,
            "tolerance": tolerance,
            "strategy": strategy,
            "metric": metric,
            "minkowski_p": minkowski_p,
            "vi": vi,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def radius_count(
    points: ray.data.Dataset,
    targets_tbl: pa.Table,
    radius: float,
    id_col: str = "target_id",
    x_col: str = "x",
    y_col: str = "y",
    exclude_self: bool = False,
    out_col: str = "n_in_radius",
    concurrency=(1, 8),
) -> ray.data.Dataset:
    """calc_npts_in_radius: per base point, how many targets lie within
    ``radius`` (strict <=). ``exclude_self`` subtracts the self match
    when base and target are the same layer (reference :1152).

    Scale path: cell-bucket index sized so one ring of cells covers the
    radius — per point only the O((2r/cell_w+1)^2) nearby buckets are
    distance-checked, instead of a B x T distance matrix."""
    # pick a grid level whose cell width ~ radius so the candidate
    # square is a small constant number of cells
    level = int(
        np.clip(
            np.floor(np.log2(DEFAULT_FRAME.width / max(radius, 1e-9))), 0, 10
        )
    )
    ref = broadcast_targets(targets_tbl, id_col, x_col, y_col, grid_level=level)
    r_sq = radius * radius

    def count_batch(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached

        idx: _TargetIndex = cached(ref)
        px = batch[x_col].to_numpy().astype(np.float64)
        py = batch[y_col].to_numpy().astype(np.float64)
        B = len(px)
        out = np.zeros(B, dtype=np.int64)
        n, cw = idx.n_side, idx.cell_w
        pcol = np.clip(
            np.floor((px - DEFAULT_FRAME.x0) / cw), 0, n - 1
        ).astype(np.int64)
        prow = np.clip(
            np.floor((py - DEFAULT_FRAME.y0) / cw), 0, n - 1
        ).astype(np.int64)
        rc = int(np.ceil(radius / cw)) + 1  # +1 covers edge-clipped points
        for dc in range(-rc, rc + 1):
            for dr in range(-rc, rc + 1):
                c2 = pcol + dc
                r2 = prow + dr
                ok = (c2 >= 0) & (c2 < n) & (r2 >= 0) & (r2 < n)
                if not ok.any():
                    continue
                key = r2[ok] * n + c2[ok]
                lo, cnt = run_lookup(idx.cells, idx.starts, key)
                nz = cnt > 0
                if not nz.any():
                    continue
                p_sel = np.flatnonzero(ok)[nz]
                rep, within = expand(cnt[nz])
                pp = p_sel[rep]
                tt = idx.order[lo[nz][rep] + within]
                dx = px[pp] - idx.tx[tt]
                dy = py[pp] - idx.ty[tt]
                hit = (dx * dx + dy * dy) <= r_sq
                out += np.bincount(pp[hit], minlength=B)
        if exclude_self:
            out -= 1
        return batch.append_column(out_col, pa.array(out))

    return points.map_batches(count_batch, batch_format="pyarrow", batch_size=16384)
