"""Zonal statistics — per-polygon aggregates over value cells.

Reimplements ``calc_zonal_band_stats``
(/root/reference/python/rsgislib/zonalstats/__init__.py:166-520) and the
RAT populators (``populate_rat_with_stats``,
/root/reference/src/rastergis/RSGISPopRATWithStats.cpp:144-341;
percentiles :513-558; mode rastergis.cpp:1807) as a two-stage
aggregation:

1. a partial kernel runs once per block of the cells
   (:func:`rsgislib_ray.stages.partition.map_blocks`: a plain task per
   block when the cells already hold their blocks, so no Ray Data
   execution starts; fused into the one materializing execution of a
   lazy plan). It reads the broadcast zone layer with its prebuilt
   cell-bucket index and the index's interior / boundary split
   (:func:`~rsgislib_ray.stages.spatial_join.broadcast_zones`,
   :attr:`~rsgislib_ray.stages.spatial_join.ZoneSet.cover`) and
   COMBINES WITHIN THE BLOCK (sort-free scatters into dense
   per-zone accumulators: ``np.bincount`` / ``np.add.at`` /
   ``np.minimum.at`` / ``np.maximum.at``): it emits
   one partial row per (block, zone) — count/sum/sumsq/min/max, or
   per-(zone, value) counts for the order statistics. The moment
   partial aggregates each occupied interior cell once (every point
   there lies in each rectangle zone whose interior holds the cell)
   and probes only the boundary entries per point, so its work is
   never more than expanding every (point, zone) pair. A probe finds
   each point's cell run with one ``searchsorted`` over the index's
   run table of occupied cells, repeats the point's coordinates over
   the run and keeps the matches by position (``np.flatnonzero`` and
   ``take``), with no per-candidate coordinate gather and no boolean
   compress. The value column must cast to int64 exactly, or the
   partial raises a ``ValueError`` naming it;
2. the partials reduce by fid (by (fid, value) for the histograms)
   through :func:`rsgislib_ray.stages.segsum.combine` — numpy scatters
   on the driver, or past a measured size the distributed
   hash-partitioned ``segment_sum`` — and one vectorized pass
   finalizes into a numpy fill of the fid-sorted zone table.

Pinned exact-match semantics (SURVEY.md §5):
- stddev is POPULATION std (ddof=0 — zonalstats/__init__.py:458), via
  ``sqrt(sumsq/n - (sum/n)^2)``; the two-pass C++ version
  (RSGISPopRATWithStats.cpp:340) is algebraically identical.
- mode ties -> SMALLEST modal value (scipy.stats.mstats.mode semantics,
  zonalstats/__init__.py:466-470).
- median = numpy median: mean of the two middle values for even counts
  (numpy.ma.median, :472-473).
- empty zone -> ``out_no_data`` in every requested field (:475-497).
- integer value columns make every distributed partial sum exact
  (associative) -> results independent of partitioning.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages.partition import held_blocks, map_blocks
from rsgislib_ray.stages.segsum import combine, combine_arrays, lookup
from rsgislib_ray.stages.spatial_join import ZoneSet, broadcast_zones
from rsgislib_ray.state.broadcast import cached

MOMENT_STATS = ("count", "sum", "min", "max", "mean", "stddev")
ORDER_STATS = ("mode", "median")


def _int_values(batch: pa.Table, value_col: str) -> np.ndarray:
    """The value column as int64. Raises a ``ValueError`` naming the
    column unless every value casts to int64 exactly: a fraction, a
    NaN (or null) or an out-of-range value would otherwise be
    truncated or wrapped without a word."""
    v = batch[value_col].to_numpy()
    with np.errstate(invalid="ignore"):  # NaN and overflow: caught below
        out = v.astype(np.int64, copy=False)
    if out is not v and not np.array_equal(out, v):
        bad = v[out != v][0]
        raise ValueError(
            f"zonal value column {value_col!r} must hold integers that "
            f"fit int64 (pre-scale it, see value_scale); got {bad!r}"
        )
    return out


def _moment_partial(
    batch: pa.Table,
    zones_ref=None,
    value_col: str = "val",
    x_col: str = "x",
    y_col: str = "y",
) -> pa.Table:
    """One partial row per zone touched by this batch.

    Accumulates into DENSE per-zone int64 arrays (``np.add.at`` for
    count, sum and sum of squares, ``np.minimum.at``/``np.maximum.at``
    for min and max) from two sources that together are exactly the
    batch's (point, zone) matches:

    - interior cells (:meth:`ZoneSet.cell_groups`): count, sum, sumsq,
      min and max are computed once per occupied cell, and each cell's
      aggregate is added to every zone whose interior holds the cell,
      with no per-point pair;
    - boundary entries: each point is probed against
      ``zones.cover[1]`` only, with the half-open / PIP refine, in
      point-chunks of ``MATCH_CHUNK``, so temporaries stay ~MBs on
      dense layers (>100 matches per point) and concurrent tasks do
      not fight for memory bandwidth.

    The work is never more than expanding every candidate pair: an
    interior entry is visited once per occupied cell, not once per
    point. A layer without rectangles is all boundary. Integer
    accumulators keep every result exact and independent of match
    order; a value column that does not cast to int64 exactly raises
    a ``ValueError``.
    """
    zones: ZoneSet = cached(zones_ref)
    px = batch[x_col].to_numpy()
    py = batch[y_col].to_numpy()
    vals_all = _int_values(batch, value_col)
    nz = len(zones)
    cnt_d = np.zeros(nz, dtype=np.int64)
    s_d = np.zeros(nz, dtype=np.int64)
    q_d = np.zeros(nz, dtype=np.int64)
    mn_d = np.full(nz, np.iinfo(np.int64).max)
    mx_d = np.full(nz, np.iinfo(np.int64).min)

    order, starts, cell, zone = zones.cell_groups(px, py)
    if len(zone):
        v = vals_all[order]
        np.add.at(cnt_d, zone, np.diff(starts, append=len(v))[cell])
        np.add.at(s_d, zone, np.add.reduceat(v, starts)[cell])
        np.add.at(q_d, zone, np.add.reduceat(v * v, starts)[cell])
        np.minimum.at(mn_d, zone, np.minimum.reduceat(v, starts)[cell])
        np.maximum.at(mx_d, zone, np.maximum.reduceat(v, starts)[cell])

    edge = zones.cover[1]
    step = zones.MATCH_CHUNK
    for cs in range(0, len(px), step):
        ce = min(len(px), cs + step)
        pi, zi = zones._match_points_chunk(edge, px[cs:ce], py[cs:ce])
        if len(pi) == 0:
            continue
        vals = vals_all[cs:ce].take(pi)
        cnt_d += np.bincount(zi, minlength=nz)
        np.add.at(s_d, zi, vals)
        np.add.at(q_d, zi, vals * vals)
        np.minimum.at(mn_d, zi, vals)
        np.maximum.at(mx_d, zi, vals)
    hit = np.flatnonzero(cnt_d)
    return pa.table(
        {
            "fid": zones.fid[hit],
            "cnt": cnt_d[hit],
            "sum_v": s_d[hit],
            "sumsq_v": q_d[hit],
            "min_v": mn_d[hit],
            "max_v": mx_d[hit],
        }
    )


def _value_count_partial(
    batch: pa.Table,
    zones_ref=None,
    value_col: str = "val",
    x_col: str = "x",
    y_col: str = "y",
) -> pa.Table:
    zones: ZoneSet = cached(zones_ref)
    idx = zones.index
    px = batch[x_col].to_numpy()
    py = batch[y_col].to_numpy()
    vals_all = _int_values(batch, value_col)
    nz = len(zones)
    uvals = np.unique(vals_all)
    V = len(uvals)
    step = zones.MATCH_CHUNK

    empty = pa.table(
        {
            "fid": pa.array([], pa.int64()),
            "val": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )

    if V * nz <= 8_000_000:
        # dense path (low-cardinality values — the exact-histogram model
        # the reference uses, RSGISPopRATWithStats.cpp:513): one bincount
        # per chunk into a (n_zones x V) counter — no sorting at all
        dense = np.zeros(nz * V, dtype=np.int64)
        for cs in range(0, len(px), step):
            ce = min(len(px), cs + step)
            pi, zi = zones._match_points_chunk(idx, px[cs:ce], py[cs:ce])
            if len(pi) == 0:
                continue
            vix = np.searchsorted(uvals, vals_all[cs:ce].take(pi))
            key = zi * V + vix
            dense += np.bincount(key, minlength=nz * V)
        hit = np.flatnonzero(dense)
        if len(hit) == 0:
            return empty
        return pa.table(
            {
                "fid": zones.fid[hit // V],
                "val": uvals[hit % V],
                "n": dense[hit],
            }
        )

    # sparse path (high-cardinality values): single sort over all
    # matched pairs of the batch
    all_z = []
    all_v = []
    for cs in range(0, len(px), step):
        ce = min(len(px), cs + step)
        pi, zi = zones._match_points_chunk(idx, px[cs:ce], py[cs:ce])
        if len(pi) == 0:
            continue
        all_z.append(zi)
        all_v.append(vals_all[cs:ce].take(pi))
    if not all_z:
        return empty
    z = np.concatenate(all_z)
    v = np.concatenate(all_v)
    order = np.lexsort((v, z))
    z, v = z[order], v[order]
    new = np.concatenate([[True], (z[1:] != z[:-1]) | (v[1:] != v[:-1])])
    starts = np.flatnonzero(new)
    counts = np.diff(np.concatenate([starts, [len(z)]]))
    return pa.table(
        {
            "fid": zones.fid[z[starts]],
            "val": v[starts],
            "n": counts.astype(np.int64),
        }
    )


def zonal_stats(
    cells: ray.data.Dataset,
    zones_tbl: pa.Table,
    value_col: str,
    stats: tuple[str, ...] = MOMENT_STATS,
    out_no_data: float = -9999.0,
    x_col: str = "x",
    y_col: str = "y",
    value_scale: float = 1.0,
) -> pa.Table:
    """Per-zone stats table (one row per zone fid, empty zones filled
    with ``out_no_data``). ``value_scale`` divides sums/means back to
    the natural unit when the value column is pre-scaled to integers
    (e.g. cents -> value_scale=100).

    Per-block partials reduce by fid through
    :func:`rsgislib_ray.stages.segsum.combine`: on the driver while
    the measured partial row count is at most ``AUTO_NATIVE_ROWS``,
    else distributed, with identical values since every partial is an
    exact integer. Asked for both moment and order stats, a lazy
    ``cells`` executes once: its blocks are held, then read by both
    partial kernels."""
    want_moments = [s for s in stats if s in MOMENT_STATS]
    # order stats: mode / median / pNN percentiles (numpy-linear
    # interpolation over the exact per-zone histogram — the reference's
    # exact-histogram percentile model, RSGISPopRATWithStats.cpp:513-558)
    want_order = [
        s
        for s in stats
        if s in ORDER_STATS or (s.startswith("p") and s[1:].isdigit())
    ]
    unknown = set(stats) - set(MOMENT_STATS) - set(want_order)
    if unknown:
        raise ValueError(f"unknown stats: {unknown}")
    kw = {
        "zones_ref": broadcast_zones(zones_tbl),
        "value_col": value_col,
        "x_col": x_col,
        "y_col": y_col,
    }
    if want_moments and want_order:
        # both families read the cells: hold a lazy plan's blocks once
        cells = held_blocks(cells)[0]

    # one output row per zone, fid-sorted: each family left-joins its
    # fid-sorted aggregate rows onto it, NaN where a zone has none
    fid = np.sort(zones_tbl["fid"].to_numpy(), kind="stable")
    out = {}

    def fill(agg_fid: np.ndarray, cols: dict) -> None:
        pos, hit = lookup(agg_fid, fid)
        for name, col in cols.items():
            out[name] = np.full(len(fid), np.nan)
            out[name][hit] = col[pos[hit]]

    if want_moments:
        agg = combine(
            map_blocks(cells, _moment_partial, **kw),
            "fid",
            ["cnt", "sum_v", "sumsq_v", "min_v", "max_v"],
            ["sum", "sum", "sum", "min", "max"],
        )
        cnt = agg["cnt"].to_numpy()
        s = agg["sum_v"].to_numpy()
        q = agg["sumsq_v"].to_numpy()
        m = cnt.astype(np.float64)
        sd = s.astype(np.float64)
        qd = q.astype(np.float64)
        mean = sd / m
        var = qd / m - (sd / m) * (sd / m)
        fill(
            agg["fid"].to_numpy(),
            {
                "count": m,
                "sum": sd / value_scale,
                "min": agg["min_v"].to_numpy().astype(np.float64) / value_scale,
                "max": agg["max_v"].to_numpy().astype(np.float64) / value_scale,
                "mean": mean / value_scale,
                "stddev": np.sqrt(var) / value_scale,
            },
        )

    if want_order:
        # (fid, val) histograms are pre-reduced per block; the combine
        # returns them sorted by (fid, val) for the finalize below.
        vc = combine(
            map_blocks(cells, _value_count_partial, **kw), ["fid", "val"], ["n"]
        )
        pcts = [
            (s, float(s[1:]) / 100.0)
            for s in want_order
            if s.startswith("p") and s[1:].isdigit()
        ]
        # VECTORIZED finalize over all zones at once (no per-zone Python
        # loop): vc is sorted by (fid, val); global cumsum is strictly
        # increasing, so the k-th order stat of zone f is one GLOBAL
        # searchsorted at (cumulative offset of f) + k.
        vals = vc["val"].to_numpy().astype(np.float64)
        counts = vc["n"].to_numpy()
        fids_v = vc["fid"].to_numpy()
        new = np.ones(len(fids_v), dtype=bool)
        new[1:] = fids_v[1:] != fids_v[:-1]
        starts = np.flatnonzero(new)
        run_len = np.diff(np.append(starts, len(fids_v)))
        run_fid = fids_v[starts]
        totals = np.add.reduceat(counts, starts)
        cum = np.cumsum(counts)
        off = cum[starts] - counts[starts]
        run_id = np.repeat(np.arange(len(starts)), run_len)
        # mode: smallest value among max-count (scipy mstats.mode)
        runmax = np.maximum.reduceat(counts, starts)
        mode = np.minimum.reduceat(
            np.where(counts == runmax[run_id], vals, np.inf), starts
        )

        def kth(k: np.ndarray) -> np.ndarray:
            return vals[np.searchsorted(cum, off + k, side="left")]

        k = totals // 2
        odd = totals % 2 == 1
        med_odd = kth(k + 1)
        med_even = (kth(np.maximum(k, 1)) + kth(k + 1)) / 2.0
        median = np.where(odd, med_odd, med_even)
        cols = {
            "mode": mode / value_scale,
            "median": median / value_scale,
        }
        for name_p, q in pcts:
            # numpy-linear: pos = (n-1)*q over the expanded multiset,
            # read order stats from the histogram without expanding
            pos = (totals - 1) * q
            lo_i = np.floor(pos)
            hi_i = np.ceil(pos)
            lo_v = kth(lo_i.astype(np.int64) + 1)
            hi_v = kth(hi_i.astype(np.int64) + 1)
            frac = pos - lo_i
            cols[name_p] = (lo_v + (hi_v - lo_v) * frac) / value_scale
        fill(run_fid, cols)

    # a zone no cell reached, and any NaN statistic, reads out_no_data
    res = {"fid": fid}
    for c in want_moments + want_order:
        res[c] = np.where(np.isnan(out[c]), out_no_data, out[c])
    if "count" in res:
        res["count"] = res["count"].astype(np.int64)
    return pa.table(res)


# ---------------------------------------------------------------------------
# K-means pixel clustering (imagecalc.kmeans_clustering,
# /root/reference/python/src/imagecalc.cpp:1889; ISODATA :1916)
# ---------------------------------------------------------------------------


def kmeans_cluster(
    cells: ray.data.Dataset,
    feature_cols: list[str],
    n_clusters: int = 8,
    iters: int = 10,
    sample_rows: int = 65536,
    init_centers=None,
) -> ray.data.Dataset:
    """Euclidean Lloyd's k-means over cell feature columns.

    Deterministic: centers initialize at evenly-spaced quantiles of a
    driver-side sample (no RNG; or at explicit ``init_centers``, which
    additionally makes the fit layout-independent and SQL-mirrorable
    when the features are integer-valued), a fixed iteration count runs
    over DISTRIBUTED partial sums (per-batch assign + sum/count
    partials -> exact combine -> new centers), then a final assign
    stage labels every cell. The fit loop is the two-phase map/reduce
    the reference does in C++ single-threaded."""
    import ray as _ray

    if init_centers is not None:
        C = np.asarray(init_centers, dtype=np.float64)
        n_clusters = len(C)
    else:
        sample = cells.limit(sample_rows).to_pandas()
        X = np.column_stack(
            [sample[c].to_numpy().astype(np.float64) for c in feature_cols]
        )
        qs = np.linspace(0, 100, n_clusters + 2)[1:-1]
        C = np.column_stack(
            [np.percentile(X[:, j], qs) for j in range(X.shape[1])]
        )

    for _ in range(iters):
        ref = _ray.put(C)

        def partial(batch: pa.Table) -> pa.Table:
            cc = cached(ref)
            M = np.column_stack(
                [batch[c].to_numpy().astype(np.float64) for c in feature_cols]
            )
            d = ((M[:, None, :] - cc[None, :, :]) ** 2).sum(axis=2)
            a = d.argmin(axis=1)
            sums = np.zeros_like(cc)
            cnts = np.zeros(len(cc), dtype=np.int64)
            np.add.at(sums, a, M)
            np.add.at(cnts, a, 1)
            cols = {"cluster": np.arange(len(cc), dtype=np.int64), "n": cnts}
            for j in range(cc.shape[1]):
                cols[f"s{j}"] = sums[:, j]
            return pa.table(cols)

        pdf = (
            cells.map_batches(partial, batch_format="pyarrow", batch_size=65536)
            .to_pandas()
            .groupby("cluster", as_index=False)
            .sum()
        )
        n = pdf["n"].to_numpy().astype(np.float64)
        newC = C.copy()
        nz = n > 0
        for j in range(C.shape[1]):
            newC[nz, j] = pdf[f"s{j}"].to_numpy()[nz] / n[nz]
        if np.allclose(newC, C, rtol=0, atol=1e-12):
            C = newC
            break
        C = newC

    ref = _ray.put(C)

    def assign(batch: pa.Table) -> pa.Table:
        cc = cached(ref)
        M = np.column_stack(
            [batch[c].to_numpy().astype(np.float64) for c in feature_cols]
        )
        d = ((M[:, None, :] - cc[None, :, :]) ** 2).sum(axis=2)
        return batch.append_column(
            "cluster", pa.array(d.argmin(axis=1).astype(np.int64))
        )

    return cells.map_batches(assign, batch_format="pyarrow")


def class_separability(
    cells: ray.data.Dataset,
    class_col: str,
    value_col: str,
) -> pa.Table:
    """Pairwise 1-D Gaussian class separability: Bhattacharyya distance
    and Jeffries-Matusita (reference calc_jm_distance /
    calc_bhattacharyya_distance, /root/reference/src/rastergis/
    rastergis.cpp:2199-2231 — the C++ computes the same Gaussian form
    from RAT class moments).

    Per-class (n, sum, sumsq) partials are integer-exact and combined
    from one tiny row per (block, class); the pairwise closed form
    B = 0.25*(m1-m2)^2/(v1+v2) + 0.5*ln((v1+v2)/(2*sqrt(v1*v2))),
    JM = 2*(1-exp(-B)) mirrors the SQL oracle bit-for-bit."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy().astype(np.int64)
        return combine_arrays(
            {"cls": batch[class_col].to_numpy()},
            {"n": np.ones(len(v), np.int64), "s": v, "ss": v * v},
        )

    st = combine(
        map_blocks(cells, partial),
        "cls",
        ["n", "s", "ss"],
    )
    cls = st["cls"].to_numpy()
    n = st["n"].to_numpy().astype(np.float64)
    m = st["s"].to_numpy().astype(np.float64) / n
    v = st["ss"].to_numpy().astype(np.float64) / n - m * m
    import math  # scalar libm calls: bit-identical to DuckDB's ln/exp
    rows_a, rows_b, bh, jm = [], [], [], []
    for i in range(len(cls)):
        for j in range(i + 1, len(cls)):
            b = 0.25 * ((m[i] - m[j]) * (m[i] - m[j])) / (v[i] + v[j]) + 0.5 * math.log(
                (v[i] + v[j]) / (2.0 * math.sqrt(v[i] * v[j]))
            )
            rows_a.append(cls[i])
            rows_b.append(cls[j])
            bh.append(b)
            jm.append(2.0 * (1.0 - math.exp(-b)))
    return pa.table(
        {
            "class_a": pa.array(rows_a, pa.int64()),
            "class_b": pa.array(rows_b, pa.int64()),
            "bhattacharyya": pa.array(bh, pa.float64()),
            "jm_distance": pa.array(jm, pa.float64()),
        }
    )


def isodata_cluster(
    cells: ray.data.Dataset,
    feature_cols: list[str],
    n_clusters: int = 8,
    iters: int = 8,
    min_cluster_frac: float = 0.01,
    split_std: float = 10.0,
    merge_dist: float = 1.0,
    sample_rows: int = 65536,
    init_centers=None,
) -> ray.data.Dataset:
    """ISODATA clustering: Lloyd iterations with deterministic SPLIT /
    MERGE / DISCARD rounds between them (reference
    rsgis::cmds::executeISODataClustering, /root/reference/src/cmds/
    ImageCalculus — imagecalc.cpp:1916 binding; the C++ delegates to
    RSGISISODATAClusterer with the same three rules).

    - discard: clusters holding < min_cluster_frac of rows
    - merge: greedy lowest-index pairs with centroid distance
      < merge_dist (each cluster merges at most once per round)
    - split: clusters whose largest per-dim std > split_std split into
      c +- 0.5*std along that dim
    All decisions derive from integer-exact distributed partials, so
    the fit is deterministic under any partitioning."""
    import ray as _ray

    if init_centers is not None:
        C = np.asarray(init_centers, dtype=np.float64)
        n_clusters = max(n_clusters, len(C))
    else:
        sample = cells.limit(sample_rows).to_pandas()
        X = np.column_stack(
            [sample[c].to_numpy().astype(np.float64) for c in feature_cols]
        )
        qs = np.linspace(0, 100, n_clusters + 2)[1:-1]
        C = np.column_stack(
            [np.percentile(X[:, j], qs) for j in range(X.shape[1])]
        )

    total = None
    for _ in range(iters):
        ref = _ray.put(C)

        def partial(batch: pa.Table) -> pa.Table:
            cc = cached(ref)
            M = np.column_stack(
                [batch[c].to_numpy().astype(np.float64) for c in feature_cols]
            )
            d = ((M[:, None, :] - cc[None, :, :]) ** 2).sum(axis=2)
            a = d.argmin(axis=1)
            sums = np.zeros_like(cc)
            sumsq = np.zeros_like(cc)
            cnts = np.zeros(len(cc), dtype=np.int64)
            np.add.at(sums, a, M)
            np.add.at(sumsq, a, M * M)
            np.add.at(cnts, a, 1)
            cols = {"cluster": np.arange(len(cc), dtype=np.int64), "n": cnts}
            for j in range(cc.shape[1]):
                cols[f"s{j}"] = sums[:, j]
                cols[f"q{j}"] = sumsq[:, j]
            return pa.table(cols)

        pdf = (
            cells.map_batches(partial, batch_format="pyarrow", batch_size=65536)
            .to_pandas()
            .groupby("cluster", as_index=False)
            .sum()
            .sort_values("cluster")
        )
        n = pdf["n"].to_numpy().astype(np.float64)
        if total is None:
            total = float(n.sum())
        dmn = C.shape[1]
        mean = np.column_stack(
            [
                np.where(n > 0, pdf[f"s{j}"].to_numpy() / np.maximum(n, 1), C[:, j])
                for j in range(dmn)
            ]
        )
        var = np.column_stack(
            [
                np.maximum(
                    pdf[f"q{j}"].to_numpy() / np.maximum(n, 1)
                    - mean[:, j] * mean[:, j],
                    0.0,
                )
                for j in range(dmn)
            ]
        )
        # discard tiny clusters
        keep = n >= min_cluster_frac * total
        if keep.sum() == 0:
            keep = n > 0
        mean, var, n = mean[keep], var[keep], n[keep]
        # merge close pairs (greedy, lowest index first)
        alive = np.ones(len(mean), dtype=bool)
        merged = []
        for i in range(len(mean)):
            if not alive[i]:
                continue
            for j in range(i + 1, len(mean)):
                if not alive[j]:
                    continue
                if np.sqrt(((mean[i] - mean[j]) ** 2).sum()) < merge_dist:
                    w = n[i] + n[j]
                    mean[i] = (mean[i] * n[i] + mean[j] * n[j]) / w
                    n[i] = w
                    alive[j] = False
                    break
            merged.append(i)
        mean, var, n = mean[alive], var[alive], n[alive]
        # split high-variance clusters
        out = []
        for i in range(len(mean)):
            sd = np.sqrt(var[i])
            jmax = int(np.argmax(sd))
            if sd[jmax] > split_std and len(mean) + len(out) < 2 * n_clusters:
                lo = mean[i].copy()
                hi = mean[i].copy()
                lo[jmax] -= 0.5 * sd[jmax]
                hi[jmax] += 0.5 * sd[jmax]
                out.extend([lo, hi])
            else:
                out.append(mean[i])
        C = np.vstack(out)

    ref = _ray.put(C)

    def assign(batch: pa.Table) -> pa.Table:
        cc = cached(ref)
        M = np.column_stack(
            [batch[c].to_numpy().astype(np.float64) for c in feature_cols]
        )
        d = ((M[:, None, :] - cc[None, :, :]) ** 2).sum(axis=2)
        return batch.append_column(
            "cluster", pa.array(d.argmin(axis=1).astype(np.int64))
        )

    return cells.map_batches(assign, batch_format="pyarrow")


def zonal_winsorized_mean(
    cells: ray.data.Dataset,
    zones_tbl: pa.Table,
    value_col: str,
    lower: float = 0.05,
    upper: float = 0.95,
    out_no_data: float = -9999.0,
    x_col: str = "x",
    y_col: str = "y",
) -> pa.Table:
    """Robust per-zone winsorized mean: cell values clamped to the
    zone's [lower, upper] exact-histogram percentiles before averaging
    (the robust-stat companion to populate_rat_with_percentiles,
    RSGISPopRATWithStats.cpp:513-558).

    Exactness: the interior sum and the above/below counts are exact
    integers from the per-(zone, value) histogram partials, and the
    mean is one fixed float expression
    ``(s_int + n_lo*lo + n_hi*hi) / n`` — so a SQL oracle using
    quantile_cont + the same expression matches bit-for-bit. Integer
    value columns required (same contract as the rest of this module).
    """
    partials = map_blocks(
        cells,
        _value_count_partial,
        zones_ref=broadcast_zones(zones_tbl),
        value_col=value_col,
        x_col=x_col,
        y_col=y_col,
    )
    vc = combine(partials, ["fid", "val"], ["n"])
    vals = vc["val"].to_numpy().astype(np.float64)
    counts = vc["n"].to_numpy()
    fids_v = vc["fid"].to_numpy()
    starts = np.concatenate([[0], np.flatnonzero(np.diff(fids_v)) + 1])
    run_len = np.diff(np.concatenate([starts, [len(fids_v)]]))
    run_fid = fids_v[starts]
    totals = np.add.reduceat(counts, starts)
    cum = np.cumsum(counts)
    off = cum[starts] - counts[starts]
    run_id = np.repeat(np.arange(len(starts)), run_len)

    def kth(k: np.ndarray) -> np.ndarray:
        return vals[np.searchsorted(cum, off + k, side="left")]

    def pctl(q: float) -> np.ndarray:
        pos = (totals - 1) * q
        lo_i = np.floor(pos)
        frac = pos - lo_i
        lo_v = kth(lo_i.astype(np.int64) + 1)
        hi_v = kth(np.ceil(pos).astype(np.int64) + 1)
        return lo_v + (hi_v - lo_v) * frac

    lo = pctl(lower)
    hi = pctl(upper)
    lo_x, hi_x = lo[run_id], hi[run_id]
    ivals = vals.astype(np.int64)
    interior = (vals >= lo_x) & (vals <= hi_x)
    s_int = np.add.reduceat(
        np.where(interior, ivals * counts, 0), starts
    ).astype(np.int64)
    n_lo = np.add.reduceat(
        np.where(vals < lo_x, counts, 0), starts
    ).astype(np.int64)
    n_hi = np.add.reduceat(
        np.where(vals > hi_x, counts, 0), starts
    ).astype(np.int64)
    wins = (s_int.astype(np.float64) + n_lo * lo + n_hi * hi) / totals

    base = pd.DataFrame({"fid": zones_tbl["fid"].to_numpy()})
    out = base.merge(
        pd.DataFrame(
            {
                "fid": run_fid.astype(np.int64),
                "n_cells": totals.astype(np.int64),
                "wins_mean": wins,
            }
        ),
        on="fid",
        how="left",
    )
    out["n_cells"] = out["n_cells"].fillna(0).astype(np.int64)
    out["wins_mean"] = out["wins_mean"].fillna(out_no_data)
    return pa.Table.from_pandas(
        out.sort_values("fid").reset_index(drop=True), preserve_index=False
    ).replace_schema_metadata(None)


def kmeans_cluster_exact(
    cells: ray.data.Dataset,
    int_cols: list[str],
    n_clusters: int,
    iters: int,
    card: int,
) -> tuple[ray.data.Dataset, np.ndarray, np.ndarray]:
    """Bit-exact distributed Lloyd's k-means over INTEGER feature
    columns (values in [0, card)) — every quantity either an exact
    int64 sum or ONE float division, so any partition layout and a SQL
    mirror produce identical results:

    - seeds: exact ceil-rank quantiles ``rank_j = ceil(n (j+1)/(k+1))``
      of each feature from one distributed histogram (not a driver
      sample — the float-features variant's sample seed is layout-
      dependent; this one is not);
    - assign: argmin of ``(x - cx)^2 + (y - cy)^2`` with float centers
      (identical doubles both sides), ties to the LOWEST cluster id;
    - update: per-cluster exact int64 sums / counts -> ``sum / n``;
      empty clusters keep their previous center.

    Returns ``(labeled_ds, centers[k, d], sizes[k])``.
    """
    import ray as _ray

    d = len(int_cols)
    # the fit re-reads the input once per iteration plus the seed and
    # final-assign passes; pin the (narrow) feature table in the object
    # store so iterations scan blocks instead of re-running the read
    cells = cells.materialize()

    def hist_partial(batch: pa.Table) -> pa.Table:
        # long-form NONZERO bins only (a dense card-length emission per
        # batch made the seed pass the dominant cost)
        fs, vs, cs = [], [], []
        for j, c in enumerate(int_cols):
            v = batch[c].to_numpy().astype(np.int64)
            cnt = np.bincount(v, minlength=card)
            nz = np.flatnonzero(cnt)
            fs.append(np.full(len(nz), j, dtype=np.int64))
            vs.append(nz.astype(np.int64))
            cs.append(cnt[nz])
        return pa.table(
            {
                "f": np.concatenate(fs),
                "v": np.concatenate(vs),
                "cnt": np.concatenate(cs),
            }
        )

    hist = combine(
        map_blocks(cells, hist_partial),
        ["f", "v"],
        ["cnt"],
    )
    f, v, cnt = (hist[c].to_numpy() for c in ("f", "v", "cnt"))
    n_total = int(cnt[f == 0].sum())
    C = np.empty((n_clusters, d), dtype=np.float64)
    for j in range(d):
        hist_j = np.zeros(card, dtype=np.int64)
        hist_j[v[f == j]] = cnt[f == j]
        cum = np.cumsum(hist_j)
        for kk in range(n_clusters):
            rank = (n_total * (kk + 1) + n_clusters) // (n_clusters + 1)
            C[kk, j] = float(np.searchsorted(cum, rank))

    sizes = np.zeros(n_clusters, dtype=np.int64)
    for _ in range(iters):
        ref = _ray.put(C)

        def part(batch: pa.Table) -> pa.Table:
            cc = cached(ref)
            M = np.column_stack(
                [batch[c].to_numpy().astype(np.int64) for c in int_cols]
            )
            dd = ((M[:, None, :] - cc[None, :, :]) ** 2).sum(axis=2)
            a = dd.argmin(axis=1)  # first minimum = lowest cluster id
            cols = {
                "cluster": np.arange(n_clusters, dtype=np.int64),
                "n": np.bincount(a, minlength=n_clusters),
            }
            for j in range(d):
                s = np.zeros(n_clusters, dtype=np.int64)
                np.add.at(s, a, M[:, j])
                cols[f"s{j}"] = s
            return pa.table(cols)

        sums = [f"s{j}" for j in range(d)]
        agg = combine(
            map_blocks(cells, part),
            "cluster",
            ["n"] + sums,
        )
        sizes = agg["n"].to_numpy()
        S = np.column_stack([agg[c].to_numpy() for c in sums])
        for kk in range(n_clusters):
            if sizes[kk] > 0:
                for j in range(d):
                    C[kk, j] = float(int(S[kk, j])) / float(sizes[kk])

    ref = _ray.put(C)

    def assign(batch: pa.Table) -> pa.Table:
        cc = cached(ref)
        M = np.column_stack(
            [batch[c].to_numpy().astype(np.int64) for c in int_cols]
        )
        dd = ((M[:, None, :] - cc[None, :, :]) ** 2).sum(axis=2)
        return batch.append_column(
            "cluster", pa.array(dd.argmin(axis=1).astype(np.int64))
        )

    return (
        cells.map_batches(assign, batch_format="pyarrow", batch_size=65536),
        C,
        sizes,
    )
