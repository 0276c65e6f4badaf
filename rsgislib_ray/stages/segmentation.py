"""Small-clump elimination (Shepherd segmentation stage 3).

Reimplements the reference's stepwise iterative small-clump elimination
(/root/reference/src/segmentation/RSGISEliminateSmallClumps.cpp:566-880,
``stepwiseIterativeEliminateSmallClumps``; driver
python/rsgislib/segmentation/shepherdseg.py:64 ``run_shepherd_segmentation``
= kmeans -> clump -> eliminate, per Shepherd et al. 2019 RS 11(6):658).

Reference semantics (replicated exactly):

- for ``clump_area`` = 1..min_clump_size, repeat until no progress:
  - SNAPSHOT sweep: every active clump with size <= clump_area (and
    < min_clump_size) looks at its 4-neighbour clumps, keeps those
    STRICTLY LARGER than itself, picks the spectrally closest (Euclidean
    over per-clump band means; ties -> smallest neighbour label), and
    merges into it iff distance < spec_threshold. All decisions use
    sweep-start sizes/means/adjacency (the reference defers application
    to a post-queue pass).
  - apply merges: sums and sizes are additive, so the post-sweep state
    is order-independent under union-find contraction (size strictly
    increases along a merge chain, so chains are acyclic).
  - progress rule: stop when the count of remaining small clumps is 0
    or unchanged from the sweep start (RSGISEliminateSmallClumps.cpp:
    845-852).

Ray-Data-first decomposition:

1. per-clump size + band sums: per-batch partials
   (``segsum.combine_arrays``) -> :func:`rsgislib_ray.stages.segsum.combine`
   — one row per clump reaches the driver, never pixels.
2. adjacency: per-tile dense-grid shift comparison emits DISTINCT
   neighbour-label pairs; tile-frame pixels flow through the same
   sorted probe-row pairing as ``clump`` for cross-tile edges. Only the
   CONTRACTED label graph (unique edges) reaches the driver.
3. the sweep loop runs on the contracted graph with vectorized numpy
   (lexsort argmin per source, pointer-jumping union-find) — O(#clumps
   + #edges) per sweep, independent of pixel count.
4. a broadcast old-label -> new-label map rewrites pixels in one
   ``map_batches``.

Scale contract: driver state is O(#clumps + #clump adjacencies), not
O(#pixels). For rasters whose clump count itself exceeds driver memory
the same sweep can be pushed through ``groupby`` (partial argmin per
edge block, then a tiny per-source combine); the snapshot semantics
make that safe — documented, not implemented.

Distance modes:
- ``exact=False`` (reference parity): float64 means, Euclidean.
- ``exact=True``: integer-only comparisons for bit-stable ordering
  when band values are integers — compares
  ``sum((sum_s*size_t - sum_t*size_s)**2)`` against
  ``thresh**2 * (size_s*size_t)**2`` via Python bigints on the
  candidate set, so an SQL oracle can mirror it exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.raster import Tile, halo_tiles
from rsgislib_ray.stages.segsum import combine, combine_arrays


def clump_sums(
    clumped: ray.data.Dataset,
    band_cols: list[str],
    label_col: str = "comp_label",
) -> pd.DataFrame:
    """Per-clump pixel count + per-band sums (per-batch partials +
    :func:`rsgislib_ray.stages.segsum.combine`). Returns a driver
    DataFrame with one row per clump, sorted by label: (label, n,
    sum_<band>...); zero rows for an empty input."""

    def partial(batch: pa.Table) -> pa.Table:
        lab = batch[label_col].to_numpy()
        sums = {f"sum_{b}": batch[b].to_numpy().astype(np.int64) for b in band_cols}
        return combine_arrays(
            {label_col: lab}, {"n": np.ones(len(lab), np.int64), **sums}
        )

    return combine(
        map_blocks(clumped, partial),
        label_col,
        ["n"] + [f"sum_{b}" for b in band_cols],
    ).to_pandas()


def clump_adjacency(
    clumped: ray.data.Dataset,
    label_col: str = "comp_label",
    tile_size: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct 4-neighbour label pairs (ea < eb) of a labeled raster.

    Per-tile dense shift comparison finds in-tile boundaries; tile-frame
    pixels run through the sorted anchor/probe pairing (same machinery
    as ``clump``'s cross-tile merge) so tiles never need halos. Edges
    are deduped inside every block; the driver sees the contracted set.
    """

    POS = np.int64(1) << 32

    def local_edges(t: Tile) -> pa.Table:
        r = t.rows["row"].to_numpy().astype(np.int64)
        c = t.rows["col"].to_numpy().astype(np.int64)
        lab = t.rows[label_col].to_numpy().astype(np.int64)
        r0, c0 = r.min(), c.min()
        h, w = r.max() - r0 + 1, c.max() - c0 + 1
        grid = np.full((h, w), -1, dtype=np.int64)
        grid[r - r0, c - c0] = lab
        ea, eb = [], []
        for dr, dc in ((0, 1), (1, 0)):
            a = grid[: h - dr, : w - dc]
            b = grid[dr:, dc:]
            diff = (a >= 0) & (b >= 0) & (a != b)
            ea.append(np.minimum(a[diff], b[diff]))
            eb.append(np.maximum(a[diff], b[diff]))
        ea = np.concatenate(ea)
        eb = np.concatenate(eb)
        if len(ea):
            uniq = np.unique(np.stack([ea, eb], axis=1), axis=0)
            ea, eb = uniq[:, 0], uniq[:, 1]
        # frame pixels -> anchor + probe rows for cross-tile pairing
        edge = (0, tile_size - 1)
        on_frame = np.isin(t.rr, edge) | np.isin(t.cc, edge)
        fr, fc, fl = r[on_frame], c[on_frame], lab[on_frame]
        pos = [fr * POS + fc]
        anchor = [np.ones(len(fr), dtype=np.int8)]
        labs = [fl]
        for dr, dc in ((0, 1), (1, 0)):
            pos.append((fr + dr) * POS + (fc + dc))
            anchor.append(np.zeros(len(fr), dtype=np.int8))
            labs.append(fl)
        return pa.table(
            {
                "ea": np.concatenate([ea, np.concatenate(pos)]),
                "eb": np.concatenate([eb, np.concatenate(labs)]),
                "kind": np.concatenate(
                    [
                        np.zeros(len(ea), dtype=np.int8),
                        np.concatenate(anchor) + 1,  # 2=anchor, 1=probe
                    ]
                ),
            }
        )

    rows = halo_tiles(
        clumped.select_columns(["row", "col", label_col]), tile_size, 0, local_edges
    ).to_pandas()
    edges = rows[rows["kind"] == 0]
    ea = edges["ea"].to_numpy().astype(np.int64)
    eb = edges["eb"].to_numpy().astype(np.int64)
    bnd = rows[rows["kind"] != 0]
    if len(bnd):
        anch = bnd[bnd["kind"] == 2]
        prob = bnd[bnd["kind"] == 1]
        m = anch.merge(prob, on="ea", suffixes=("_a", "_p"))
        m = m[m["eb_a"] != m["eb_p"]]
        if len(m):
            ea = np.concatenate(
                [ea, m[["eb_a", "eb_p"]].min(axis=1).to_numpy()]
            )
            eb = np.concatenate(
                [eb, m[["eb_a", "eb_p"]].max(axis=1).to_numpy()]
            )
    if len(ea):
        uniq = np.unique(np.stack([ea, eb], axis=1), axis=0)
        ea, eb = uniq[:, 0], uniq[:, 1]
    return ea, eb


def _resolve(parent: np.ndarray) -> np.ndarray:
    while True:
        gp = parent[parent]
        if np.array_equal(gp, parent):
            return parent
        parent = gp


def eliminate_small_clumps(
    clumped: ray.data.Dataset,
    band_cols: list[str],
    min_clump_size: int,
    spec_threshold: float,
    label_col: str = "comp_label",
    out_col: str = "elim_label",
    tile_size: int = 256,
    exact: bool = False,
    max_sweeps: int | None = None,
) -> ray.data.Dataset:
    """Stepwise iterative elimination; returns the input rows with
    ``out_col`` = surviving clump label after all merges.

    ``max_sweeps`` caps the TOTAL number of snapshot sweeps across all
    clump-area levels (``eliminate_singletons`` uses 1 to stay
    SQL-expressible); ``None`` runs the reference's full loop."""
    sums = clump_sums(clumped, band_cols, label_col)
    ea_lab, eb_lab = clump_adjacency(clumped, label_col, tile_size)

    labels = sums[label_col].to_numpy()
    k = len(labels)
    size0 = sums["n"].to_numpy()
    sums0 = np.stack(
        [sums[f"sum_{b}"].to_numpy() for b in band_cols], axis=1
    ).astype(np.int64)
    ia0 = np.searchsorted(labels, ea_lab)
    ib0 = np.searchsorted(labels, eb_lab)

    parent = np.arange(k, dtype=np.int64)
    thr2 = float(spec_threshold) ** 2
    sweeps_done = 0

    for clump_area in range(1, min_clump_size + 1):
        if max_sweeps is not None and sweeps_done >= max_sweeps:
            break
        while True:
            if max_sweeps is not None and sweeps_done >= max_sweeps:
                break
            sweeps_done += 1
            roots = _resolve(parent)
            agg_size = np.zeros(k, dtype=np.int64)
            np.add.at(agg_size, roots, size0)
            agg_sum = np.zeros((k, len(band_cols)), dtype=np.int64)
            np.add.at(agg_sum, roots, sums0)
            is_root = roots == np.arange(k)
            # queue admission: size <= clump_area (reference counts these
            # for the progress rule); the merge itself additionally
            # requires size < min_clump_size (drain-time check)
            queued = is_root & (agg_size <= clump_area) & (agg_size > 0)
            small = queued & (agg_size < min_clump_size)
            init_small = int(queued.sum())
            if init_small == 0:
                break
            ra, rb = roots[ia0], roots[ib0]
            keep = ra != rb
            src = np.concatenate([ra[keep], rb[keep]])
            tgt = np.concatenate([rb[keep], ra[keep]])
            if len(src):
                uniq = np.unique(np.stack([src, tgt], axis=1), axis=0)
                src, tgt = uniq[:, 0], uniq[:, 1]
            cand = small[src] & (agg_size[tgt] > agg_size[src])
            src, tgt = src[cand], tgt[cand]
            merged_any = False
            if len(src):
                if exact:
                    # integer-exact: compare d2 * (ns*nt)^2 as bigints
                    ss = agg_sum[src].astype(object)
                    st = agg_sum[tgt].astype(object)
                    ns = agg_size[src].astype(object)
                    nt = agg_size[tgt].astype(object)
                    num = ((ss * nt[:, None] - st * ns[:, None]) ** 2).sum(
                        axis=1
                    )
                    den = (ns * nt) ** 2
                    ok = num < int(
                        round(thr2)
                    ) * den  # thresh assumed integer in exact mode
                    # argmin per src by (num/den, tgt label): cross-
                    # compare rationals num_i*den_j vs num_j*den_i via
                    # a stable sort on float first, exact fixup after
                    dist_f = np.array(
                        [float(n) / float(d) for n, d in zip(num, den)]
                    )
                else:
                    mean_s = agg_sum[src] / agg_size[src, None]
                    mean_t = agg_sum[tgt] / agg_size[tgt, None]
                    d2 = ((mean_s - mean_t) ** 2).sum(axis=1)
                    ok = d2 < thr2
                    dist_f = d2
                order = np.lexsort((labels[tgt], dist_f, labels[src]))
                s_o, t_o = src[order], tgt[order]
                first = np.concatenate([[True], s_o[1:] != s_o[:-1]])
                ok_o = ok[order]
                pick = first & ok_o
                ms, mt = s_o[pick], t_o[pick]
                if exact and len(ms):
                    # exact fixup: within each src run, verify the float
                    # pick against exact rational compare of the top-2
                    num_o = num[order]
                    den_o = den[order]
                    runs = np.flatnonzero(first)
                    ends = np.concatenate([runs[1:], [len(s_o)]])
                    fixed_s, fixed_t, fixed_ok = [], [], []
                    for st_i, en_i in zip(runs, ends):
                        best = st_i
                        for j in range(st_i + 1, en_i):
                            # exact: num_j/den_j < num_best/den_best ?
                            lhs = num_o[j] * den_o[best]
                            rhs = num_o[best] * den_o[j]
                            if lhs < rhs or (
                                lhs == rhs
                                and labels[t_o[j]] < labels[t_o[best]]
                            ):
                                best = j
                        fixed_s.append(s_o[best])
                        fixed_t.append(t_o[best])
                        fixed_ok.append(bool(ok_o[best]))
                    ms = np.array(fixed_s, dtype=np.int64)[
                        np.array(fixed_ok, dtype=bool)
                    ]
                    mt = np.array(fixed_t, dtype=np.int64)[
                        np.array(fixed_ok, dtype=bool)
                    ]
                if len(ms):
                    parent = parent.copy()
                    parent[ms] = mt
                    merged_any = True
            if not merged_any:
                break
            roots = _resolve(parent)
            agg_size = np.zeros(k, dtype=np.int64)
            np.add.at(agg_size, roots, size0)
            is_root = roots == np.arange(k)
            below = int(
                (is_root & (agg_size <= clump_area) & (agg_size > 0)).sum()
            )
            if below == 0 or below == init_small:
                break

    roots = _resolve(parent)
    final_map = labels[roots]  # labels[i] -> final_map[i]
    ref = ray.put((labels, final_map))

    def relabel(batch: pa.Table) -> pa.Table:
        key, val = ray.get(ref) if hasattr(ref, "hex") else ref
        lab = batch[label_col].to_numpy()
        pos = np.searchsorted(key, lab)
        pos = np.clip(pos, 0, len(key) - 1)
        mapped = np.where(key[pos] == lab, val[pos], lab)
        return batch.append_column(out_col, pa.array(mapped, type=pa.int64()))

    return clumped.map_batches(relabel, batch_format="pyarrow")


def eliminate_singletons(
    clumped: ray.data.Dataset,
    band_cols: list[str],
    spec_threshold: int,
    label_col: str = "comp_label",
    out_col: str = "elim_label",
    tile_size: int = 256,
) -> ray.data.Dataset:
    """ONE snapshot sweep eliminating size-1 clumps only (the
    ``clump_area == 1`` first sweep of the stepwise algorithm, which is
    chain-free: a singleton's target must be larger, hence never itself
    a singleton source). Integer-exact distance ordering -> fully
    SQL-mirrorable. ``spec_threshold`` must be an integer."""
    return eliminate_small_clumps(
        clumped,
        band_cols,
        min_clump_size=2,
        spec_threshold=spec_threshold,
        label_col=label_col,
        out_col=out_col,
        tile_size=tile_size,
        exact=True,
        max_sweeps=1,
    )


def merge_selected_clumps(
    clumped: ray.data.Dataset,
    band_cols: list[str],
    selected: dict[int, bool],
    nodata: dict[int, bool],
    label_col: str = "fid",
    tile_size: int = 256,
) -> pd.DataFrame:
    """merge_segments_to_neighbours (segmentation;
    src/segmentation/RSGISMergeSegments.cpp:63 mergeSelectedClumps —
    the engine of imageutils.tilingutils.create_min_data_tiles):
    every SELECTED clump merges into its spectrally-nearest eligible
    neighbour (not selected, not removed, not a nodata region),
    sweeping until no selected clump can merge.

    Reference quirks kept exactly:

    - calcDist (RSGISMergeSegments.h:102) ASSIGNS instead of
      accumulating, so the distance is sqrt(lastBandDiff^2 / nBands)
      — only the LAST band's mean difference matters;
    - numPxls is DERIVED as sumBand1/meanBand1 (not the count) —
      exact only when band 1 is clump-constant (enforced by callers;
      this keeps every later mean a single exact division);
    - a nodata clump's OUTPUT id is 0 (clumpID overwritten at init);
    - merges apply in clump-id order within a sweep; target sums /
      numPxls accumulate and means recompute per merge (exact integer
      sums make the order immaterial);
    - ties on distance: the reference breaks by neighbour DISCOVERY
      order (an image-scan artifact); this engine breaks by lowest
      neighbour id and callers must keep fixtures tie-free (asserted).

    Physical plan: clump_sums + clump_adjacency (distributed
    partials); the sweep loop runs on the contracted clump graph
    (driver-scale by the eliminate_small_clumps contract).  Returns
    (label, out_id) for every clump row."""
    stats = clump_sums(clumped, band_cols, label_col=label_col)
    ea, eb = clump_adjacency(clumped, label_col=label_col,
                             tile_size=tile_size)
    labels = stats[label_col].to_numpy()
    n_by = dict(zip(labels.tolist(), stats["n"].tolist()))
    sums = {
        b: dict(zip(labels.tolist(), stats[f"sum_{b}"].tolist()))
        for b in band_cols
    }
    nbrs: dict[int, set] = {int(l): set() for l in labels}
    for a, b in zip(ea.tolist(), eb.tolist()):
        nbrs[int(a)].add(int(b))
        nbrs[int(b)].add(int(a))
    nb_count = len(band_cols)
    b1, blast = band_cols[0], band_cols[-1]
    mean_last = {
        int(l): sums[blast][int(l)] / n_by[int(l)] for l in labels
    }
    mean_b1 = {
        int(l): sums[b1][int(l)] / n_by[int(l)] for l in labels
    }
    num_pxls = {
        int(l): sums[b1][int(l)] / mean_b1[int(l)] for l in labels
    }
    sum_last = {int(l): float(sums[blast][int(l)]) for l in labels}
    removed: set[int] = set()
    out_id = {
        int(l): (0 if nodata.get(int(l), False) else int(l))
        for l in labels
    }
    members = {int(l): [int(l)] for l in labels}
    while True:
        merges = []
        for l in sorted(nbrs):
            if not selected.get(l, False) or l in removed:
                continue
            best, best_d = None, None
            for t in sorted(nbrs[l]):
                if (
                    selected.get(t, False)
                    or t in removed
                    or nodata.get(t, False)
                ):
                    continue
                diff = mean_last[l] - mean_last[t]
                d = float(np.sqrt((diff * diff) / nb_count))
                if best_d is not None and d == best_d:
                    raise ValueError(
                        "distance tie: the reference's discovery-order"
                        " tie rule is not reproducible; fixture must"
                        " be tie-free"
                    )
                if best_d is None or d < best_d:
                    best, best_d = t, d
            if best is not None:
                merges.append((l, best))
        if not merges:
            break
        for l, t in merges:
            removed.add(l)
            members[t].append(l)
            sum_last[t] += sum_last[l]
            num_pxls[t] += num_pxls[l]
            mean_last[t] = sum_last[t] / num_pxls[t]
            nbrs[t] |= {x for x in nbrs[l] if x != t}
            nbrs[t].discard(l)
    rows = []
    for surv in sorted(members):
        if surv in removed:
            continue
        for m in members[surv]:
            rows.append((m, out_id[surv], mean_last[surv]))
    df = pd.DataFrame(
        rows, columns=[label_col, "out_id", "surv_mean_last"]
    ).sort_values(label_col).reset_index(drop=True)
    return df


def felzenszwalb_edges(
    ds: ray.data.Dataset,
    width: int,
    height: int,
    pixel_col: str = "pixel_id",
    row_col: str = "row",
    col_col: str = "col",
    val_col: str = "val",
) -> ray.data.Dataset:
    """8-connectivity edge weights for the pinned Felzenszwalb
    segmentation: for each of the four forward directions
    (0 = right, 1 = down, 2 = down-right, 3 = up-right) emit the
    anchor pixel's and the neighbour's value into a direction-slotted
    pair (slot = dir*W*H + anchor id), sum with one ``segment_sum``
    shuffle (the neighbor_differences double-emit pattern — no
    raster-ordering assumption on input blocks), and keep slots with
    both sides present as edges (u = anchor, v = u + offset,
    w = |diff| — exact int for a single integer band, where skimage's
    multi-channel sqrt collapses to the absolute difference)."""
    n = width * height
    offs = {0: 1, 1: width, 2: width + 1, 3: -(width - 1)}

    def emit(batch: pa.Table) -> pa.Table:
        p = batch[pixel_col].to_numpy().astype(np.int64)
        r = batch[row_col].to_numpy().astype(np.int64)
        c = batch[col_col].to_numpy().astype(np.int64)
        x = batch[val_col].to_numpy().astype(np.int64)
        slots, dv, cl, cr = [], [], [], []
        for d, off in offs.items():
            if d == 0:
                a_ok = c < width - 1
            elif d == 1:
                a_ok = r < height - 1
            elif d == 2:
                a_ok = (c < width - 1) & (r < height - 1)
            else:
                a_ok = (c < width - 1) & (r > 0)
            # anchor contributes -val into its own slot
            slots.append(d * n + p[a_ok])
            dv.append(-x[a_ok])
            cl.append(np.ones(int(a_ok.sum()), dtype=np.int64))
            cr.append(np.zeros(int(a_ok.sum()), dtype=np.int64))
            # neighbour contributes +val into the anchor's slot
            b_ok = np.ones(len(p), dtype=bool)
            if d == 0:
                b_ok = c > 0
            elif d == 1:
                b_ok = r > 0
            elif d == 2:
                b_ok = (c > 0) & (r > 0)
            else:
                b_ok = (c > 0) & (r < height - 1)
            slots.append(d * n + (p[b_ok] - off))
            dv.append(x[b_ok])
            cl.append(np.zeros(int(b_ok.sum()), dtype=np.int64))
            cr.append(np.ones(int(b_ok.sum()), dtype=np.int64))
        return pa.table(
            {
                "slot": np.concatenate(slots),
                "d": np.concatenate(dv),
                "cl": np.concatenate(cl),
                "cr": np.concatenate(cr),
            }
        )

    from rsgislib_ray.stages.segsum import segment_sum

    summed = segment_sum(
        ds.map_batches(emit, batch_format="pyarrow", batch_size=65536),
        "slot",
        ["d", "cl", "cr"],
    )

    def finish(batch: pa.Table) -> pa.Table:
        ok = (batch["cl"].to_numpy() > 0) & (batch["cr"].to_numpy() > 0)
        slot = batch["slot"].to_numpy()[ok]
        d = np.abs(batch["d"].to_numpy()[ok])
        dirs = slot // n
        u = slot % n
        offarr = np.array(
            [1, width, width + 1, -(width - 1)], dtype=np.int64
        )
        v = u + offarr[dirs]
        return pa.table({"w": d, "dir": dirs, "u": u, "v": v})

    return summed.map_batches(finish, batch_format="pyarrow")


def felzenszwalb_pinned(
    ds: ray.data.Dataset,
    width: int,
    height: int,
    scale: int,
    min_size: int,
    pixel_col: str = "pixel_id",
    row_col: str = "row",
    col_col: str = "col",
    val_col: str = "val",
) -> ray.data.Dataset:
    """Pinned Felzenszwalb-Huttenlocher 2004 graph segmentation
    (perform_felzenszwalb_segmentation, segmentation/skimgseg.py:134
    via skimage.segmentation.felzenszwalb; the published algorithm
    from scratch).  Public substitutions, each documented:

    - single integer band, sigma pinned to 0 (no Gaussian
      pre-smoothing, no img_as_float rescale) so every edge weight
      |x_u - x_v| is an exact int;
    - skimage's unstable ``np.argsort`` over edge costs -> the TOTAL
      order (w, direction 0..3, anchor id);
    - the union-by-rank representative -> the MIN pixel id of the
      merged component;
    - the float predicate  w < min(Int(C0)+scale/|C0|,
      Int(C1)+scale/|C1|)  (STRICT <, the skimage kernel's test) ->
      the exact integer cross-multiplication
      (w - Int(C0))*|C0| < scale AND (w - Int(C1))*|C1| < scale;
      on merge Int(C) := w (the 2004 paper's MInt update);
    - the min-size postprocess = skimage's second sweep over the
      SAME edge order merging any pair with a sub-min_size side;
    - final labels = 1 + dense rank of the component representative
      (skimage renumbers via np.unique; reference adds +1,
      skimgseg.py:137).

    The two sweeps are inherently sequential (component state grows
    mid-scan), so they run on the driver over the CONTRACTED sorted
    edge list (O(pixels) rows — the eliminate_small/clump-graph
    contraction contract), while edge weights and the edge sort are
    distributed; the SQL oracle replays the identical sweeps as a
    recursive CTE carrying (comp, Int, size) lists."""
    n = width * height
    edges = felzenszwalb_edges(
        ds, width, height, pixel_col, row_col, col_col, val_col
    ).sort(["w", "dir", "u"])
    ed = edges.to_pandas()
    u_arr = ed["u"].to_numpy().astype(np.int64)
    v_arr = ed["v"].to_numpy().astype(np.int64)
    w_arr = ed["w"].to_numpy().astype(np.int64)
    comp = np.arange(n, dtype=np.int64)
    cint = np.zeros(n, dtype=np.int64)
    csize = np.ones(n, dtype=np.int64)

    def merge(ra: int, rb: int, w: int) -> None:
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        comp[comp == hi] = lo
        cint[lo] = w
        csize[lo] = csize[lo] + csize[hi]

    for u, v, w in zip(u_arr, v_arr, w_arr):
        ra, rb = int(comp[u]), int(comp[v])
        if ra == rb:
            continue
        if (
            (int(w) - int(cint[ra])) * int(csize[ra]) < scale
            and (int(w) - int(cint[rb])) * int(csize[rb]) < scale
        ):
            merge(ra, rb, int(w))
    for u, v, w in zip(u_arr, v_arr, w_arr):
        ra, rb = int(comp[u]), int(comp[v])
        if ra == rb:
            continue
        if csize[ra] < min_size or csize[rb] < min_size:
            merge(ra, rb, int(w))
    reps, inv = np.unique(comp, return_inverse=True)
    labels_full = (inv + 1).astype(np.int64)  # per-pixel dense label
    lref = ray.put(labels_full)

    def attach(batch: pa.Table) -> pa.Table:
        labs = ray.get(lref)
        p = batch[pixel_col].to_numpy().astype(np.int64)
        return pa.table({pixel_col: p, "label": labs[p]})

    return ds.map_batches(attach, batch_format="pyarrow")


def random_walker_pinned(
    ds: ray.data.Dataset,
    width: int,
    height: int,
    beta: float = 130.0,
    iters: int = 800,
    pixel_col: str = "pixel_id",
    row_col: str = "row",
    col_col: str = "col",
    val_col: str = "val",
    marker_col: str = "marker",
) -> ray.data.Dataset:
    """Pinned random-walker segmentation
    (perform_random_walker_segmentation, segmentation/skimgseg.py:609
    via skimage; Grady 2006, two labels).  Public substitutions,
    documented: skimage's std-based gradient normalization -> the
    image range (w_ij = exp(-(beta * (d^2/S^2))) with S = max-min,
    libm exp per edge, DuckDB EXP parity); the 'bf' sparse direct
    solver of the Dirichlet system -> a FIXED-ITERATION synchronous
    Jacobi relaxation (``iters`` rounds; the probability field for
    label 1 starts at 0.5 on unlabeled pixels, 1 / 0 on the label-1 /
    label-2 seeds, and each round replaces every unlabeled pixel by
    its weight-averaged 4-neighbourhood in the pinned N,E,S,W
    left-fold order — missing neighbours contribute an exact 0.0
    term).  Labels: 1 where prob >= 0.5 else 2 (ties to 1).  The
    relaxation is the banded-halo-exchange class (watershed
    precedent); here the per-round state is O(pixels) on the driver
    over the CONTRACTED distributed edge list, and the SQL oracle
    replays the identical rounds as a list-state recursive CTE.
    Convergence to the true Dirichlet solution (np.linalg.solve) is
    pytest-checked at 1e-5."""
    n = width * height
    edges = felzenszwalb_edges(
        ds, width, height, pixel_col, row_col, col_col, val_col
    )
    ed = edges.to_pandas()
    ed = ed[ed["dir"] <= 1]  # 4-connectivity: right + down only
    meta = ds.select_columns(
        [pixel_col, val_col, marker_col]
    ).to_pandas().sort_values(pixel_col)
    vals = meta[val_col].to_numpy().astype(np.int64)
    marker = meta[marker_col].to_numpy().astype(np.int64)
    S = int(vals.max()) - int(vals.min())
    import math

    # per-pixel directional neighbour ids + weights (0.0 = missing)
    nbr = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, 4))
    wgt = np.zeros((n, 4))  # columns: N, E, S, W
    for u, v, w in zip(
        ed["u"].to_numpy(), ed["v"].to_numpy(), ed["w"].to_numpy()
    ):
        ww = math.exp(-(beta * (float(int(w) * int(w)) / float(S * S))))
        if v == u + 1:  # right edge: u's E, v's W
            nbr[u, 1], wgt[u, 1] = v, ww
            nbr[v, 3], wgt[v, 3] = u, ww
        else:  # down edge: u's S, v's N
            nbr[u, 2], wgt[u, 2] = v, ww
            nbr[v, 0], wgt[v, 0] = u, ww
    den = ((wgt[:, 0] + wgt[:, 1]) + wgt[:, 2]) + wgt[:, 3]
    x = np.where(marker == 1, 1.0, np.where(marker == 2, 0.0, 0.5))
    free = marker == 0
    for _ in range(iters):
        acc = wgt[:, 0] * x[nbr[:, 0]]
        acc = acc + wgt[:, 1] * x[nbr[:, 1]]
        acc = acc + wgt[:, 2] * x[nbr[:, 2]]
        acc = acc + wgt[:, 3] * x[nbr[:, 3]]
        x = np.where(free, acc / den, x)
    prob = x
    label = np.where(prob >= 0.5, 1, 2).astype(np.int64)
    pref = ray.put((prob, label))

    def attach(batch: pa.Table) -> pa.Table:
        pr, lb = ray.get(pref)
        p = batch[pixel_col].to_numpy().astype(np.int64)
        return pa.table(
            {pixel_col: p, "prob1": pr[p], "label": lb[p]}
        )

    return ds.map_batches(attach, batch_format="pyarrow")
