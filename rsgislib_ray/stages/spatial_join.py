"""Spatial join stages — the engine's core operator.

Reimplements the reference's join family on Ray Data:
- ``perform_spatial_join`` (geopandas sjoin, how in {inner,left},
  predicate within/intersects/contains —
  /root/reference/python/rsgislib/vectorattrs/__init__.py:1229-1307)
- ``annotate_vec_selection`` semi-join flag (``:1158-1228``)
- ``count_pt_intersects`` per-polygon point counts (``:1022-1102``)
- bbox selects (vectorutils/__init__.py:1269-1380)

What ships (BENCH_r05, sf0.1 at 32 CPUs, inner join):

1. **Broadcast** (``spatial_join_points``, ``count_points_per_zone``;
   the flagship and the small-zone join queries; 0.99 s): the driver
   packs the zone table and builds its cell-bucket index once per Ray
   session (:func:`broadcast_zones` memoizes the ref by table content);
   worker processes only fetch it, zero-copy, and stream point batches
   through — no shuffle at all.
2. **Sort-merge** (``spatial_join_points_sortmerge``; both sides
   large, inner/left/semi/anti, optional hot-cell salting; 1.77 s in
   BENCH_r05, an earlier design): a count pass gives the exact
   per-cell point histogram; rows are keyed by the dense rank of their
   (cell, salt) in it, so keys rise with the cells and never collide;
   the driver places range boundaries over the ranks, so no rank
   straddles two partitions and no range is empty; each block's rows
   are split by those boundaries: points as ``rank, key, x, y``, zones
   once per range as their ``fid, ring_xy`` plus ``ranks``, the list
   of the zone's ranks in that range (its covering cells that hold
   points, times their salts). One plain Ray task per range finds each
   point's zone run by rank, the ranks pointing back at their zone
   rows, and refines it with the broadcast join's own
   :meth:`ZoneSet.refine` — the range plan of the engine's partition
   tasks (``stages/partition.py``). No Ray Data all-to-all runs.

Both return identical rows (tested); the span-sequence invariant holds
because point rows pass through ``take`` untouched.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from functools import cached_property, partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from rsgislib_ray.functions import cells as cellmod
from rsgislib_ray.functions.arrayops import expand, run_lookup, run_table
from rsgislib_ray.functions.geom import pip_pairs
from rsgislib_ray.functions.hashing import splitmix64
from rsgislib_ray.stages import partition
from rsgislib_ray.stages.segsum import combine, lookup
from rsgislib_ray.state.broadcast import _MAX_ENTRIES, cached
from rsgislib_ray.state.strtree import CellBucketIndex

# Join modes both strategies support, checked when the join is built.
JOIN_HOWS = ("inner", "left", "semi", "anti")


class ZoneSet:
    """Packed polygon side-table: numpy arrays + attr columns.

    Cheap to pickle/broadcast. ``ring_offsets`` are coordinate-PAIR
    offsets (n_zones+1). :attr:`index`, the layer's one cell-bucket
    index, is built on first use and pickles with the arrays, so a
    ZoneSet broadcast after it is built reaches the workers with it.
    Each of its cell runs holds the rectangle zones whose interior
    holds the cell first and the boundary entries after
    (:class:`~rsgislib_ray.state.strtree.CellBucketIndex`): whole runs
    serve :meth:`match_points`, the interior parts :meth:`cell_groups`
    and the boundary parts :meth:`boundary_matches`.
    """

    def __init__(
        self,
        fid: np.ndarray,
        ring_xy: np.ndarray,
        ring_offsets: np.ndarray,
        bounds: np.ndarray,
        attrs: pa.Table | None = None,
    ):
        self.fid = np.ascontiguousarray(fid, dtype=np.int64)
        self.ring_xy = np.ascontiguousarray(ring_xy, dtype=np.float64)
        self.ring_offsets = np.ascontiguousarray(ring_offsets, dtype=np.int64)
        # column-major: each of xmin/xmax/ymin/ymax is one contiguous
        # column, so the per-column gathers of the refine stay in cache
        self.bounds = np.asfortranarray(bounds, dtype=np.float64)
        self.attrs = attrs
        self.is_rect = self._detect_rects()

    def _detect_rects(self) -> np.ndarray:
        """Axis-aligned 4-vertex rectangle rings: for those, even-odd
        ray-crossing PIP is EXACTLY the half-open test
        ``xmin <= x < xmax and ymin <= y < ymax`` (verified against
        points_in_ring in tests), so refinement is pure vectorized
        compare — no per-polygon loop. Rectilinear-edge check excludes
        bowtie orderings."""
        counts = np.diff(self.ring_offsets)
        out = np.zeros(len(self.fid), dtype=bool)
        four = counts == 4
        if not four.any():
            return out
        idx = np.flatnonzero(four)
        starts = self.ring_offsets[idx]
        pts = self.ring_xy.reshape(-1, 2)
        quad = pts[starts[:, None] + np.arange(4)[None, :]]  # (n,4,2)
        b = self.bounds[idx]
        on_corner = (
            ((quad[:, :, 0] == b[:, 0, None]) | (quad[:, :, 0] == b[:, 1, None]))
            & ((quad[:, :, 1] == b[:, 2, None]) | (quad[:, :, 1] == b[:, 3, None]))
        ).all(axis=1)
        nxt = np.roll(quad, -1, axis=1)
        rectilinear = (
            (quad[:, :, 0] == nxt[:, :, 0]) | (quad[:, :, 1] == nxt[:, :, 1])
        ).all(axis=1)
        nonzero = (b[:, 1] > b[:, 0]) & (b[:, 3] > b[:, 2])
        out[idx] = on_corner & rectilinear & nonzero
        return out

    def __len__(self) -> int:
        return len(self.fid)

    @classmethod
    def from_table(
        cls,
        tbl: pa.Table,
        fid_col: str = "fid",
        ring_col: str = "ring_xy",
        attr_cols: list[str] | None = None,
    ) -> "ZoneSet":
        fid = tbl[fid_col].to_numpy()
        ring = tbl[ring_col]
        if isinstance(ring, pa.ChunkedArray):
            ring = ring.combine_chunks()
        if isinstance(ring, pa.FixedSizeListArray):
            width = ring.type.list_size
            vals = ring.flatten().to_numpy(zero_copy_only=False)
            offsets = np.arange(len(fid) + 1, dtype=np.int64) * (width // 2)
        else:
            off = ring.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            off = off - off[0]
            vals = ring.flatten().to_numpy(zero_copy_only=False)
            offsets = off // 2
        pts = vals.reshape(-1, 2)
        starts = offsets[:-1]
        bounds = np.column_stack(
            [
                np.minimum.reduceat(pts[:, 0], starts),
                np.maximum.reduceat(pts[:, 0], starts),
                np.minimum.reduceat(pts[:, 1], starts),
                np.maximum.reduceat(pts[:, 1], starts),
            ]
        )
        attrs = tbl.select(attr_cols) if attr_cols else None
        return cls(fid, vals, offsets, bounds, attrs)

    def build_index(self):
        """The point-query index: flat cell-bucket (faster than an
        STRtree for dense layers — one searchsorted per point batch),
        with each rectangle zone's interior cells classified."""
        return CellBucketIndex(self.bounds, self.is_rect)

    @cached_property
    def index(self):
        """The :meth:`build_index` index, built once per ZoneSet."""
        return self.build_index()

    def cell_groups(self, px: np.ndarray, py: np.ndarray):
        """The interior parts of :attr:`index` over one block of points:
        ``(order, starts, cell, zone)``. ``order`` lists the in-frame
        points grouped by cell, ``starts`` the position in ``order``
        where each occupied cell's group begins, and ``(cell, zone)``
        holds one pair per interior entry of an occupied cell (``cell``
        is the group number). Every point of group ``cell[k]`` lies in
        zone ``zone[k]``, so a per-group aggregate scatters straight
        into those zones; the points' other matches are
        :meth:`boundary_matches`."""
        if not self.is_rect.any():
            # no interior cells without rectangles: no grouping work
            e = np.empty(0, dtype=np.int64)
            return e, e, e, e
        idx = self.index
        pts, key = idx.cell_keys(px, py)
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        lo, mid, _ = idx.parts(key[starts])
        cnt, zone = idx.entries(lo, mid)
        return pts[order], starts, np.repeat(np.arange(len(starts)), cnt), zone

    # Points per internal chunk: keeps candidate-pair temporaries in the
    # tens-of-MB range so concurrent tasks don't blow worker heaps /
    # thrash memory bandwidth (dense layers can produce >100 candidate
    # pairs per point).
    MATCH_CHUNK = 8192

    def match_points(
        self, index: CellBucketIndex, px: np.ndarray, py: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact (point_idx, zone_idx) matches: the whole-run candidates
        of ``index`` (:attr:`index` or another :meth:`build_index`)
        kept by :meth:`refine`, ordered by point and then in run order:
        the zones whose interior holds the point's cell, then its
        boundary zones, each ascending."""
        return self._match_points(index, px, py, False)

    def boundary_matches(
        self, px: np.ndarray, py: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The :meth:`match_points` pairs found through the boundary
        parts of :attr:`index` only, in the same order. With the
        interior groups of :meth:`cell_groups` they are every match."""
        return self._match_points(self.index, px, py, True)

    def _match_points(
        self, index: CellBucketIndex, px: np.ndarray, py: np.ndarray, boundary: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """The one probe: chunked over points to bound temporary
        memory."""
        if len(px) <= self.MATCH_CHUNK:
            return self._match_points_chunk(index, px, py, boundary)
        outs_p = []
        outs_z = []
        for s in range(0, len(px), self.MATCH_CHUNK):
            e = min(len(px), s + self.MATCH_CHUNK)
            cp, cz = self._match_points_chunk(index, px[s:e], py[s:e], boundary)
            outs_p.append(cp + s)
            outs_z.append(cz)
        return np.concatenate(outs_p), np.concatenate(outs_z)

    def _match_points_chunk(
        self, index: CellBucketIndex, px: np.ndarray, py: np.ndarray, boundary: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        pts, key = index.cell_keys(px, py)
        lo, mid, hi = index.parts(key)
        cnt, cand_zone = index.entries(mid if boundary else lo, hi)
        # candidates come point by point: their coordinates are each
        # point's repeated over its run, not gathered per pair
        cand_pt = np.repeat(pts, cnt)
        if len(cand_pt) == 0:
            return cand_pt, cand_zone
        x = np.repeat(px[pts], cnt)
        y = np.repeat(py[pts], cnt)
        # positions once, then two takes: cheaper than two boolean
        # compresses over the (unpredictable) mask
        keep = np.flatnonzero(self.refine(px, py, x, y, cand_pt, cand_zone))
        return cand_pt.take(keep), cand_zone.take(keep)

    def refine(
        self,
        px: np.ndarray,
        py: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        cand_pt: np.ndarray,
        cand_zone: np.ndarray,
    ) -> np.ndarray:
        """Exact even-odd PIP of candidate pairs (point ``cand_pt[k]``
        of ``px, py`` at ``x[k], y[k]``, zone ``cand_zone[k]``), as a
        bool mask. The half-open rectangle test runs over ALL pairs, one
        contiguous bounds column at a time; pairs whose zone is not a
        rectangle are then overwritten by the ray-crossing PIP."""
        b = self.bounds
        ok = x >= b[:, 0][cand_zone]
        ok &= x < b[:, 1][cand_zone]
        ok &= y >= b[:, 2][cand_zone]
        ok &= y < b[:, 3][cand_zone]
        if not self.is_rect.all():
            gp = np.flatnonzero(~self.is_rect[cand_zone])
            if len(gp):
                ok[gp] = pip_pairs(
                    px, py, self.ring_xy, self.ring_offsets, cand_pt[gp], cand_zone[gp]
                )
        return ok


def _zone_cols(
    zones: ZoneSet, zone_idx: np.ndarray, zone_prefix: str, n_null_tail: int = 0
) -> list[tuple[str, pa.Array]]:
    cols = [
        (
            f"{zone_prefix}fid",
            pa.concat_arrays(
                [
                    pa.array(zones.fid[zone_idx], type=pa.int64()),
                    pa.nulls(n_null_tail, pa.int64()),
                ]
            )
            if n_null_tail
            else pa.array(zones.fid[zone_idx], type=pa.int64()),
        )
    ]
    if zones.attrs is not None:
        taken = zones.attrs.take(pa.array(zone_idx, type=pa.int64()))
        for name in taken.column_names:
            col = taken[name].combine_chunks()
            if n_null_tail:
                col = pa.concat_arrays([col, pa.nulls(n_null_tail, col.type)])
            cols.append((f"{zone_prefix}{name}", col))
    return cols


def _join_batch(
    zones: ZoneSet,
    index: CellBucketIndex,
    batch: pa.Table,
    how: str,
    x_col: str,
    y_col: str,
    zone_prefix: str,
    flag_col: str,
) -> pa.Table:
    px = batch[x_col].to_numpy()
    py = batch[y_col].to_numpy()
    pt_idx, zone_idx = zones.match_points(index, px, py)

    if how == "semi" or how == "anti":
        matched = np.zeros(len(batch), dtype=bool)
        matched[pt_idx] = True
        if how == "anti":
            return batch.filter(pa.array(~matched))
        return batch.append_column(flag_col, pa.array(matched))

    if how == "inner":
        out = batch.take(pa.array(pt_idx, type=pa.int64()))
        for name, col in _zone_cols(zones, zone_idx, zone_prefix):
            out = out.append_column(name, col)
        return out

    if how == "left":
        matched = np.zeros(len(batch), dtype=bool)
        matched[pt_idx] = True
        un = np.flatnonzero(~matched)
        order = np.concatenate([pt_idx, un])
        out = batch.take(pa.array(order, type=pa.int64()))
        for name, col in _zone_cols(zones, zone_idx, zone_prefix, len(un)):
            out = out.append_column(name, col)
        return out

    raise ValueError(f"unsupported how={how!r}")


def _pip_join_task(
    batch: pa.Table,
    zones_ref=None,
    how: str = "inner",
    x_col: str = "x",
    y_col: str = "y",
    zone_prefix: str = "",
    flag_col: str = "in_zone",
) -> pa.Table:
    zones = cached(zones_ref)
    return _join_batch(
        zones, zones.index, batch, how, x_col, y_col, zone_prefix, flag_col
    )


# Driver-side memo of broadcast zone layers: (Ray session, content
# digest) -> ObjectRef of the packed ZoneSet with its index built.
_BROADCASTS: OrderedDict = OrderedDict()
# Content digests by (id(table), attr_cols). A pa.Table is immutable, so
# its digest holds while it lives; a finalizer drops the entry when the
# table is collected, before its id can name another table.
_DIGESTS: dict = {}


def _zones_digest(zones_tbl: pa.Table, attr_cols: list[str] | None) -> str:
    """A blake2b-128 digest of the columns :meth:`ZoneSet.from_table`
    reads, computed once per table object. Their Arrow IPC stream
    carries the schema, lengths, offsets and buffers, normalized for
    slicing and (after ``combine_chunks``) for chunking, so equal
    digests mean equal zone layers."""
    key = (id(zones_tbl), tuple(attr_cols or ()))
    digest = _DIGESTS.get(key)
    if digest is None:
        cols = zones_tbl.select(["fid", "ring_xy", *key[1]])
        cols = cols.combine_chunks().replace_schema_metadata(None)
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, cols.schema) as w:
            w.write_table(cols)
        digest = hashlib.blake2b(sink.getvalue(), digest_size=16).hexdigest()
        _DIGESTS[key] = digest
        weakref.finalize(zones_tbl, _DIGESTS.pop, key, None)
    return digest


def _zones_key(zones_tbl: pa.Table, attr_cols: list[str] | None) -> tuple:
    """The Ray session (node and job) plus :func:`_zones_digest`."""
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id(), _zones_digest(zones_tbl, attr_cols)


def broadcast_zones(zones_tbl: pa.Table, attr_cols: list[str] | None = None):
    """Pack a zone table, build its one index (:attr:`ZoneSet.index`,
    interior cells classified) on the driver and ``ray.put`` them once
    per session: calls over an equal table (and ``attr_cols``) get the
    same ref back, so every worker process that already read it keeps
    its :func:`cached` copy, and none builds an index.
    LRU-capped like the per-process cache."""
    key = _zones_key(zones_tbl, attr_cols)
    ref = _BROADCASTS.get(key)
    if ref is None:
        zs = ZoneSet.from_table(zones_tbl, attr_cols=attr_cols)
        zs.index  # built here, once, pickled with the arrays
        ref = _BROADCASTS[key] = ray.put(zs)
        while len(_BROADCASTS) > _MAX_ENTRIES:
            _BROADCASTS.popitem(last=False)
    _BROADCASTS.move_to_end(key)
    return ref


def spatial_join_points(
    points: ray.data.Dataset,
    zones_tbl: pa.Table,
    how: str = "inner",
    attr_cols: list[str] | None = None,
    x_col: str = "x",
    y_col: str = "y",
    zone_prefix: str = "",
    batch_size: int = 32768,
) -> ray.data.Dataset:
    """Broadcast spatial join: stream point batches through stateless
    tasks reading the zone layer and its prebuilt index from the
    broadcast ref. No shuffle."""
    if how not in JOIN_HOWS:
        raise ValueError(f"unsupported how={how!r}")
    ref = broadcast_zones(zones_tbl, attr_cols)
    kwargs = {
        "zones_ref": ref,
        "how": how,
        "x_col": x_col,
        "y_col": y_col,
        "zone_prefix": zone_prefix,
    }
    return points.map_batches(
        _pip_join_task,
        fn_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def count_points_per_zone(
    points: ray.data.Dataset,
    zones_tbl: pa.Table,
    x_col: str = "x",
    y_col: str = "y",
    out_col: str = "n_points",
) -> pa.Table:
    """Per-polygon point count, zero-count zones included, sorted by
    fid — the reference's ``count_pt_intersects``
    (vectorattrs/__init__.py:1022-1102: inner sjoin -> groupby size ->
    merge back onto the polygon layer).

    Each point block's task counts its points per occupied interior
    cell once and adds those counts to the zones whose interior holds
    the cell (:meth:`ZoneSet.cell_groups`, the interior part of each
    cell run), then counts its matches through the boundary parts only
    (:meth:`ZoneSet.boundary_matches`); one row per zone touched.
    :func:`rsgislib_ray.stages.segsum.combine` sums those partials by
    fid.
    """
    ref = broadcast_zones(zones_tbl)

    def count_partial(batch: pa.Table) -> pa.Table:
        zones = cached(ref)
        px, py = batch[x_col].to_numpy(), batch[y_col].to_numpy()
        order, starts, cell, zone = zones.cell_groups(px, py)
        counts = np.zeros(len(zones), dtype=np.int64)
        np.add.at(counts, zone, np.diff(starts, append=len(order))[cell])
        _, zone_idx = zones.boundary_matches(px, py)
        counts += np.bincount(zone_idx, minlength=len(zones))
        nz = np.flatnonzero(counts)
        return pa.table({"fid": zones.fid[nz], "partial": counts[nz]})

    agg = combine(partition.map_blocks(points, count_partial), "fid", ["partial"])
    # left-join the sorted per-fid sums onto the zone layer's fids
    fid = np.sort(zones_tbl["fid"].to_numpy(), kind="stable")
    pos, hit = lookup(agg["fid"].to_numpy(), fid)
    n = np.zeros(len(fid), dtype=np.int64)
    n[hit] = agg["partial"].to_numpy()[pos[hit]]
    return pa.table({"fid": fid, out_col: n})


# ---------------------------------------------------------------------------
# Sort-merge path (both sides large)
# ---------------------------------------------------------------------------


def _emit_how(
    how: str,
    key_col: str,
    keys: np.ndarray,
    fids: np.ndarray,
    pkeys: np.ndarray,
    matched: np.ndarray,
) -> pa.Table:
    """Shape a run-join result as ``(key_col, fid)`` int64 rows for the
    requested join mode."""
    neg1 = lambda n: np.full(n, -1, dtype=np.int64)  # noqa: E731
    if how == "inner":
        k, f = keys, fids
    elif how == "left":
        un = pkeys[~matched]
        k = np.concatenate([keys, un])
        f = np.concatenate([fids, neg1(len(un))])
    elif how == "semi":
        k = pkeys[matched]
        f = neg1(len(k))
    else:  # anti
        k = pkeys[~matched]
        f = neg1(len(k))
    return pa.table(
        {key_col: pa.array(k, pa.int64()), "fid": pa.array(f, pa.int64())}
    )


def _positive_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


def _cell_counts(block: pa.Table, x_col: str, y_col: str, level: int) -> pa.Table:
    """One points block's in-frame point count per cell."""
    cell = cellmod.cells_from_xy(
        block[x_col].to_numpy(), block[y_col].to_numpy(), level
    )
    u, c = np.unique(cell[cell != -1], return_counts=True)
    return pa.table({"cell": u, "partial": c.astype(np.int64)})


def _cell_histogram(
    blocks: list, x_col: str, y_col: str, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """(cells ascending, in-frame point count of each) over the held
    points ``blocks``: one count task per group of adjacent blocks
    (``partition.map_refs``, at most one row per distinct cell per
    group), its results summed as they are held by
    :func:`rsgislib_ray.stages.segsum.combine`."""
    count = partial(_cell_counts, x_col=x_col, y_col=y_col, level=level)
    live = [(ref, m) for ref, m in blocks if m.num_rows]
    hist = combine(partition.map_refs(live, count), "cell", ["partial"])
    return hist["cell"].to_numpy(), hist["partial"].to_numpy()


def _salt_plan(n: np.ndarray, salt_threshold, max_salt: int) -> np.ndarray:
    """Salt count of each histogram cell from its exact point count
    ``n``: a cell holding more than ``salt_threshold`` points is split
    into ``ceil(n / salt_threshold)`` salts, capped at ``max_salt``;
    every other cell, and every cell when salting is off, has one."""
    per = np.ones(len(n), dtype=np.int64)
    if salt_threshold is not None:
        hot = n > salt_threshold
        per[hot] = np.minimum(-(-n[hot] // int(salt_threshold)), max_salt)
    return per


def _range_bounds(n: np.ndarray, per: np.ndarray, parts: int) -> np.ndarray:
    """Ascending rank boundaries that cut the ranks ``0 .. K-1`` into
    at most ``parts`` ranges of about equal point count, placed from
    the exact histogram: a cell holding ``n[i]`` points owns ``per[i]``
    consecutive ranks (``K = per.sum()``), one per salt, each counting
    an even share of its points. A rank goes to range
    ``searchsorted(bounds, rank, "right")``, so a range holds at most
    ``ceil(total / parts)`` points plus those of one rank. Boundaries
    past the last rank and repeated ones are left out: every range
    holds at least one rank, and with no ranks there is one range."""
    rep, salt = expand(per)
    w = n[rep] // per[rep] + (salt < n[rep] % per[rep])
    # range of a rank: where its first point falls in the running count
    rng = (np.cumsum(w) - w) * parts // max(int(w.sum()), 1)
    first = np.searchsorted(rng, np.arange(1, parts), "left")
    return np.unique(first[first < len(w)])


def _zone_rows(bounds: np.ndarray, hist, level: int, t: pa.Table):
    """A zone block's rows for the range plan and each row's range: one
    row per (zone, range), the layer's ``fid`` and ``ring_xy`` taken
    once from the source row, plus ``ranks``, the zone's live ranks in
    that range: one per covering cell that holds points (a zone
    elsewhere can match nothing), and for a hot cell one per salt.
    Rows come in source row order, then range order."""
    src, cell = cellmod.covering_cells_bboxes(*ZoneSet.from_table(t).bounds.T, level)
    cells, per = hist
    base, s = run_lookup(cells, np.append(0, np.cumsum(per)), cell)
    # drop the covering cells without points, a rank per salt of the others
    rep, salt = expand(s)
    src, rank = src[rep], base[rep] + salt
    # one run of ranks per (zone, range), zones in source row order
    parts = len(bounds) + 1
    row = src * parts + partition.range_ids(rank, bounds)
    order = np.argsort(row, kind="stable")
    row, starts = run_table(row[order])
    ranks = pa.ListArray.from_arrays(
        pa.array(starts, pa.int32()), pa.array(rank[order], pa.int64())
    )
    rows = t.select(["fid", "ring_xy"]).take(pa.array(row // parts))
    return rows.append_column("ranks", ranks), row % parts


def _prep_points(
    batch: pa.Table, hist, level: int, x_col: str, y_col: str, key_col: str, how: str
) -> pa.Table:
    """A points block's rows for the range plan: ``rank, key, x, y``.
    A hot cell's point takes salt ``splitmix64(key) % s``."""
    x = batch[x_col].to_numpy().astype(np.float64)
    y = batch[y_col].to_numpy().astype(np.float64)
    cells, per = hist
    # every in-frame cell is in the histogram of these very points
    base, s = run_lookup(
        cells, np.append(0, np.cumsum(per)), cellmod.cells_from_xy(x, y, level)
    )
    key = batch[key_col].to_numpy().astype(np.int64)
    rank = np.where(s > 0, base, -1)
    hot = s > 1
    rank[hot] += (
        splitmix64(key[hot].astype(np.uint64)) % s[hot].astype(np.uint64)
    ).astype(np.int64)
    # out-of-frame points (rank -1) stay in the stream for left/anti
    # semantics: no zone lists rank -1, so they flow through as
    # unmatched; inner emits nothing for them
    ok = s > 0 if how == "inner" else slice(None)
    return pa.table({"rank": rank[ok], "key": key[ok], "x": x[ok], "y": y[ok]})


def _ranked(prep, bounds: np.ndarray, *args):
    """The range plan's rows: ``prep(table, *rest)`` of ``args = (*rest,
    table)`` (a split task passes its table last), each row to the range
    of its rank."""
    *rest, table = args
    t = prep(table, *rest)
    return t, partition.range_ids(t["rank"].to_numpy(), bounds)


def _join_range(how: str, key_col: str, n_points: int, *parts) -> pa.Table:
    """Join one rank range: its point parts (the first ``n_points``)
    against its zone parts, from every block. Only the zone rows' ranks
    are sorted, each rank pointing back at its row: each point finds
    the zone run of its rank (:func:`run_table`, :func:`run_lookup`)
    and :meth:`ZoneSet.refine`, over the range's zone rows, keeps the
    exact pairs. Rows follow the points' arrival order."""
    pts, zones = partition.side(parts[:n_points]), partition.side(parts[n_points:])
    e = np.empty(0, dtype=np.int64)
    pkey = pts["key"].to_numpy() if pts.num_columns else e
    keys, fids, matched = e, e, np.zeros(len(pkey), dtype=bool)
    if len(pkey) and zones.num_rows:
        zrow = pc.list_parent_indices(zones["ranks"]).to_numpy()
        zrank = pc.list_flatten(zones["ranks"]).to_numpy()
        order = np.argsort(zrank, kind="stable")
        lo, cnt = run_lookup(*run_table(zrank[order]), pts["rank"].to_numpy())
        cand_pt, within = expand(cnt)
        cand_zone = zrow[order[lo[cand_pt] + within]]
        px, py = pts["x"].to_numpy(), pts["y"].to_numpy()
        zs = ZoneSet.from_table(zones)
        ok = zs.refine(px, py, px[cand_pt], py[cand_pt], cand_pt, cand_zone)
        hit = cand_pt[ok]
        matched[hit] = True
        keys, fids = pkey[hit], zs.fid[cand_zone[ok]]
    return _emit_how(how, key_col, keys, fids, pkey, matched)


def spatial_join_points_sortmerge(
    points: ray.data.Dataset,
    zones: ray.data.Dataset | pa.Table,
    level: int = 6,
    x_col: str = "x",
    y_col: str = "y",
    key_col: str = "pt_row",
    how: str = "inner",
    salt_threshold: int | None = None,
    max_salt: int = 64,
) -> ray.data.Dataset:
    """Both-sides-large spatial join, SORT-MERGE strategy over
    exact-histogram rank ranges. No Ray Data all-to-all runs.

    1. The points' blocks are taken once: a lazy input executes once,
       and one that already holds its blocks (``from_arrow``, a
       materialized Dataset) starts no execution. One plain Ray task
       per group of adjacent blocks (``partition.bundles``: up to
       ``partition.TASK_ROWS`` rows, read off the blocks' metadata)
       counts its points per level-``level`` cell;
       :func:`rsgislib_ray.stages.segsum.combine` sums the counts,
       as the tasks hold them, exactly (int64) into the per-cell
       histogram.
    2. The driver gives each cell its salt count (:func:`_salt_plan`)
       and each ``(cell, salt)`` a dense RANK: the salts of all earlier
       cells plus the salt. Ranks rise with the cells, so rows are
       keyed, split and sorted by rank. :func:`_range_bounds` cuts the
       ranks into at most ``partition.default_partitions(total)``
       ranges, ``total`` being the histogram's point count (one range
       per ``partition.TASK_ROWS`` points, up to the CPU count):
       boundaries fall between whole ranks, so no
       (cell, salt) straddles two partitions, a partition holds at most
       its even share of the points plus one rank's, and no range is
       empty.
    3. The histogram's cells and salt counts are put once. One split
       task per group of points blocks and per group of zone blocks
       (``partition.split``, grouped as in step 1) builds its side's rows
       and returns one part per range: points as ``rank, key, x, y``
       (:func:`_prep_points`), zones as one row per (zone, range), the
       layer's ``fid, ring_xy`` taken once from the source row plus
       ``ranks``, the zone's ranks in the range: one per covering cell
       that holds points, as one elsewhere can match no point, and per
       salt (:func:`_zone_rows`).
    4. One reduce task per range takes its point parts, then its zone
       parts (:func:`_join_range`). It sorts the zone ranks only, each
       pointing back at its zone row; each point expands the zone run
       of its rank (``arrayops.run_lookup``) and :meth:`ZoneSet.refine`,
       over the range's zone rows, keeps the exact pairs. Steps 3 and 4
       are the range plan of ``stages/partition.py``.

    The result is materialized: one pair block per range that yields
    rows, its rows in the order the points arrive (block by block), or
    one empty block when none does. The boundaries come from the data,
    not from a random sample, so for the same input blocks the output
    blocks are the same, row order included.
    Output contract: (key_col, fid) int64 pair rows for
    ``how="inner"``; ``"left"`` adds unmatched points with fid=-1;
    ``"semi"`` / ``"anti"`` emit one (key_col, fid=-1) row per matched
    / unmatched point. Every output block carries that schema, the
    empty one included. Inner rows identical to the broadcast join
    (tested).

    ``salt_threshold`` enables HOT-CELL SALTING (VERDICT r3 #9 — the
    skew path): each cell holding more than ``salt_threshold`` points
    spreads its points over ``ceil(n/threshold)`` (capped ``max_salt``)
    salt ranks by point-key hash, and each zone covering the hot cell
    lists every salt rank — so a cell holding 30% of the corpus
    becomes s ranks that the boundaries can place in different
    partitions, with identical output pairs (each point keeps exactly
    one salt; a zone lists each salt rank once). ``salt_threshold``
    must be None or an int >= 1, and ``max_salt`` an int >= 1: a
    ValueError says so when the join is built.
    """
    if how not in JOIN_HOWS:
        raise ValueError(f"unsupported how={how!r}")
    if salt_threshold is not None and not _positive_int(salt_threshold):
        raise ValueError(
            f"salt_threshold must be None or an int >= 1, got {salt_threshold!r}"
        )
    if not _positive_int(max_salt):
        raise ValueError(f"max_salt must be an int >= 1, got {max_salt!r}")
    pblocks = partition.held_blocks(points)[1]
    zblocks = (
        partition.put_blocks([zones])
        if isinstance(zones, pa.Table)
        else partition.held_blocks(zones)[1]
    )

    cells, n = _cell_histogram(pblocks, x_col, y_col, level)
    per = _salt_plan(n, salt_threshold, max_salt)
    bounds = _range_bounds(n, per, partition.default_partitions(int(n.sum())))
    hist = ray.put((cells, per))

    ranges = len(bounds) + 1
    psplits = partition.split(
        _ranked, ranges, pblocks, _prep_points, bounds, hist,
        level, x_col, y_col, key_col, how,
    )
    zsplits = partition.split(_zone_rows, ranges, zblocks, bounds, hist, level)
    return partition.reduce(
        partial(_join_range, how, key_col, len(psplits)), psplits + zsplits, ranges
    )
