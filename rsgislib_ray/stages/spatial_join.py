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
   straddles two partitions and no range is empty; zone rows go only
   to cells that hold points; each block's rows are split by those
   boundaries and each range is joined, vectorized, by one plain Ray
   task — the range plan of the engine's partition tasks
   (``stages/partition.py``). No Ray Data all-to-all runs.

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
import ray
import ray.data

from rsgislib_ray.functions import cells as cellmod
from rsgislib_ray.functions.arrayops import expand
from rsgislib_ray.functions.geom import pip_pairs
from rsgislib_ray.functions.hashing import splitmix64
from rsgislib_ray.stages import partition
from rsgislib_ray.stages.segsum import combine, lookup
from rsgislib_ray.state.broadcast import _MAX_ENTRIES, cached
from rsgislib_ray.state.strtree import CellBucketIndex, STRtree

# Join modes both strategies support, checked when the join is built.
JOIN_HOWS = ("inner", "left", "semi", "anti")


class ZoneSet:
    """Packed polygon side-table: numpy arrays + attr columns.

    Cheap to pickle/broadcast; rebuildable STRtree. ``ring_offsets``
    are coordinate-PAIR offsets (n_zones+1). :attr:`index` and its
    interior / boundary split :attr:`cover` are built on first use and
    pickle with the arrays, so a ZoneSet broadcast after they are built
    reaches the workers with both.
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

    def build_tree(self) -> STRtree:
        return STRtree(self.bounds)

    def build_index(self):
        """Default point-query index: flat cell-bucket (faster than the
        STRtree for dense layers — one searchsorted per point batch).
        Both index types expose ``query_points``; :meth:`match_points`
        takes either."""
        return CellBucketIndex(self.bounds)

    @cached_property
    def index(self):
        """The :meth:`build_index` index, built once per ZoneSet."""
        return self.build_index()

    @cached_property
    def cover(self):
        """:attr:`index` split into ``(interior, boundary)`` entries
        (:meth:`CellBucketIndex.split
        <rsgislib_ray.state.strtree.CellBucketIndex.split>`): every
        point of a rectangle zone's interior cell lies in the zone, so
        only boundary entries are probed per point. Built once per
        ZoneSet; a non-rectangle zone is all boundary."""
        return self.index.split(self.bounds, self.is_rect)

    def cell_groups(self, px: np.ndarray, py: np.ndarray):
        """The interior side of :attr:`cover` over one block of points:
        ``(order, starts, cell, zone)``. ``order`` lists the in-frame
        points grouped by cell, ``starts`` the position in ``order``
        where each occupied cell's group begins, and ``(cell, zone)``
        holds one pair per interior entry of an occupied cell (``cell``
        is the group number). Every point of group ``cell[k]`` lies in
        zone ``zone[k]``, so a per-group aggregate scatters straight
        into those zones; the points' other matches come from the
        boundary entries (``match_points(cover[1], ...)``)."""
        inner = self.cover[0]
        if len(inner.item_of) == 0:
            # no interior cells (e.g. no rectangles): no grouping work
            e = np.empty(0, dtype=np.int64)
            return e, e, e, e
        pts, key = inner.cell_keys(px, py)
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        cell, zone = inner.query_keys(key[starts], np.arange(len(starts)))
        return pts[order], starts, cell, zone

    # Points per internal chunk: keeps candidate-pair temporaries in the
    # tens-of-MB range so concurrent tasks don't blow worker heaps /
    # thrash memory bandwidth (dense layers can produce >100 candidate
    # pairs per point).
    MATCH_CHUNK = 8192

    def match_points(
        self, index, px: np.ndarray, py: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact (point_idx, zone_idx) matches: index candidates
        (CellBucketIndex or STRtree — anything with ``query_points``)
        refined by even-odd PIP (vectorized half-open compare for
        rectangle rings, grouped ray-crossing for the rest), ordered by
        point and then by the index's candidate order. Chunked over
        points to bound temporary memory."""
        if len(px) <= self.MATCH_CHUNK:
            return self._match_points_chunk(index, px, py)
        outs_p = []
        outs_z = []
        for s in range(0, len(px), self.MATCH_CHUNK):
            e = min(len(px), s + self.MATCH_CHUNK)
            cp, cz = self._match_points_chunk(index, px[s:e], py[s:e])
            outs_p.append(cp + s)
            outs_z.append(cz)
        return np.concatenate(outs_p), np.concatenate(outs_z)

    def _match_points_chunk(
        self, index, px: np.ndarray, py: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(index, CellBucketIndex):
            # candidates come point by point: their coordinates are
            # each point's repeated over its run, not gathered per pair
            pts, cnt, cand_zone = index.point_runs(px, py)
            cand_pt = np.repeat(pts, cnt)
            x = np.repeat(px[pts], cnt)
            y = np.repeat(py[pts], cnt)
        else:
            cand_pt, cand_zone = index.query_points(px, py)
            x = px[cand_pt]
            y = py[cand_pt]
        if len(cand_pt) == 0:
            return cand_pt, cand_zone
        # Half-open rectangle test over ALL candidates, one contiguous
        # bounds column at a time; pairs whose zone is not a rectangle
        # are then overwritten by the exact ray-crossing PIP.
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
        # positions once, then two takes: cheaper than two boolean
        # compresses over the (unpredictable) mask
        keep = np.flatnonzero(ok)
        return cand_pt.take(keep), cand_zone.take(keep)


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
    tree: STRtree,
    batch: pa.Table,
    how: str,
    x_col: str,
    y_col: str,
    zone_prefix: str,
    flag_col: str,
) -> pa.Table:
    px = batch[x_col].to_numpy()
    py = batch[y_col].to_numpy()
    pt_idx, zone_idx = zones.match_points(tree, px, py)

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
    """Pack a zone table, build its index and the index's interior /
    boundary split (:attr:`ZoneSet.cover`) on the driver and ``ray.put``
    them once per session: calls over an equal table (and
    ``attr_cols``) get the same ref back, so every worker process that
    already read it keeps its :func:`cached` copy, and none builds an
    index or a split.
    LRU-capped like the per-process cache."""
    key = _zones_key(zones_tbl, attr_cols)
    ref = _BROADCASTS.get(key)
    if ref is None:
        zs = ZoneSet.from_table(zones_tbl, attr_cols=attr_cols)
        zs.cover  # index and split built here, once, pickled with the arrays
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
    the cell (:meth:`ZoneSet.cell_groups`), then counts its matches
    through the boundary entries only; one row per zone touched.
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
        _, zone_idx = zones.match_points(zones.cover[1], px, py)
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


def _join_arrays(prank, pkey, ppx, ppy, zrank, zfid, zb, zv_lo, zv_hi, zvals):
    """Vectorized run join: points x zones sharing a rank key, with
    inline rect / ring PIP refine. zrank must be sorted. zv_lo / zv_hi are
    per-zone float64 slice bounds into zvals (equal for rect rows ->
    empty ring). Returns (point keys, zone fids, per-point matched)."""
    lo = np.searchsorted(zrank, prank, side="left")
    hi = np.searchsorted(zrank, prank, side="right")
    cnt = hi - lo
    total = int(cnt.sum())
    if total == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.zeros(len(prank), dtype=bool),
        )
    rep, within = expand(cnt)
    zi = lo[rep] + within
    px_p = ppx[rep]
    py_p = ppy[rep]
    ok = np.zeros(total, dtype=bool)
    zwidth = zv_hi - zv_lo
    is_rect_pair = zwidth[zi] == 0
    pr = np.flatnonzero(is_rect_pair)
    if len(pr):
        zsel = zi[pr]
        ok[pr] = (
            (px_p[pr] >= zb[zsel, 0])
            & (px_p[pr] < zb[zsel, 1])
            & (py_p[pr] >= zb[zsel, 2])
            & (py_p[pr] < zb[zsel, 3])
        )
    gp = np.flatnonzero(~is_rect_pair)
    if len(gp):
        gen_rows = np.flatnonzero(zwidth > 0)
        gw = zwidth[gen_rows]
        goff = np.concatenate([[0], np.cumsum(gw // 2)]).astype(np.int64)
        # the rows' ring slices, concatenated in one gather
        gvals = zvals[
            np.repeat(zv_lo[gen_rows] - (np.cumsum(gw) - gw), gw)
            + np.arange(int(gw.sum()))
        ]
        row_to_gen = np.full(len(zrank), -1, dtype=np.int64)
        row_to_gen[gen_rows] = np.arange(len(gen_rows))
        ok[gp] = pip_pairs(
            px_p[gp], py_p[gp], gvals, goff,
            np.arange(len(gp), dtype=np.int64), row_to_gen[zi[gp]],
        )
    matched = np.zeros(len(prank), dtype=bool)
    matched[rep[ok]] = True
    return pkey[rep[ok]], zfid[zi[ok]], matched


def _split_blob(col):
    """(int64 byte offsets, uint8 data) of a binary column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    off_all = np.frombuffer(col.buffers()[1], dtype=np.int32)
    off = off_all[col.offset : col.offset + len(col) + 1].astype(np.int64)
    buf = col.buffers()[2]
    data = (
        np.frombuffer(buf, dtype=np.uint8) if buf is not None
        else np.empty(0, dtype=np.uint8)
    )
    return off, data


def _join_sorted(
    t: pa.Table,
    how: str,
    x_col: str,
    y_col: str,
    key_col: str,
) -> pa.Table:
    """Sort-merge run join over a rank-sorted table of point and zone
    rows (one rank range of ``spatial_join_points_sortmerge``), which
    must hold every row of each of its ranks. Emits ``(key_col, fid)``
    per ``how``; an empty ``t`` (which may carry no schema) gives a
    typed empty table."""
    if t.num_rows == 0:
        e = np.empty(0, dtype=np.int64)
        return _emit_how(how, key_col, e, e, e, np.zeros(0, dtype=bool))
    rank = t["rank"].to_numpy()
    side = t["side"].to_numpy()
    rb_off, rb_data = _split_blob(t["ring_blob"])
    vals = (
        np.frombuffer(
            np.ascontiguousarray(rb_data[rb_off[0] : rb_off[-1]]),
            dtype=np.float64,
        )
        if rb_off[-1] > rb_off[0]
        else np.empty(0)
    )
    voff = (rb_off - rb_off[0]) // 8
    pi = np.flatnonzero(side == 0)
    zi = np.flatnonzero(side == 1)
    pkeys = t["key"].to_numpy()[pi]
    if len(pi) and len(zi):
        keys, fids, matched = _join_arrays(
            rank[pi],
            pkeys,
            t[x_col].to_numpy()[pi],
            t[y_col].to_numpy()[pi],
            rank[zi],
            t["fid"].to_numpy()[zi],
            np.column_stack(
                [t[c].to_numpy()[zi] for c in ("zxmin", "zxmax", "zymin", "zymax")]
            ),
            voff[zi],        # per-zone float64 slice bounds into the
            voff[zi + 1],    # table's concatenated ring values
            vals,
        )
    else:
        keys = np.empty(0, dtype=np.int64)
        fids = np.empty(0, dtype=np.int64)
        matched = np.zeros(len(pi), dtype=bool)
    return _emit_how(how, key_col, keys, fids, pkeys, matched)


def _positive_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


def _rank_lookup(hist, cell: np.ndarray):
    """Per cell under the histogram ``hist = (cells ascending, salt
    count of each)``: (is one of its cells, rank of its salt 0, its
    salt count). The last two are only meaningful where the first is
    true."""
    cells, per = hist
    if len(cells) == 0:
        zero = np.zeros(len(cell), dtype=np.int64)
        return zero.astype(bool), zero, zero
    pos = np.minimum(np.searchsorted(cells, cell), len(cells) - 1)
    return cells[pos] == cell, (np.cumsum(per) - per)[pos], per[pos]


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
    """(cells ascending, in-frame point count of each) over the points
    ``blocks``: one count task per block (``partition.map_refs``, at
    most one row per distinct cell per block), its results summed as
    they are held by :func:`rsgislib_ray.stages.segsum.combine`."""
    count = partial(_cell_counts, x_col=x_col, y_col=y_col, level=level)
    hist = combine(partition.map_refs(blocks, count), "cell", ["partial"])
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


def _prep_zones(t: pa.Table, hist, level: int, x_col: str, y_col: str) -> pa.Table:
    """Zone rows in the sort-merge row layout, one per covering cell
    that holds points (a zone row elsewhere can match nothing), and for
    a hot cell one per salt, keyed by rank."""
    # one ZoneSet over the source rows; each row gathers from it
    # through its source row index
    zs = ZoneSet.from_table(t)
    src, cell = cellmod.covering_cells_bboxes(
        zs.bounds[:, 0], zs.bounds[:, 1], zs.bounds[:, 2], zs.bounds[:, 3], level
    )
    live, base, s = _rank_lookup(hist, cell)
    # drop the rows of cells without points, copy the others per salt
    rep, salt = expand(np.where(live, s, 0))
    rank = base[rep] + salt
    src = src[rep]
    n = len(src)
    # ring values of the non-rectangle rows, concatenated in row order
    width = np.where(zs.is_rect[src], 0, 2 * np.diff(zs.ring_offsets)[src])
    byte_off = np.concatenate([[0], np.cumsum(width * 8)]).astype(np.int32)
    first = 2 * zs.ring_offsets[src] - (np.cumsum(width) - width)
    vals = zs.ring_xy[np.repeat(first, width) + np.arange(int(width.sum()))]
    blob_arr = pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(byte_off.tobytes()), pa.py_buffer(vals.tobytes())],
    )
    zeros = np.zeros(n)
    return pa.table(
        {
            "rank": pa.array(rank, pa.int64()),
            "side": pa.array(np.ones(n, dtype=np.int8)),
            "key": pa.array(np.zeros(n, dtype=np.int64)),
            "fid": pa.array(zs.fid[src]),
            x_col: zeros,
            y_col: zeros,
            "zxmin": zs.bounds[src, 0],
            "zxmax": zs.bounds[src, 1],
            "zymin": zs.bounds[src, 2],
            "zymax": zs.bounds[src, 3],
            "ring_blob": blob_arr,
        }
    )


def _prep_points(
    batch: pa.Table, hist, level: int, x_col: str, y_col: str, key_col: str, how: str
) -> pa.Table:
    """Point rows in the sort-merge row layout, keyed by rank: a hot
    cell's point takes salt ``splitmix64(key) % s``."""
    cell = cellmod.cells_from_xy(
        batch[x_col].to_numpy(), batch[y_col].to_numpy(), level
    )
    # every in-frame cell is in the histogram of these very points
    inframe, base, s = _rank_lookup(hist, cell)
    key = batch[key_col].to_numpy()
    rank = np.where(inframe, base, -1)
    hot = inframe & (s > 1)
    rank[hot] += (
        splitmix64(key[hot].astype(np.uint64)) % s[hot].astype(np.uint64)
    ).astype(np.int64)
    # out-of-frame points (rank -1) stay in the stream for left/anti
    # semantics: no zone row has rank -1, so they flow through as
    # unmatched; inner emits nothing for them
    ok = np.ones(len(rank), dtype=bool) if how != "inner" else inframe
    n = int(ok.sum())
    empty_blob = pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(np.zeros(n + 1, dtype=np.int32).tobytes()),
         pa.py_buffer(b"")],
    )
    zeros = np.zeros(n)
    return pa.table(
        {
            "rank": pa.array(rank[ok], pa.int64()),
            "side": pa.array(np.zeros(n, dtype=np.int8)),
            "key": pa.array(key[ok].astype(np.int64)),
            "fid": pa.array(np.zeros(n, dtype=np.int64)),
            x_col: batch[x_col].to_numpy()[ok].astype(np.float64),
            y_col: batch[y_col].to_numpy()[ok].astype(np.float64),
            "zxmin": zeros,
            "zxmax": zeros,
            "zymin": zeros,
            "zymax": zeros,
            "ring_blob": empty_blob,
        }
    )


def _ranked(prep, bounds: np.ndarray, *args):
    """The range plan's rows: ``prep(*args)``, each row to the range of
    its rank."""
    t = prep(*args)
    return t, partition.range_ids(t["rank"].to_numpy(), bounds)


def _join_range(how: str, x_col: str, y_col: str, key_col: str, *parts) -> pa.Table:
    """Join one rank range: its parts from every block, stable-sorted
    by rank, then the run join."""
    t = pa.concat_tables(parts) if parts else pa.table({})
    if t.num_rows:
        t = t.take(pa.array(np.argsort(t["rank"].to_numpy(), kind="stable")))
    return _join_sorted(t, how, x_col, y_col, key_col)


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
       per block counts its points per level-``level`` cell;
       :func:`rsgislib_ray.stages.segsum.combine` sums the counts,
       as the tasks hold them, exactly (int64) into the per-cell
       histogram.
    2. The driver gives each cell its salt count (:func:`_salt_plan`)
       and each ``(cell, salt)`` a dense RANK: the salts of all earlier
       cells plus the salt. Ranks rise with the cells, so rows are
       keyed, split and sorted by rank. :func:`_range_bounds` cuts the
       ranks into at most ``partition.default_partitions()`` ranges
       from the histogram: boundaries fall between whole ranks, so no
       (cell, salt) straddles two partitions, a partition holds at most
       its even share of the points plus one rank's, and no range is
       empty.
    3. The histogram's cells and salt counts are put once. One split
       task per points block and per zone block builds its rows in the
       sort-merge layout (:func:`_prep_points`, :func:`_prep_zones`:
       zone rows only in cells that hold points, as one elsewhere can
       match no point) and returns one part per range.
    4. One reduce task per range stable-sorts its parts by rank and
       joins the rank runs vectorized (:func:`_join_sorted`:
       searchsorted expansion + inline PIP refine). Steps 3 and 4 are
       the range plan of ``stages/partition.py``.

    The result is materialized: one pair block per range that yields
    rows, in rank order, or one empty block when none does. The
    boundaries come from the data, not from a random sample, so for the
    same input blocks the output blocks are the same, row order
    included.
    Output contract: (key_col, fid) int64 pair rows for
    ``how="inner"``; ``"left"`` adds unmatched points with fid=-1;
    ``"semi"`` / ``"anti"`` emit one (key_col, fid=-1) row per matched
    / unmatched point. Every output block carries that schema, the
    empty one included. Inner rows identical to the broadcast join
    (tested).

    ``salt_threshold`` enables HOT-CELL SALTING (VERDICT r3 #9 — the
    skew path): each cell holding more than ``salt_threshold`` points
    spreads its points over ``ceil(n/threshold)`` (capped ``max_salt``)
    salt ranks by point-key hash, and the hot cell's ZONE rows
    replicate onto every salt — so a cell holding 30% of the corpus
    becomes s ranks that the boundaries can place in different
    partitions, with identical output pairs (each point keeps exactly
    one salt; its zone copies are unique per salt). ``salt_threshold``
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
    pblocks = [b for b, m in partition.held_blocks(points)[1] if m.num_rows]
    zblocks = (
        [zones]
        if isinstance(zones, pa.Table)
        else [b for b, m in partition.held_blocks(zones)[1] if m.num_rows]
    )

    cells, n = _cell_histogram(pblocks, x_col, y_col, level)
    per = _salt_plan(n, salt_threshold, max_salt)
    bounds = _range_bounds(n, per, partition.default_partitions())
    hist = ray.put((cells, per))

    ranges = len(bounds) + 1
    splits = [
        partition.split(
            _ranked, ranges, _prep_points, bounds, b, hist,
            level, x_col, y_col, key_col, how,
        )
        for b in pblocks
    ] + [
        partition.split(
            _ranked, ranges, _prep_zones, bounds, b, hist, level, x_col, y_col
        )
        for b in zblocks
    ]
    return partition.reduce(
        partial(_join_range, how, x_col, y_col, key_col), splits, ranges
    )
