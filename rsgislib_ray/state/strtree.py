"""Bulk-packed STR R-tree in plain numpy arrays.

The reference builds an ``rtree`` index over a layer once and queries
it per bbox (/root/reference/python/rsgislib/vectorgeoms/__init__.py:3198-3239)
and geopandas' sjoin does the same internally
(vectorattrs/__init__.py:1229-1307). Neither library exists here, so
this is a from-scratch Sort-Tile-Recursive packed tree:

- arrays only (pickles cheaply → broadcast once with ``ray.put`` and
  rebuilt-free inside each actor's ``__init__``),
- multi-point queries are frontier-expansion over whole levels
  (np.repeat + vectorized bbox tests) — no per-point Python recursion,
  so a 100k-point batch is a handful of numpy ops.
"""

from __future__ import annotations

import numpy as np

from rsgislib_ray.functions.arrayops import expand, run_lookup, run_table

_LEAF_CAP = 16
# Cell-key space up to which CellBucketIndex sorts its keys as uint16
# (grid level <= 8).
_RADIX_KEYS = 1 << 16


def _str_order(bounds: np.ndarray, cap: int) -> np.ndarray:
    """Sort-Tile-Recursive ordering: slice by x-center, sort slices by
    y-center. Returns a permutation of ``arange(len(bounds))``."""
    n = len(bounds)
    cx = (bounds[:, 0] + bounds[:, 1]) * 0.5
    cy = (bounds[:, 2] + bounds[:, 3]) * 0.5
    n_nodes = -(-n // cap)
    n_slices = int(np.ceil(np.sqrt(n_nodes)))
    slice_sz = n_slices * cap
    by_x = np.argsort(cx, kind="stable")
    order = np.empty(n, dtype=np.int64)
    for s in range(0, n, slice_sz):
        chunk = by_x[s : s + slice_sz]
        order[s : s + len(chunk)] = chunk[np.argsort(cy[chunk], kind="stable")]
    return order


class CellBucketIndex:
    """Flat grid-bucket index over item bboxes — the fast path for
    point-in-bbox candidate generation on dense layers.

    Each item is duplicated into every grid cell its bbox touches;
    the entries (``item_of``, one item id each) are sorted by cell key,
    so each occupied cell holds one run of them. A run table over the
    occupied cells, ``cells`` (their keys, ascending) and ``starts``
    (where each cell's run begins in ``item_of``, plus the entry count
    last), finds a point's run with one ``searchsorted`` over at most
    ``4**level`` cells; a vectorized run expansion then lists the
    candidates (no tree descent).
    The build is linear up to grid level 8: the entry keys come from a
    running sum of deltas, and the stable sort runs on ``uint16`` keys,
    which numpy radix-sorts (same permutation as the int64 sort used
    above level 8).
    Memory = one item id per entry plus the run table (two int64 per
    occupied cell): O(sum of per-item cell covers); the constructor
    picks the cell size from the median item extent so duplication
    stays ~100x bounded while false candidates stay within ~20% of
    true matches.
    STRtree (below) remains for bbox-vs-bbox queries and sparse layers.

    Interior and boundary cells (:meth:`split`). A point lands in cell
    ``col = c(x) = floor((x - x0) / cw)`` (:meth:`cell_keys`; ``row =
    r(y)`` alike). Each step of ``c`` (``fl(x - x0)``, ``fl(. / cw)``,
    ``floor``) is monotone non-decreasing, so ``x < xmin`` gives ``c(x)
    <= c(xmin)`` and ``x >= xmax`` gives ``c(x) >= c(xmax)``. A point
    in a cell with ``c(xmin) < col < c(xmax)`` and ``r(ymin) < row <
    r(ymax)`` therefore passes the half-open test ``xmin <= x < xmax,
    ymin <= y < ymax`` with no epsilon: for an axis-aligned rectangle
    item (whose exact point-in-polygon test is that one) every point of
    such an interior cell is a match, and only its boundary cells need
    a per-point refine.
    """

    def __init__(
        self,
        bounds: np.ndarray,
        level: int | None = None,
        frame: tuple[float, float, float, float] | None = None,  # x0,y0,w,h
    ):
        # columns only: a column-major ``bounds`` is used without a copy
        bounds = np.asarray(bounds, dtype=np.float64)
        self.n_items = len(bounds)
        if frame is None:
            # Frame = union of item bboxes: any point outside it is
            # outside EVERY item bbox, so dropping out-of-frame query
            # points is exact (no candidate loss).
            if self.n_items:
                x0 = float(bounds[:, 0].min())
                y0 = float(bounds[:, 2].min())
                width = max(float(bounds[:, 1].max()) - x0, 1e-9)
                height = max(float(bounds[:, 3].max()) - y0, 1e-9)
            else:
                x0 = y0 = 0.0
                width = height = 1.0
            frame = (x0, y0, width, height)
        x0, y0, width, height = frame
        self.x0, self.y0 = x0, y0
        if self.n_items == 0:
            self.level = level if level is not None else 0
            n = 1 << self.level
            self.n_side = n
            self.cw = width / n
            self.ch = height / n
            self.cells, self.starts = run_table(np.empty(0, dtype=np.int64))
            self.item_of = np.empty(0, dtype=np.int64)
            return
        if level is None:
            med_w = float(np.median(bounds[:, 1] - bounds[:, 0]))
            med_h = float(np.median(bounds[:, 3] - bounds[:, 2]))
            med = max(min(med_w, med_h), 1e-9)
            target = max(med / 8.0, width / 4096.0)
            level = int(np.clip(np.floor(np.log2(width / target)), 0, 12))
        self.level = level
        n = 1 << level
        self.n_side = n
        self.cw = width / n
        self.ch = height / n
        c0 = np.clip(np.floor((bounds[:, 0] - x0) / self.cw), 0, n - 1).astype(
            np.int64
        )
        c1 = np.clip(np.floor((bounds[:, 1] - x0) / self.cw), 0, n - 1).astype(
            np.int64
        )
        r0 = np.clip(np.floor((bounds[:, 2] - y0) / self.ch), 0, n - 1).astype(
            np.int64
        )
        r1 = np.clip(np.floor((bounds[:, 3] - y0) / self.ch), 0, n - 1).astype(
            np.int64
        )
        w = c1 - c0 + 1
        h = r1 - r0 + 1
        counts = w * h
        total = int(counts.sum())
        item = np.repeat(np.arange(self.n_items, dtype=np.int64), counts)
        # Entry keys (row * n + col, row-major over each item's cover) as
        # a running sum of deltas: +1 along a cover row, n - w + 1 at a
        # wrap to the next cover row, and the jump from the previous
        # item's last cell to this item's first at each item start.
        start = np.cumsum(counts) - counts
        first = r0 * n + c0
        last = first + (h - 1) * n + (w - 1)
        delta = np.ones(total, dtype=np.int64)
        wraps = h - 1
        k = np.arange(1, int(wraps.sum()) + 1, dtype=np.int64) - np.repeat(
            np.cumsum(wraps) - wraps, wraps
        )
        delta[np.repeat(start, wraps) + k * np.repeat(w, wraps)] = np.repeat(
            n - w + 1, wraps
        )
        delta[start] = first - np.concatenate([[0], last[:-1]])
        key = np.cumsum(delta)
        if n * n <= _RADIX_KEYS:
            # numpy's stable sort on 16-bit keys is a linear-time radix
            # sort: the same permutation as the int64 merge sort, ~6x
            # faster. The run table then comes from a bincount of the
            # keys instead of a gather of them.
            order = np.argsort(key.astype(np.uint16), kind="stable")
            per_cell = np.bincount(key, minlength=n * n)
            self.cells = np.flatnonzero(per_cell)
            self.starts = np.append(0, np.cumsum(per_cell[self.cells]))
        else:
            order = np.argsort(key, kind="stable")
            self.cells, self.starts = run_table(key[order])
        self.item_of = item[order]

    def cell_keys(self, px: np.ndarray, py: np.ndarray):
        """(indices of the in-frame points, their cell keys ``row * n +
        col``), with ``col = floor((x - x0) / cw)`` and ``row =
        floor((y - y0) / ch)``: the placement every query uses, and the
        one :meth:`split` reasons about. NaN points are out of frame."""
        n = self.n_side
        col = np.floor((np.asarray(px) - self.x0) / self.cw)
        row = np.floor((np.asarray(py) - self.y0) / self.ch)
        ok = (col >= 0) & (col < n) & (row >= 0) & (row < n)
        pts = np.flatnonzero(ok)
        return pts, (row[pts] * n + col[pts]).astype(np.int64)

    def runs(self, key: np.ndarray):
        """``(cnt, item_idx)``: how many entries each cell key of ``key``
        holds, and those entries' items, key by key in entry order."""
        lo, cnt = run_lookup(self.cells, self.starts, key)
        # entry position = run start + rank within the run
        pos = np.arange(int(cnt.sum()), dtype=np.int64) + np.repeat(
            lo - (np.cumsum(cnt) - cnt), cnt
        )
        return cnt, self.item_of[pos]

    def query_keys(self, key: np.ndarray, ids: np.ndarray):
        """(``ids`` repeated once per entry, item_idx) over every entry
        under each cell key of ``key``."""
        cnt, item = self.runs(key)
        return np.repeat(ids, cnt), item

    def point_runs(self, px: np.ndarray, py: np.ndarray):
        """``(pts, cnt, item_idx)``: the in-frame points, each one's
        candidate count, and the candidates point by point, so
        ``(np.repeat(pts, cnt), item_idx)`` are the pairs of
        :meth:`query_points`, in the same order."""
        pts, key = self.cell_keys(px, py)
        return (pts, *self.runs(key))

    def query_points(self, px: np.ndarray, py: np.ndarray):
        """(point_idx, item_idx) candidate pairs: all items whose bbox
        cover-cell contains the point's cell (superset of true bbox
        containment; caller refines)."""
        pts, cnt, item = self.point_runs(px, py)
        return np.repeat(pts, cnt), item

    def split(self, bounds: np.ndarray, eligible: np.ndarray):
        """This index's entries as ``(interior, boundary)``: two indexes
        over the same grid, each still sorted by cell key. An entry
        (cell ``(col, row)``, item ``i``) is interior when
        ``eligible[i]`` and ``c(xmin) < col < c(xmax)`` and ``r(ymin) <
        row < r(ymax)`` (the class docstring says why that needs no
        epsilon); every other entry is boundary."""
        b = np.asarray(bounds, dtype=np.float64)
        n = self.n_side
        key = np.repeat(self.cells, np.diff(self.starts))
        col = key % n
        row = key // n
        it = self.item_of
        inner = np.asarray(eligible, dtype=bool)[it]
        for lo, hi, cell, origin, size in (
            (0, 1, col, self.x0, self.cw),
            (2, 3, row, self.y0, self.ch),
        ):
            inner &= np.floor((b[:, lo] - origin) / size)[it] < cell
            inner &= cell < np.floor((b[:, hi] - origin) / size)[it]
        return self._subset(inner), self._subset(~inner)

    def _subset(self, keep: np.ndarray) -> "CellBucketIndex":
        """A copy over the same grid holding the ``keep`` entries, with
        the run table of the cells that keep any."""
        out = object.__new__(CellBucketIndex)
        out.__dict__.update(self.__dict__)
        out.item_of = self.item_of[keep]
        # kept entries before each run start; a cell keeps any entry
        # when that count rises over its run
        before = np.append(0, np.cumsum(keep))[self.starts]
        occupied = np.flatnonzero(np.diff(before))
        out.cells = self.cells[occupied]
        out.starts = np.append(before[occupied], len(out.item_of))
        return out


class STRtree:
    """Static packed R-tree over item bboxes.

    Parameters: ``bounds`` is (N, 4) float64 ``[xmin, xmax, ymin, ymax]``.
    ``query_points`` / ``query_bboxes`` return candidate (query, item)
    index pairs; the caller refines (e.g. exact PIP via
    :func:`rsgislib_ray.functions.geom.pip_pairs`).
    """

    def __init__(self, bounds: np.ndarray, node_capacity: int = _LEAF_CAP):
        bounds = np.ascontiguousarray(bounds, dtype=np.float64)
        if bounds.ndim != 2 or bounds.shape[1] != 4:
            raise ValueError("bounds must be (N, 4) [xmin, xmax, ymin, ymax]")
        self.cap = node_capacity
        self.n_items = len(bounds)
        if self.n_items == 0:
            self.item_order = np.empty(0, dtype=np.int64)
            self.levels: list[tuple[np.ndarray, np.ndarray]] = []
            return
        order = _str_order(bounds, self.cap)
        self.item_order = order  # leaf-packed item ordering
        cur = bounds[order]
        # levels[0] groups packed items; levels[i] groups levels[i-1] nodes.
        self.levels = []
        while True:
            n = len(cur)
            n_nodes = -(-n // self.cap)
            offsets = np.minimum(
                np.arange(n_nodes + 1, dtype=np.int64) * self.cap, n
            )
            nb = np.empty((n_nodes, 4), dtype=np.float64)
            nb[:, 0] = np.minimum.reduceat(cur[:, 0], offsets[:-1])
            nb[:, 1] = np.maximum.reduceat(cur[:, 1], offsets[:-1])
            nb[:, 2] = np.minimum.reduceat(cur[:, 2], offsets[:-1])
            nb[:, 3] = np.maximum.reduceat(cur[:, 3], offsets[:-1])
            self.levels.append((cur, offsets))
            if n_nodes == 1:
                self.root = nb[0]
                break
            if len(self.levels) > 1:
                # upper levels are packed in natural (already spatial) order
                pass
            cur = nb

    def query_points(self, px: np.ndarray, py: np.ndarray):
        """All (point_idx, item_idx) pairs where the item bbox contains
        the point (closed bounds)."""
        if self.n_items == 0 or len(px) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        q = np.flatnonzero(
            (px >= self.root[0])
            & (px <= self.root[1])
            & (py >= self.root[2])
            & (py <= self.root[3])
        )
        n = np.zeros(len(q), dtype=np.int64)  # everyone starts at root node 0
        for child_bounds, offsets in reversed(self.levels):
            first = offsets[n]
            rep, within = expand(offsets[n + 1] - first)
            q, c = q[rep], first[rep] + within
            if len(q) == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            b = child_bounds[c]
            keep = (
                (px[q] >= b[:, 0])
                & (px[q] <= b[:, 1])
                & (py[q] >= b[:, 2])
                & (py[q] <= b[:, 3])
            )
            q, n = q[keep], c[keep]
        return q, self.item_order[n]

    def query_bboxes(self, qb: np.ndarray):
        """All (query_idx, item_idx) pairs whose bboxes intersect.
        ``qb`` is (Q, 4) [xmin, xmax, ymin, ymax], closed-bounds
        intersection test (mirrors geometrytools.do_bboxes_intersect,
        /root/reference/python/rsgislib/tools/geometrytools.py:87)."""
        if self.n_items == 0 or len(qb) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        qb = np.asarray(qb, dtype=np.float64)
        hit_root = (
            (qb[:, 1] >= self.root[0])
            & (qb[:, 0] <= self.root[1])
            & (qb[:, 3] >= self.root[2])
            & (qb[:, 2] <= self.root[3])
        )
        q = np.flatnonzero(hit_root)
        n = np.zeros(len(q), dtype=np.int64)
        for child_bounds, offsets in reversed(self.levels):
            first = offsets[n]
            rep, within = expand(offsets[n + 1] - first)
            q, c = q[rep], first[rep] + within
            if len(q) == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            b = child_bounds[c]
            keep = (
                (qb[q, 1] >= b[:, 0])
                & (qb[q, 0] <= b[:, 1])
                & (qb[q, 3] >= b[:, 2])
                & (qb[q, 2] <= b[:, 3])
            )
            q, n = q[keep], c[keep]
        return q, self.item_order[n]
