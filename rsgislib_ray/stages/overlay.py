"""Geopandas-style overlay IDENTITY and UNION against a disjoint tile
layer (reference ``vec_lyr_identity_gp`` / ``vec_lyr_union_gp``,
/root/reference/python/rsgislib/vectorgeoms/__init__.py:1450,1505 —
``geopandas.overlay(a, b, how="identity"|"union")``).

The overlay layer B is the engine's own checkerboard tile grid (every
other tile of a regular ``TileSpec``-shaped grid), i.e. a disjoint
polygon layer — the typical shape of the reference's overlay inputs
(admin boundaries, tile footprints). Semantics per geopandas:

- ``identity``: the surface of A split by B — one row per positive-area
  piece ``a ∩ b`` carrying both ids, plus one residual row per feature
  for ``a − ∪B`` (overlay id = ``-1`` sentinel instead of geopandas'
  NaN so the schema stays int64).
- ``union``: identity rows plus the B-side residuals ``b − ∪A``
  (feature id ``-1``).

Scale design (10^12 A-features, O(10^6) tiles):

- A streams through ``map_batches`` in Arrow batches; the tile grid is
  CLOSED-FORM (col/row ranges by floor division) so there is no
  broadcast side and no shuffle for identity — piece rows and per-zone
  residuals are emitted batch-locally.
- The union's B-residual needs the area of ``b ∩ ∪A`` per tile with
  arbitrarily overlapping A. Pieces are keyed by ``tile_id`` and
  reduced per tile by ``partition.group_apply`` (the engine's hash
  split and reduce tasks) running a vectorized slab scanline
  (coordinate-compressed x-slabs, per-slab y-interval union via
  segment-reset prefix cummax) — the ONE exchange, keyed by
  the same tile id the rest of the engine partitions on. Empty tiles
  are covered by phantom zero-width pieces so every active tile owns a
  group.

All inputs have integer corners and the tile size is integral, so every
piece area is an exactly-representable float — the DuckDB oracle (same
slab construction with window-function interval union) matches
bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.stages import partition


def _expand_ranges(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(item_idx, within_item_k) for concatenated ``range(counts[i])``."""
    total = int(counts.sum())
    item = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    off = np.concatenate([[0], np.cumsum(counts)[:-1]])
    k = np.arange(total, dtype=np.int64) - np.repeat(off, counts)
    return item, k


class _IdentityPieces:
    """Per-batch kernel: clip each zone rect against the checkerboard
    tiles it touches; emit piece rows (+ clip coords when ``for_union``)
    and the per-zone residual row. Pure closed-form — no state."""

    def __init__(
        self, tile: float, n_cols: int, parity: int, for_union: bool
    ) -> None:
        self.tile = float(tile)
        self.n_cols = int(n_cols)
        self.parity = int(parity)
        self.for_union = for_union

    def __call__(self, batch: pa.Table) -> pa.Table:
        fid = batch["fid"].to_numpy()
        xmin = batch["xmin"].to_numpy()
        xmax = batch["xmax"].to_numpy()
        ymin = batch["ymin"].to_numpy()
        ymax = batch["ymax"].to_numpy()
        ts = self.tile
        c_lo = np.floor(xmin / ts).astype(np.int64)
        c_hi = np.ceil(xmax / ts).astype(np.int64) - 1
        r_lo = np.floor(ymin / ts).astype(np.int64)
        r_hi = np.ceil(ymax / ts).astype(np.int64) - 1
        cx = c_hi - c_lo + 1
        cy = r_hi - r_lo + 1
        zi, k = _expand_ranges(cx * cy)
        col = c_lo[zi] + k % cx[zi]
        row = r_lo[zi] + k // cx[zi]
        active = (row + col) % 2 == self.parity
        x0 = np.maximum(xmin[zi], col * ts)
        x1 = np.minimum(xmax[zi], (col + 1) * ts)
        y0 = np.maximum(ymin[zi], row * ts)
        y1 = np.minimum(ymax[zi], (row + 1) * ts)
        area = (x1 - x0) * (y1 - y0)
        keep = active & (area > 0)
        covered = np.bincount(
            zi, weights=np.where(keep, area, 0.0), minlength=len(fid)
        )
        resid = (xmax - xmin) * (ymax - ymin) - covered
        rmask = resid > 0

        cols = {
            "fid": np.concatenate([fid[zi[keep]], fid[rmask]]),
            "tile_id": np.concatenate(
                [
                    (row[keep] * self.n_cols + col[keep]),
                    np.full(int(rmask.sum()), -1, dtype=np.int64),
                ]
            ),
            "piece_area": np.concatenate([area[keep], resid[rmask]]),
        }
        if self.for_union:
            # Clip coords ride along for the per-tile scanline; residual
            # rows are flagged done=1 so the reducer passes them through.
            nres = int(rmask.sum())
            cols["x0"] = np.concatenate([x0[keep], np.zeros(nres)])
            cols["x1"] = np.concatenate([x1[keep], np.zeros(nres)])
            cols["y0"] = np.concatenate([y0[keep], np.zeros(nres)])
            cols["y1"] = np.concatenate([y1[keep], np.zeros(nres)])
        return pa.table(cols)


def _interval_union_area(
    x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray
) -> float:
    """Exact area of the union of axis-aligned rects via x-slab
    coordinate compression + per-slab y-interval union (segment-reset
    prefix cummax — no Python loop)."""
    pos = x1 > x0
    x0, x1, y0, y1 = x0[pos], x1[pos], y0[pos], y1[pos]
    if len(x0) == 0:
        return 0.0
    xs = np.unique(np.concatenate([x0, x1]))
    lo = np.searchsorted(xs, x0)
    hi = np.searchsorted(xs, x1)  # piece spans slabs [lo, hi)
    pi, k = _expand_ranges(hi - lo)
    slab = lo[pi] + k
    sy0, sy1 = y0[pi], y1[pi]
    order = np.lexsort((sy1, sy0, slab))
    slab, sy0, sy1 = slab[order], sy0[order], sy1[order]
    # prefix cummax of y1 within each slab run, shifted by one row:
    # offset each slab by a base >> any coordinate so accumulate never
    # carries across slab boundaries.
    base = slab.astype(np.float64) * 1e9
    cm = np.maximum.accumulate(sy1 + base)
    prev = np.empty_like(cm)
    prev[0] = -np.inf
    prev[1:] = cm[:-1] - base[1:]
    seg_start = np.empty(len(slab), dtype=bool)
    seg_start[0] = True
    seg_start[1:] = slab[1:] != slab[:-1]
    prev[seg_start] = -np.inf
    contrib = np.maximum(sy1 - np.maximum(sy0, prev), 0.0)
    ylen = np.bincount(slab, weights=contrib, minlength=len(xs))
    width = np.diff(xs)
    return float(np.dot(ylen[: len(width)], width))


def overlay_identity(
    zones: ray.data.Dataset,
    tile: float = 13.0,
    n_cols: int = 8,
    parity: int = 0,
) -> ray.data.Dataset:
    """Identity overlay of rect features against the checkerboard tile
    layer: rows ``(fid, tile_id, piece_area)`` with ``tile_id = -1`` for
    the per-feature residual ``a − ∪B``. Zero shuffles."""
    return zones.map_batches(
        _IdentityPieces(tile, n_cols, parity, for_union=False),
        batch_format="pyarrow",
        batch_size=65536,
    )


def overlay_union(
    zones: ray.data.Dataset,
    tile: float = 13.0,
    n_cols: int = 8,
    n_rows: int = 8,
    parity: int = 0,
) -> ray.data.Dataset:
    """Union overlay: identity rows plus one ``(fid=-1, tile_id,
    tile_area − area(b ∩ ∪A))`` row per active tile with uncovered
    surface. One engine shuffle keyed by ``tile_id``."""
    pieces = zones.map_batches(
        _IdentityPieces(tile, n_cols, parity, for_union=True),
        batch_format="pyarrow",
        batch_size=65536,
    )
    # Phantom zero-width pieces guarantee every active tile forms a
    # group (fully uncovered tiles must still emit their residual).
    rows, cols_ = np.meshgrid(
        np.arange(n_rows, dtype=np.int64),
        np.arange(n_cols, dtype=np.int64),
        indexing="ij",
    )
    act = ((rows + cols_) % 2 == parity).ravel()
    tid = (rows.ravel() * n_cols + cols_.ravel())[act]
    phantom = ray.data.from_arrow(
        pa.table(
            {
                "fid": np.full(len(tid), -1, dtype=np.int64),
                "tile_id": tid,
                "piece_area": np.zeros(len(tid)),
                "x0": np.zeros(len(tid)),
                "x1": np.zeros(len(tid)),
                "y0": np.zeros(len(tid)),
                "y1": np.zeros(len(tid)),
            }
        )
    )
    tile_area = tile * tile

    def per_tile(t: pa.Table) -> pa.Table:
        out = t.filter(pa.array(t["fid"].to_numpy() >= 0))
        out = out.select(["fid", "tile_id", "piece_area"])
        tidv = t["tile_id"][0].as_py()
        if tidv < 0:  # residual-of-A group passes through untouched
            return out
        un = _interval_union_area(
            *(t[c].to_numpy() for c in ("x0", "x1", "y0", "y1"))
        )
        uncov = tile_area - un
        if uncov > 0:
            row = {"fid": [-1], "tile_id": [tidv], "piece_area": [uncov]}
            out = pa.concat_tables([out, pa.table(row, schema=out.schema)])
        return out

    return partition.group_apply(pieces.union(phantom), "tile_id", per_tile)
