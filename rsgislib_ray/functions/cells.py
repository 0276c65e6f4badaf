"""Hierarchical cell index (S2/H3-equivalent quadkey) over a planar frame.

A cell id is a 64-bit integer: ``(level << LEVEL_SHIFT) | morton`` where
``morton`` is the Z-order (bit-interleaved) encoding of the cell's
``(col, row)`` at that level. Levels 0..MAX_LEVEL (26) give up to
2^26 x 2^26 cells over the frame. Everything is vectorized numpy over
int64/uint64 arrays so it can run zero-copy inside
``Dataset.map_batches(batch_format="pyarrow")``.

This replaces the reference's geotransform arithmetic
(/root/reference/python/rsgislib/zonalstats/__init__.py:250-258 pixel
<-> world math) and its regular-grid generators
(/root/reference/python/src/segmentation.cpp:791) with a proper
hierarchical index usable as a shuffle key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rsgislib_ray.functions.arrayops import expand

MAX_LEVEL = 26
LEVEL_SHIFT = 52
_MORTON_MASK = (np.uint64(1) << np.uint64(LEVEL_SHIFT)) - np.uint64(1)

# Sentinel for "outside the frame" (kept negative so it never collides
# with a valid cell id, which is always >= 0).
OUT_OF_FRAME = np.int64(-1)


@dataclass(frozen=True)
class CellFrame:
    """Planar frame the cell hierarchy covers: [x0, x0+width) x [y0, y0+height).

    Default matches the fixture coordinate frame (FIXTURES.md F1):
    x, y in [0, 100). width/height are chosen so ``width / 2**level``
    stays exactly representable in binary for the default (100 = 25 * 4).
    """

    x0: float = 0.0
    y0: float = 0.0
    width: float = 100.0
    height: float = 100.0

    def cell_size(self, level: int) -> tuple[float, float]:
        n = float(1 << level)
        return self.width / n, self.height / n


DEFAULT_FRAME = CellFrame()


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each value to even bit positions."""
    n = v.astype(np.uint64, copy=True)
    n &= np.uint64(0xFFFFFFFF)
    n = (n | (n << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    n = (n | (n << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    n = (n | (n << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    n = (n | (n << np.uint64(2))) & np.uint64(0x3333333333333333)
    n = (n | (n << np.uint64(1))) & np.uint64(0x5555555555555555)
    return n


def _compact1by1(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by1` — gather even bit positions."""
    n = v.astype(np.uint64, copy=True)
    n &= np.uint64(0x5555555555555555)
    n = (n | (n >> np.uint64(1))) & np.uint64(0x3333333333333333)
    n = (n | (n >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    n = (n | (n >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    n = (n | (n >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    n = (n | (n >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return n


def encode_rowcol(col: np.ndarray, row: np.ndarray, level: int) -> np.ndarray:
    """(col, row) at ``level`` -> int64 cell ids. No range checking."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    morton = _part1by1(np.asarray(col)) | (_part1by1(np.asarray(row)) << np.uint64(1))
    out = morton | (np.uint64(level) << np.uint64(LEVEL_SHIFT))
    return out.astype(np.int64)


def decode_level(cell_id: np.ndarray) -> np.ndarray:
    return (np.asarray(cell_id).astype(np.uint64) >> np.uint64(LEVEL_SHIFT)).astype(
        np.int64
    )


def decode_rowcol(cell_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 cell ids -> (col, row) arrays (int64)."""
    m = np.asarray(cell_id).astype(np.uint64) & _MORTON_MASK
    col = _compact1by1(m).astype(np.int64)
    row = _compact1by1(m >> np.uint64(1)).astype(np.int64)
    return col, row


def cells_from_xy(
    x: np.ndarray,
    y: np.ndarray,
    level: int,
    frame: CellFrame = DEFAULT_FRAME,
) -> np.ndarray:
    """Assign points to cells; out-of-frame points get OUT_OF_FRAME (-1).

    The column/row computation is plain ``floor((x - x0) / cell_w)``
    with an exactly-representable ``cell_w`` for the default frame, so
    an oracle (SQL or numpy) using the same expression gets the same
    assignments bit-for-bit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cw, ch = frame.cell_size(level)
    col = np.floor((x - frame.x0) / cw)
    row = np.floor((y - frame.y0) / ch)
    n = 1 << level
    ok = (col >= 0) & (col < n) & (row >= 0) & (row < n)
    colc = np.where(ok, col, 0).astype(np.int64)
    rowc = np.where(ok, row, 0).astype(np.int64)
    out = encode_rowcol(colc, rowc, level)
    return np.where(ok, out, OUT_OF_FRAME)


def cell_bounds(
    cell_id: np.ndarray, frame: CellFrame = DEFAULT_FRAME
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cell ids -> (xmin, xmax, ymin, ymax) arrays."""
    level = decode_level(cell_id)
    col, row = decode_rowcol(cell_id)
    n = (np.int64(1) << level).astype(np.float64)
    cw = frame.width / n
    ch = frame.height / n
    xmin = frame.x0 + col * cw
    ymin = frame.y0 + row * ch
    return xmin, xmin + cw, ymin, ymin + ch


def parent(cell_id: np.ndarray, steps: int = 1) -> np.ndarray:
    """Parent cell ``steps`` levels up."""
    level = decode_level(cell_id)
    new_level = level - steps
    if np.any(new_level < 0):
        raise ValueError("parent() would go above level 0")
    m = np.asarray(cell_id).astype(np.uint64) & _MORTON_MASK
    m >>= np.uint64(2 * steps)
    return (m | (new_level.astype(np.uint64) << np.uint64(LEVEL_SHIFT))).astype(
        np.int64
    )


def children(cell_id: int) -> np.ndarray:
    """The 4 children of one cell (scalar in, 4-array out)."""
    level = int(decode_level(np.asarray([cell_id]))[0])
    if level >= MAX_LEVEL:
        raise ValueError("children() would exceed MAX_LEVEL")
    m = (np.uint64(cell_id) & _MORTON_MASK) << np.uint64(2)
    kids = m + np.arange(4, dtype=np.uint64)
    return (kids | (np.uint64(level + 1) << np.uint64(LEVEL_SHIFT))).astype(np.int64)


def neighbors(cell_id: np.ndarray, ring: int = 1) -> np.ndarray:
    """All cells within Chebyshev distance ``ring`` (excluding self),
    clipped to the frame. Returns a 2-D array (n_cells, <=count) padded
    with OUT_OF_FRAME, or use :func:`ring_cells` for exact-ring shells.
    """
    cell_id = np.asarray(cell_id)
    level = decode_level(cell_id)
    col, row = decode_rowcol(cell_id)
    n = np.int64(1) << level
    offs = [
        (dc, dr)
        for dr in range(-ring, ring + 1)
        for dc in range(-ring, ring + 1)
        if not (dc == 0 and dr == 0)
    ]
    out = np.full((cell_id.shape[0], len(offs)), OUT_OF_FRAME, dtype=np.int64)
    for i, (dc, dr) in enumerate(offs):
        c2 = col + dc
        r2 = row + dr
        ok = (c2 >= 0) & (c2 < n) & (r2 >= 0) & (r2 < n)
        enc = encode_rowcol(np.where(ok, c2, 0), np.where(ok, r2, 0), int(level[0]))
        out[:, i] = np.where(ok, enc, OUT_OF_FRAME)
    return out


def ring_cells(cell_id: int, k: int) -> np.ndarray:
    """Cells at exactly Chebyshev distance ``k`` from one cell (the
    expansion shell used by the kNN ring search). k=0 -> [cell_id]."""
    if k == 0:
        return np.asarray([cell_id], dtype=np.int64)
    level = int(decode_level(np.asarray([cell_id]))[0])
    col, row = decode_rowcol(np.asarray([cell_id]))
    col, row = int(col[0]), int(row[0])
    n = 1 << level
    cells = []
    for dc in range(-k, k + 1):
        for dr in range(-k, k + 1):
            if max(abs(dc), abs(dr)) != k:
                continue
            c2, r2 = col + dc, row + dr
            if 0 <= c2 < n and 0 <= r2 < n:
                cells.append((c2, r2))
    if not cells:
        return np.empty(0, dtype=np.int64)
    arr = np.asarray(cells, dtype=np.int64)
    return encode_rowcol(arr[:, 0], arr[:, 1], level)


def covering_cells_bbox(
    xmin: float,
    xmax: float,
    ymin: float,
    ymax: float,
    level: int,
    frame: CellFrame = DEFAULT_FRAME,
) -> np.ndarray:
    """All cells at ``level`` whose bounds intersect the (closed) bbox —
    the duplication set for polygons in the cell-partitioned spatial
    join (SURVEY.md §4 shuffle #2). Clipped to the frame."""
    cw, ch = frame.cell_size(level)
    n = 1 << level
    c0 = max(0, int(np.floor((xmin - frame.x0) / cw)))
    c1 = min(n - 1, int(np.floor((xmax - frame.x0) / cw)))
    r0 = max(0, int(np.floor((ymin - frame.y0) / ch)))
    r1 = min(n - 1, int(np.floor((ymax - frame.y0) / ch)))
    if c1 < c0 or r1 < r0:
        return np.empty(0, dtype=np.int64)
    cols = np.arange(c0, c1 + 1, dtype=np.int64)
    rows = np.arange(r0, r1 + 1, dtype=np.int64)
    cc, rr = np.meshgrid(cols, rows)
    return encode_rowcol(cc.ravel(), rr.ravel(), level)


def covering_cells_bboxes(
    xmin: np.ndarray,
    xmax: np.ndarray,
    ymin: np.ndarray,
    ymax: np.ndarray,
    level: int,
    frame: CellFrame = DEFAULT_FRAME,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`covering_cells_bbox` over MANY bboxes: returns
    (owner_index, cell) pair arrays — the zone-duplication kernel with
    no per-zone Python loop. Identical cell sets, row-major order."""
    cw, ch = frame.cell_size(level)
    n = 1 << level
    c0 = np.maximum(0, np.floor((xmin - frame.x0) / cw)).astype(np.int64)
    c1 = np.minimum(n - 1, np.floor((xmax - frame.x0) / cw)).astype(np.int64)
    r0 = np.maximum(0, np.floor((ymin - frame.y0) / ch)).astype(np.int64)
    r1 = np.minimum(n - 1, np.floor((ymax - frame.y0) / ch)).astype(np.int64)
    w = np.maximum(c1 - c0 + 1, 0)
    h = np.maximum(r1 - r0 + 1, 0)
    cnt = w * h
    valid = cnt > 0
    owner, within = expand(np.where(valid, cnt, 0))
    ww = w[owner]
    rr = r0[owner] + within // ww
    cc = c0[owner] + within % ww
    return owner, encode_rowcol(cc, rr, level)
