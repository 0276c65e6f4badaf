"""Clump border-length / boundary-pixel RAT stats
(rastergis.calc_border_length / calc_rel_border /
find_boundary_pixels — src/rastergis/RSGISClumpBorders.cpp:33
calcClumpBorderLength + :95 calcClumpRelBorderLen2Class, kernels
RSGISCalcBorderLenInPixels :193 / RSGISCalcBorderLenInPixelsWithClass
:310; RSGISFindClumpNeighbours.cpp RSGISIdentifyBoundaryPixels).

Semantics mirrored exactly (3x3 window, zero-filled image edges):

- a pixel with 0 < fid <= max contributes xRes per LEFT/RIGHT
  neighbour differing from fid and yRes per UP/DOWN neighbour
  differing; with ``include_zeros=False`` zero neighbours (background
  AND the zero-filled image edge) are skipped;
- class border length (vs a target class name): only pixels whose OWN
  class is NOT the target count; a differing neighbour of the target
  class adds its xRes/yRes — but in the include_zeros=False branch
  the reference tests ``fidLeft != 0`` for ALL FOUR directions (the
  up/right/down copies kept the LEFT variable — quirk kept: an
  up/right/down border to a target-class clump is counted or dropped
  according to the LEFT neighbour's zeroness);
- rel border = classBorderLen / borderLen with NO zero guard — a
  clump with zero border length (and RAT row 0) divides 0/0 -> NaN
  (quirk kept);
- boundary pixels: fid > 0 and ANY nonzero 4-neighbour differs.

Physical plan: halo-1 tile duplication (the focal family's
partitioning), per-tile integer direction counts, one segment_sum
over fid.  Border lengths are count*res with integer res — exact and
partition-independent.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.stages.raster import Tile, halo_tiles

__all__ = ["clump_border_stats"]


def clump_border_stats(
    raster: ray.data.Dataset,
    x_res: int,
    y_res: int,
    class_of: dict[int, str],
    class_name: str,
    include_zeros: bool = False,
    value_col: str = "fid",
    tile_size: int = 32,
) -> ray.data.Dataset:
    """Per-clump (border_len, border_len_z, class_border, n_boundary)
    partials reduced with segment_sum; callers divide for rel border.
    ``class_of`` maps fid -> class name (the RAT string column),
    broadcast once."""
    from rsgislib_ray.stages.segsum import segment_sum

    max_fid = max(class_of) if class_of else 0
    names = np.empty(max_fid + 1, dtype=object)
    names[:] = ""
    for f, nm in class_of.items():
        names[f] = nm
    is_target = np.array(
        [names[i] == class_name for i in range(max_fid + 1)]
    )
    tref = ray.put(is_target)

    def tile(t: Tile) -> pa.Table:
        tgt = ray.get(tref)
        dense = np.zeros((t.dim, t.dim), dtype=np.int64)
        dense[t.rr, t.cc] = t.rows[value_col].to_numpy().astype(np.int64)
        rr, cc = t.rr[t.core], t.cc[t.core]
        fid = dense[rr, cc]
        left = dense[rr, cc - 1]
        right = dense[rr, cc + 1]
        up = dense[rr + 1, cc]
        down = dense[rr - 1, cc]
        ok = fid > 0
        bx = np.zeros(len(fid), np.int64)
        by = np.zeros(len(fid), np.int64)
        cbx = np.zeros(len(fid), np.int64)
        cby = np.zeros(len(fid), np.int64)
        own_tgt = tgt[np.clip(fid, 0, len(tgt) - 1)]
        for nb, horiz in ((left, True), (up, False),
                          (right, True), (down, False)):
            diff = nb != fid
            cnt = diff if include_zeros else (diff & (nb != 0))
            nb_tgt = tgt[np.clip(nb, 0, len(tgt) - 1)]
            # the reference's fidLeft copy-paste: the zero test in the
            # class branch ALWAYS uses the LEFT neighbour
            ccnt = diff & ~own_tgt & nb_tgt
            if not include_zeros:
                ccnt &= left != 0
            if horiz:
                bx += cnt
                cbx += ccnt
            else:
                by += cnt
                cby += ccnt
        nonzero_diff = (
            ((left != 0) & (left != fid))
            | ((right != 0) & (right != fid))
            | ((up != 0) & (up != fid))
            | ((down != 0) & (down != fid))
        )
        return pa.table(
            {
                "fid": fid[ok],
                "bx": bx[ok], "by": by[ok],
                "cbx": cbx[ok], "cby": cby[ok],
                "nbound": nonzero_diff[ok].astype(np.int64),
            }
        )

    partials = halo_tiles(raster, tile_size, 1, tile)
    red = segment_sum(
        partials, "fid", ["bx", "by", "cbx", "cby", "nbound"],
        aggs=["sum"] * 5,
    )

    def fin(batch: pa.Table) -> pa.Table:
        bx = batch["bx"].to_numpy().astype(np.float64)
        by = batch["by"].to_numpy().astype(np.float64)
        cbx = batch["cbx"].to_numpy().astype(np.float64)
        cby = batch["cby"].to_numpy().astype(np.float64)
        border = bx * x_res + by * y_res
        cborder = cbx * x_res + cby * y_res
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = cborder / border  # no zero guard — quirk kept
        return pa.table(
            {
                "fid": batch["fid"],
                "border_len": border,
                "class_border": cborder,
                "rel_border": rel,
                "n_boundary": batch["nbound"],
            }
        )

    return red.map_batches(fin, batch_format="pyarrow")
