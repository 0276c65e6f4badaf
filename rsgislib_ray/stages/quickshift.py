"""Quickshift mode-seeking segmentation, pinned integer variant.

Reference surface: segmentation/skimgseg.py:176
``perform_quickshift_segmentation`` (wraps
``skimage.segmentation.quickshift``; skimage absent in this sandbox).
Pinned semantics (documented deviations: the float Gaussian density
kernel becomes the exact integer inverse-quadratic
``SCALE // (1 + d2)``, the Euclidean spatial cut becomes the 5x5
Chebyshev window, and parent ties break by (d2, pixel id)):

  d2(p, q)  = CS * (dr^2 + dc^2) + (v_p - v_q)^2      (exact int)
  dens(p)   = sum over window q != p of SCALE // (1 + d2)
  parent(p) = argmin by (d2, pixel id) over window q with
              dens(q) > dens(p); none -> p is a mode (root)
  label(p)  = min pixel id of p's tree (the repo's component-label
              convention, via stages/components.py)

Density and parent are one halo-tiled pass (halo 4: the parent
selection needs neighbour densities, which need their own 5x5
window); labels ride the existing distributed component machinery
over the (p, parent) edge list. Everything is exact int64, so the
result is partitioning-independent and the SQL oracle replays it
with a window-join + ROW_NUMBER + recursive min-label CTE.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.stages.raster import Tile, halo_tiles

CS = 64          # spatial weight in d2
SCALE = 1 << 20  # kernel numerator
W = 2            # window radius (5x5)


def _offsets():
    return [
        (dr, dc)
        for dr in range(-W, W + 1)
        for dc in range(-W, W + 1)
        if not (dr == 0 and dc == 0)
    ]


def quickshift_parents(
    raster: ray.data.Dataset,
    tile_size: int = 32,
    value_col: str = "value",
) -> ray.data.Dataset:
    """(pixel_id, dens, parent) per pixel — one halo-tiled pass."""

    def per_tile(t: Tile) -> pa.Table:
        g, h, rr, cc = t.rows, t.dim, t.rr, t.cc
        v = g[value_col].to_numpy().astype(np.int64)
        vg = np.zeros((h, h), dtype=np.int64)
        pres = np.zeros((h, h), dtype=bool)
        pid = np.full((h, h), -1, dtype=np.int64)
        vg[rr, cc] = v
        pres[rr, cc] = True
        pid[rr, cc] = g["pixel_id"].to_numpy()

        def shifted(a, dr, dc, fill):
            out = np.full_like(a, fill)
            rs = slice(max(0, dr), h + min(0, dr))
            rd = slice(max(0, -dr), h + min(0, -dr))
            cs = slice(max(0, dc), h + min(0, dc))
            cd = slice(max(0, -dc), h + min(0, -dc))
            out[rd, cd] = a[rs, cs]
            return out

        dens = np.zeros((h, h), dtype=np.int64)
        for dr, dc in _offsets():
            nv = shifted(vg, dr, dc, 0)
            npres = shifted(pres, dr, dc, False)
            d2 = CS * (dr * dr + dc * dc) + (vg - nv) ** 2
            dens += np.where(npres, SCALE // (1 + d2), 0)
        dens[~pres] = 0

        BIG = np.int64(1) << 62
        best_d2 = np.full((h, h), BIG, dtype=np.int64)
        best_pid = pid.copy()          # default parent = self
        found = np.zeros((h, h), dtype=bool)
        for dr, dc in _offsets():
            nv = shifted(vg, dr, dc, 0)
            nd = shifted(dens, dr, dc, np.int64(-1))
            npid = shifted(pid, dr, dc, np.int64(-1))
            npres = shifted(pres, dr, dc, False)
            d2 = CS * (dr * dr + dc * dc) + (vg - nv) ** 2
            # explicit (d2, pid) lexicographic min — no packing, so
            # arbitrary 64-bit pixel ids are safe at any raster size
            better = (d2 < best_d2) | (
                (d2 == best_d2) & found & (npid < best_pid)
            )
            ok = npres & (nd > dens) & better
            best_d2 = np.where(ok, d2, best_d2)
            best_pid = np.where(ok, npid, best_pid)
            found |= ok
        rr, cc = rr[t.core], cc[t.core]
        return pa.table(
            {
                "pixel_id": g["pixel_id"].to_numpy()[t.core],
                "dens": dens[rr, cc],
                "parent": best_pid[rr, cc],
            }
        )

    return halo_tiles(raster, tile_size, 2 * W, per_tile)


def quickshift_segments(
    raster: ray.data.Dataset,
    tile_size: int = 32,
    value_col: str = "value",
) -> ray.data.Dataset:
    """Full quickshift: parents + min-pixel-id tree labels. Returns
    (pixel_id, dens, parent, seg_label)."""
    from rsgislib_ray.stages.components import components_label_ids

    par = quickshift_parents(raster, tile_size=tile_size, value_col=value_col)
    edges = par.map_batches(
        lambda t: pa.table(
            {
                "doc_a": t["pixel_id"],
                "doc_b": t["parent"],
            }
        ).filter(
            pa.compute.not_equal(t["pixel_id"], t["parent"])
        ),
        batch_format="pyarrow",
    )
    ids = par.select_columns(["pixel_id"])
    lab = components_label_ids(ids, "pixel_id", edges)
    from rsgislib_ray.stages import partition

    joined = partition.join(
        par, lab.select_columns(["pixel_id", "cluster_id"]), "pixel_id"
    )
    return joined.map_batches(
        lambda t: pa.table(
            {
                "pixel_id": t["pixel_id"],
                "dens": t["dens"],
                "parent": t["parent"],
                "seg_label": t["cluster_id"],
            }
        ),
        batch_format="pyarrow",
    )
