"""SLIC superpixels (Achanta et al. 2012, TPAMI 34(11)).

Reference surface: segmentation/skimgseg.py:282
``perform_slic_segmentation`` — a wrapper over
skimage.segmentation.slic (neither skimage nor its compiled kernel
exists here), re-implemented from the published algorithm with this
engine's exactness conventions (the ``kmeans_cluster_exact``
contract, zonal.py:803):

- seeds on the regular sqrt(k) x sqrt(k) grid of cell centers (the
  paper's S-interval init; no gradient perturbation, like skimage);
- distance D = S^2 * d_color^2 + m^2 * d_spatial^2 — the paper's
  D^2 = d_c^2 + (m/S)^2 d_s^2 scaled by the constant S^2, so the
  ORDERING is identical while d_spatial^2 stays an exact integer and
  d_color uses the one-float-division centers; ties -> lowest
  center id;
- each pixel considers only the centers whose INITIAL grid cell is
  within one cell of its own (the paper's 2S x 2S search window,
  made deterministic under center drift); at 100 TB this bounds the
  per-pixel candidate set at 9 regardless of k;
- center update: exact int64 sums / counts -> one float division;
  empty clusters keep their previous center;
- fixed iteration count (the reference's max_iter); connectivity
  enforcement maps to the existing clump + eliminate_small pipeline
  and is not re-implemented here.

Physical plan: one zero-shuffle ``map_batches`` pass per iteration —
per-batch assignment against the broadcast center table, pre-reduced
per-batch per-cluster partials (k rows per batch) combined through
:func:`rsgislib_ray.stages.segsum.combine` — then one labeling pass.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages.partition import held_blocks, map_blocks
from rsgislib_ray.stages.segsum import combine
from rsgislib_ray.state.broadcast import cached


def slic_superpixels(
    raster: ray.data.Dataset,
    n: int,
    k_side: int,
    compactness: int = 10,
    n_iters: int = 2,
    value_col: str = "value",
    batch_size: int = 65536,
) -> tuple[ray.data.Dataset, np.ndarray]:
    """SLIC over an n x n int raster (pixel_id, row, col, value) with
    k = k_side^2 clusters.  Returns (labeled dataset with ``slic_id``
    and the per-pixel distance, final centers [k, 3] as (r, c, v)).
    A lazy ``raster`` executes once: it is held at entry, and the seed
    pass, each iteration and the label map read its blocks."""
    if n % k_side:
        raise ValueError("k_side must divide n")
    raster = held_blocks(raster)[0]
    s = n // k_side
    s2 = s * s
    m2 = compactness * compactness

    # seeds: cell centers on the regular grid, value = raster value
    # at the seed pixel (fetched in one narrow pass)
    seed_r = np.repeat(np.arange(k_side) * s + s // 2, k_side)
    seed_c = np.tile(np.arange(k_side) * s + s // 2, k_side)
    seed_pid = set((seed_r * n + seed_c).tolist())

    def seed_vals(batch: pa.Table) -> pa.Table:
        pid = batch["pixel_id"].to_numpy().astype(np.int64)
        keep = np.isin(pid, list(seed_pid))
        return pa.table(
            {
                "pixel_id": pid[keep],
                "v": batch[value_col].to_numpy().astype(np.int64)[keep],
            }
        )

    seeds = ray.get([ref for ref, _ in map_blocks(raster, seed_vals)])
    sv = pa.concat_tables(seeds).to_pandas().set_index("pixel_id")["v"]
    centers = np.stack(
        [
            seed_r.astype(np.float64),
            seed_c.astype(np.float64),
            sv.loc[(seed_r * n + seed_c)].to_numpy().astype(np.float64),
        ],
        axis=1,
    )
    # initial grid cell of each center id (constant across iterations
    # — the deterministic 2S search window)
    cell_of_cid = np.stack([seed_r // s, seed_c // s], axis=1)

    def assign(batch: pa.Table, ctr: np.ndarray):
        r = batch["row"].to_numpy().astype(np.int64)
        c = batch["col"].to_numpy().astype(np.int64)
        v = batch[value_col].to_numpy().astype(np.int64)
        gr = r // s
        gc = c // s
        best_d = np.full(len(r), np.inf)
        best_id = np.full(len(r), -1, dtype=np.int64)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                cr = gr + dr
                cc = gc + dc
                ok = (cr >= 0) & (cr < k_side) & (cc >= 0) & (cc < k_side)
                if not ok.any():
                    continue
                cid = cr * k_side + cc
                cid = np.where(ok, cid, 0)
                dcf = v - ctr[cid, 2]
                ds2 = (r - ctr[cid, 0]) * (r - ctr[cid, 0]) + (
                    c - ctr[cid, 1]
                ) * (c - ctr[cid, 1])
                d = float(s2) * (dcf * dcf) + float(m2) * ds2
                d = np.where(ok, d, np.inf)
                better = (d < best_d) | ((d == best_d) & (cid < best_id))
                best_d = np.where(better, d, best_d)
                best_id = np.where(better, cid, best_id)
        return r, c, v, best_id, best_d

    for _ in range(n_iters):
        cref = ray.put(centers)

        def partial(batch: pa.Table) -> pa.Table:
            ctr = cached(cref)
            r, c, v, bid, _ = assign(batch, ctr)
            k = len(ctr)
            return pa.table(
                {
                    "cid": np.arange(k, dtype=np.int64),
                    "cnt": np.bincount(bid, minlength=k).astype(np.int64),
                    "sr": np.bincount(bid, weights=r, minlength=k).astype(
                        np.int64
                    ),
                    "sc": np.bincount(bid, weights=c, minlength=k).astype(
                        np.int64
                    ),
                    "sv": np.bincount(bid, weights=v, minlength=k).astype(
                        np.int64
                    ),
                }
            )

        agg = combine(
            map_blocks(raster, partial),
            "cid",
            ["cnt", "sr", "sc", "sv"],
        )
        cnt = agg["cnt"].to_numpy()
        new = centers.copy()
        nz = cnt > 0
        new[nz, 0] = agg["sr"].to_numpy()[nz] / cnt[nz]
        new[nz, 1] = agg["sc"].to_numpy()[nz] / cnt[nz]
        new[nz, 2] = agg["sv"].to_numpy()[nz] / cnt[nz]
        centers = new

    cref = ray.put(centers)

    def label(batch: pa.Table) -> pa.Table:
        ctr = cached(cref)
        _, _, _, bid, bd = assign(batch, ctr)
        return pa.table(
            {
                "pixel_id": batch["pixel_id"],
                "slic_id": bid,
                "dist_q": np.floor(bd * 1e6 + 0.5).astype(np.int64),
            }
        )

    out = raster.map_batches(
        label, batch_format="pyarrow", batch_size=batch_size
    )
    return out, centers
