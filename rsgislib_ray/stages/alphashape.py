"""Alpha shapes from scratch (reference: vectorgeoms/__init__.py:1587
``create_alpha_shape`` — which wraps the third-party `alphashape`
package, i.e. Delaunay triangulation + circumradius filter + boundary
extraction; neither alphashape nor scipy exists in this sandbox).

The alpha complex over INTEGER point coordinates is computed with
exact integer predicates, so every side (engine, brute-force pytest,
SQL oracle) names the identical triangle set:

- Delaunay membership: triangle (a,b,c) is Delaunay iff no other
  point lies STRICTLY inside its circumcircle — the classic incircle
  3x3 determinant, orientation-normalized via ``cross * det > 0``
  (all int64 at fixture magnitudes; HUGEINT in SQL).
- alpha filter: circumradius^2 < r2max, compared as the exact
  rational ``a2*b2*c2 < r2max * 4 * cross^2`` (R = abc / (4*Area),
  2*Area = |cross|).
- boundary: canonical edges appearing in exactly ONE kept triangle.

Degeneracy contract: the fixture must contain no 4 cocircular points
and no duplicate points (the pytest verifies this exhaustively with
the same integer determinant) — with ties the Delaunay triangulation
is not unique and no two implementations need agree.

Distribution shape: the O(n^3) candidate-triangle table is a Dataset
(generated in batches) and the O(n) point set is the broadcast state,
so the incircle sweep is embarrassingly parallel `map_batches`; the
point set itself is expected to be a THINNED layer (stages/sampling
``thin_by_cell``) — the reference converts the input layer to points
and runs alphashape driver-side on all of them, which caps at memory;
thinning first is the documented scale path."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages import partition


def _incircle_counts(
    tri_batch: pa.Table, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """For each candidate triangle (ia, ib, ic) in the batch, count
    points strictly inside its circumcircle (vectorized over the
    batch x all points)."""
    ia = tri_batch["ia"].to_numpy()
    ib = tri_batch["ib"].to_numpy()
    ic = tri_batch["ic"].to_numpy()
    ax, ay = px[ia], py[ia]
    bx, by = px[ib], py[ib]
    cx, cy = px[ic], py[ic]
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    # per (triangle, point) incircle determinant
    dxa = ax[:, None] - px[None, :]
    dya = ay[:, None] - py[None, :]
    dxb = bx[:, None] - px[None, :]
    dyb = by[:, None] - py[None, :]
    dxc = cx[:, None] - px[None, :]
    dyc = cy[:, None] - py[None, :]
    fa = dxa * dxa + dya * dya
    fb = dxb * dxb + dyb * dyb
    fc = dxc * dxc + dyc * dyc
    det = (
        dxa * (dyb * fc - dyc * fb)
        - dya * (dxb * fc - dxc * fb)
        + fa * (dxb * dyc - dxc * dyb)
    )
    inside = (cross[:, None] * det) > 0
    return inside.sum(axis=1), cross


def alpha_shape_edges(
    points: ray.data.Dataset,
    r2max: int,
    id_col: str = "pt_id",
    x_col: str = "xi",
    y_col: str = "yi",
    batch_size: int = 4096,
):
    """Boundary edge set of the alpha complex over integer-coordinate
    points. Returns a Dataset of canonical boundary edges
    ``(i, j, x1, y1, x2, y2)`` with ``i < j`` by point index."""
    pts = points.select_columns([id_col, x_col, y_col]).to_pandas()
    pts = pts.sort_values(id_col).reset_index(drop=True)
    ids = pts[id_col].to_numpy().astype(np.int64)
    px = pts[x_col].to_numpy().astype(np.int64)
    py = pts[y_col].to_numpy().astype(np.int64)
    n = len(ids)
    ref = ray.put((px, py))

    ii, jj, kk = np.meshgrid(
        np.arange(n), np.arange(n), np.arange(n), indexing="ij"
    )
    keep = (ii < jj) & (jj < kk)
    tri = pa.table(
        {
            "ia": ii[keep].astype(np.int64),
            "ib": jj[keep].astype(np.int64),
            "ic": kk[keep].astype(np.int64),
        }
    )
    tri_ds = partition.table_blocks(tri, max(1, len(tri) // batch_size))

    def test(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached

        qx, qy = cached(ref)
        cnt, cross = _incircle_counts(batch, qx, qy)
        ia = batch["ia"].to_numpy()
        ib = batch["ib"].to_numpy()
        ic = batch["ic"].to_numpy()
        a2 = (qx[ib] - qx[ia]) ** 2 + (qy[ib] - qy[ia]) ** 2
        b2 = (qx[ic] - qx[ib]) ** 2 + (qy[ic] - qy[ib]) ** 2
        c2 = (qx[ia] - qx[ic]) ** 2 + (qy[ia] - qy[ic]) ** 2
        # exact rational alpha filter in Python ints (a2*b2*c2 can
        # exceed int64 at large coordinate ranges)
        ok = np.array(
            [
                cr != 0
                and i_cnt == 0
                and int(aa) * int(bb) * int(cc)
                < int(r2max) * 4 * int(cr) * int(cr)
                for aa, bb, cc, cr, i_cnt in zip(a2, b2, c2, cross, cnt)
            ],
            dtype=bool,
        )
        return pa.table(
            {
                "ia": ia[ok],
                "ib": ib[ok],
                "ic": ic[ok],
            }
        )

    kept = tri_ds.map_batches(
        test, batch_format="pyarrow", batch_size=batch_size
    )

    def edges(batch: pa.Table) -> pa.Table:
        ia = batch["ia"].to_numpy()
        ib = batch["ib"].to_numpy()
        ic = batch["ic"].to_numpy()
        u = np.concatenate([ia, ib, ia])
        v = np.concatenate([ib, ic, ic])
        return pa.table({"u": u, "v": v})

    edge_counts = (
        kept.map_batches(edges, batch_format="pyarrow")
        .groupby(["u", "v"])
        .count()
    )

    def boundary(batch: pa.Table) -> pa.Table:
        m = batch["count()"].to_numpy() == 1
        u = batch["u"].to_numpy()[m]
        v = batch["v"].to_numpy()[m]
        return pa.table(
            {
                "i": ids[u],
                "j": ids[v],
                "x1": px[u],
                "y1": py[u],
                "x2": px[v],
                "y2": py[v],
            }
        )

    return edge_counts.map_batches(boundary, batch_format="pyarrow")


def no_four_cocircular(px: np.ndarray, py: np.ndarray) -> bool:
    """Exhaustive exact check that no 4 points are cocircular (and no
    3 collinear points share a circumcircle edge case): for every
    non-degenerate triple, no other point gives incircle det == 0."""
    n = len(px)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                cross = (px[b] - px[a]) * (py[c] - py[a]) - (
                    py[b] - py[a]
                ) * (px[c] - px[a])
                if cross == 0:
                    continue
                dxa = int(px[a]) - px
                dya = int(py[a]) - py
                dxb = int(px[b]) - px
                dyb = int(py[b]) - py
                dxc = int(px[c]) - px
                dyc = int(py[c]) - py
                fa = dxa * dxa + dya * dya
                fb = dxb * dxb + dyb * dyb
                fc = dxc * dxc + dyc * dyc
                det = (
                    dxa * (dyb * fc - dyc * fb)
                    - dya * (dxb * fc - dxc * fb)
                    + fa * (dxb * dyc - dxc * dyb)
                )
                det[[a, b, c]] = 1
                if (det == 0).any():
                    return False
    return True
