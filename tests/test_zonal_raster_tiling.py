"""Zonal stats / raster ops / tiling vs DuckDB oracles (bit-exact)."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray

from rsgislib_ray.functions.grid import TileSpec
from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages.raster import (
    RasterGrid,
    extract_point_values,
    make_pixel_centers,
    rasterize_zones,
)
from rsgislib_ray.stages.tiling import assign_tiles, tile_counts
from rsgislib_ray.stages.zonal import zonal_stats


@pytest.fixture(scope="module")
def oracle(sf_dir):
    con = duckdb.connect()
    for t in ["orders", "part", "supplier", "customer", "lineitem"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


ZONAL_ORACLE = f"""
WITH cells AS ({td.SQL_CELLS}), zones AS ({td.SQL_ZONES}),
j AS (
  SELECT z.fid, c.val_cents FROM zones z JOIN cells c
    ON c.x > z.xmin AND c.x < z.xmax AND c.y > z.ymin AND c.y < z.ymax
),
agg AS (
  SELECT fid, COUNT(*) AS cnt, SUM(val_cents) AS s, SUM(val_cents * val_cents) AS q,
         MIN(val_cents) AS mn, MAX(val_cents) AS mx
  FROM j GROUP BY fid
)
SELECT z.fid,
  COALESCE(a.cnt, -9999) AS count,
  COALESCE(CAST(a.s AS DOUBLE) / 100.0, -9999.0) AS sum,
  COALESCE(CAST(a.mn AS DOUBLE) / 100.0, -9999.0) AS min,
  COALESCE(CAST(a.mx AS DOUBLE) / 100.0, -9999.0) AS max,
  COALESCE((CAST(a.s AS DOUBLE) / CAST(a.cnt AS DOUBLE)) / 100.0, -9999.0) AS mean,
  COALESCE(sqrt(CAST(a.q AS DOUBLE) / CAST(a.cnt AS DOUBLE)
      - (CAST(a.s AS DOUBLE) / CAST(a.cnt AS DOUBLE))
        * (CAST(a.s AS DOUBLE) / CAST(a.cnt AS DOUBLE))) / 100.0, -9999.0) AS stddev
FROM zones z LEFT JOIN agg a ON z.fid = a.fid
ORDER BY z.fid
"""


def test_zonal_moments_bit_exact(ray_session, sf_dir, oracle):
    cells = td.cells_from_lineitem(sf_dir)
    zones = td.zones_from_part(sf_dir)
    got = zonal_stats(
        cells, zones, "val_cents",
        stats=("count", "sum", "min", "max", "mean", "stddev"),
        value_scale=100.0,
    ).to_pandas()
    want = oracle.execute(ZONAL_ORACLE).fetch_df()
    np.testing.assert_array_equal(got["fid"].to_numpy(), want["fid"].to_numpy())
    for c in ["count", "sum", "min", "max", "mean", "stddev"]:
        np.testing.assert_array_equal(
            got[c].to_numpy(), want[c].to_numpy(), err_msg=c
        )


def test_zonal_mode_median(ray_session, sf_dir, oracle):
    cells = td.cells_from_lineitem(sf_dir)
    zones = td.zones_from_part(sf_dir)
    got = zonal_stats(
        cells, zones, "qty", stats=("mode", "median"), out_no_data=-1.0
    ).to_pandas()
    want = oracle.execute(
        f"""
        WITH cells AS ({td.SQL_CELLS}), zones AS ({td.SQL_ZONES}),
        j AS (
          SELECT z.fid, c.qty FROM zones z JOIN cells c
            ON c.x > z.xmin AND c.x < z.xmax AND c.y > z.ymin AND c.y < z.ymax
        ),
        vc AS (SELECT fid, qty AS val, COUNT(*) AS n FROM j GROUP BY fid, qty),
        md AS (
          SELECT fid, val, row_number() OVER
            (PARTITION BY fid ORDER BY n DESC, val ASC) AS rn
          FROM vc
        ),
        med AS (SELECT fid, median(qty) AS median FROM j GROUP BY fid)
        SELECT z.fid,
          COALESCE(CAST(m.val AS DOUBLE), -1.0) AS mode,
          COALESCE(CAST(med.median AS DOUBLE), -1.0) AS median
        FROM zones z
        LEFT JOIN (SELECT fid, val FROM md WHERE rn = 1) m ON z.fid = m.fid
        LEFT JOIN med ON z.fid = med.fid
        ORDER BY z.fid
        """
    ).fetch_df()
    np.testing.assert_array_equal(got["mode"].to_numpy(), want["mode"].to_numpy())
    np.testing.assert_array_equal(
        got["median"].to_numpy(), want["median"].to_numpy()
    )


GRID = RasterGrid(tlx=0.0, tly=100.0, pxl_w=1.0, pxl_h=1.0, n_cols=100, n_rows=100)


def _formula_raster() -> np.ndarray:
    pid = np.arange(GRID.n_cols * GRID.n_rows, dtype=np.int64)
    row, col = np.divmod(pid, GRID.n_cols)
    return ((row * 31 + col * 17) % 997).astype(np.float64)


def test_extract_point_values_vs_oracle(ray_session, sf_dir, oracle):
    pts = td.points_from_orders(sf_dir)
    vals = _formula_raster()
    ref = ray.put(vals)
    got = (
        extract_point_values(pts, GRID, ref, out_no_data=-9999.0)
        .to_pandas()
        .sort_values("pt_id")
        .reset_index(drop=True)
    )
    want = oracle.execute(
        f"""
        WITH pts AS ({td.SQL_PTS})
        SELECT pt_id,
          CASE WHEN x >= 0 AND x < 100 AND y > 0 AND y <= 100
               THEN CAST((CAST(FLOOR(100 - y) AS BIGINT) * 31
                        + CAST(FLOOR(x) AS BIGINT) * 17) % 997 AS DOUBLE)
               ELSE -9999.0 END AS pxl_val
        FROM pts ORDER BY pt_id
        """
    ).fetch_df()
    np.testing.assert_array_equal(
        got["pxl_val"].to_numpy(), want["pxl_val"].to_numpy()
    )


def test_rasterize_last_wins_vs_oracle(ray_session, sf_dir, oracle):
    zones = td.zones_from_part(sf_dir)
    pixels = make_pixel_centers(GRID)
    got = (
        rasterize_zones(pixels, zones, GRID, burn_attr="fid", background=0.0)
        .to_pandas()
        .sort_values("pixel_id")
        .reset_index(drop=True)
    )
    want = oracle.execute(
        f"""
        WITH zones AS ({td.SQL_ZONES}),
        px AS (
          SELECT r.range AS pixel_id,
                 CAST(r.range % 100 AS DOUBLE) + 0.5 AS cx,
                 100.0 - (CAST(r.range // 100 AS DOUBLE) + 0.5) AS cy
          FROM range(10000) r
        )
        SELECT p.pixel_id,
          COALESCE(MAX(z.fid), 0) AS burn
        FROM px p LEFT JOIN zones z
          ON p.cx > z.xmin AND p.cx < z.xmax AND p.cy > z.ymin AND p.cy < z.ymax
        GROUP BY p.pixel_id ORDER BY p.pixel_id
        """
    ).fetch_df()
    np.testing.assert_array_equal(
        got["burn"].to_numpy(), want["burn"].to_numpy().astype(np.float64)
    )


def test_tile_assignment_vs_oracle(ray_session, sf_dir, oracle):
    pts = td.points_from_orders(sf_dir)
    spec = TileSpec((0.0, 100.0, 0.0, 100.0), 30.0, 30.0)
    got = (
        assign_tiles(pts, spec)
        .to_pandas()
        .sort_values("pt_id")
        .reset_index(drop=True)
    )
    want = oracle.execute(
        f"""
        WITH pts AS ({td.SQL_PTS})
        SELECT pt_id,
          CASE WHEN x >= 0 AND x < 100 AND y >= 0 AND y < 100
               THEN CAST(FLOOR(y / 30.0) AS BIGINT) * 4
                  + CAST(FLOOR(x / 30.0) AS BIGINT)
               ELSE -1 END AS tile_id
        FROM pts ORDER BY pt_id
        """
    ).fetch_df()
    np.testing.assert_array_equal(
        got["tile_id"].to_numpy(), want["tile_id"].to_numpy()
    )
    counts = tile_counts(pts, spec).to_pandas()
    wc = want.groupby("tile_id").size()
    for tid, n in wc.items():
        assert counts[counts["tile_id"] == tid]["n_rows"].iloc[0] == n


def test_tiled_filter_matches_full_convolution(ray_session):
    """3x3 mean filter via halo tiles == brute full-grid convolution."""
    import ray.data

    from rsgislib_ray.stages.raster import tiled_filter

    rng = np.random.default_rng(42)
    n = 50
    vals = rng.integers(0, 100, (n, n)).astype(np.float64)
    pid = np.arange(n * n, dtype=np.int64)
    row, col = np.divmod(pid, n)
    ds = ray.data.from_arrow(
        pa.table(
            {"pixel_id": pid, "row": row, "col": col, "value": vals.ravel()}
        )
    ).repartition(5)
    got = (
        tiled_filter(ds, None, kernel_size=3, tile_size=16)
        .to_pandas()
        .sort_values("pixel_id")
        .reset_index(drop=True)
    )
    # brute oracle: truncated-window mean
    want = np.zeros((n, n))
    for r in range(n):
        for c in range(n):
            r0, r1 = max(0, r - 1), min(n, r + 2)
            c0, c1 = max(0, c - 1), min(n, c + 2)
            want[r, c] = vals[r0:r1, c0:c1].mean()
    np.testing.assert_allclose(
        got["filtered"].to_numpy(), want.ravel(), rtol=1e-12
    )
    assert len(got) == n * n  # every pixel exactly once (halo trimmed)


def test_tiled_filter_morphology_sparse(ray_session):
    """Dilate/erode (agg=max/min) on a SPARSE raster == brute window
    max/min over present pixels, incl. a k=5 structuring element;
    opening (erode-then-dilate of binary) never grows the set."""
    import ray.data

    from rsgislib_ray.stages.raster import tiled_filter

    rng = np.random.default_rng(7)
    n = 40
    pid_all = np.arange(n * n, dtype=np.int64)
    keep = rng.random(n * n) < 0.7  # sparse support
    pid = pid_all[keep]
    row, col = np.divmod(pid, n)
    vals = rng.integers(0, 50, len(pid)).astype(np.float64)
    ds = ray.data.from_arrow(
        pa.table({"pixel_id": pid, "row": row, "col": col, "value": vals})
    ).repartition(4)
    grid = np.full((n, n), np.nan)
    grid[row, col] = vals
    for agg, k in (("max", 3), ("min", 3), ("max", 5)):
        got = (
            tiled_filter(ds, None, kernel_size=k, tile_size=16, agg=agg)
            .to_pandas()
            .sort_values("pixel_id")
            .reset_index(drop=True)
        )
        assert np.array_equal(got["pixel_id"].to_numpy(), pid)
        h = k // 2
        red = np.nanmax if agg == "max" else np.nanmin
        want = np.array(
            [
                red(
                    grid[
                        max(0, r - h) : min(n, r + h + 1),
                        max(0, c - h) : min(n, c + h + 1),
                    ]
                )
                for r, c in zip(row, col)
            ]
        )
        np.testing.assert_array_equal(got["filtered"].to_numpy(), want)


def test_images_equal(ray_session):
    import ray.data

    from rsgislib_ray.stages.raster import images_equal

    n = 40
    pid = np.arange(n * n, dtype=np.int64)
    v = ((pid * 13) % 211).astype(np.float64)
    t1 = pa.table({"pixel_id": pid, "value": v})
    v2 = v.copy()
    v2[5] += 3.0
    t2 = pa.table({"pixel_id": pid, "value": v2})
    same = images_equal(ray.data.from_arrow(t1), ray.data.from_arrow(t1))
    assert same["equal"] and same["n_diff"] == 0
    diff = images_equal(ray.data.from_arrow(t1), ray.data.from_arrow(t2))
    assert not diff["equal"] and diff["n_diff"] == 1
    assert diff["max_abs_diff"] == 3.0
    tol = images_equal(
        ray.data.from_arrow(t1), ray.data.from_arrow(t2), tolerance=5.0
    )
    assert tol["equal"]


def test_isodata_split_and_merge(ray_session):
    """ISODATA: an elongated cluster splits when its std exceeds
    split_std; near-coincident centers merge."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from rsgislib_ray.stages.zonal import isodata_cluster

    rng = np.random.default_rng(5)
    # two tight blobs + one elongated stripe
    a = rng.normal([10, 10], 0.5, (300, 2))
    b = rng.normal([80, 80], 0.5, (300, 2))
    stripe = np.column_stack(
        [rng.uniform(20, 70, 400), rng.normal(40, 0.5, 400)]
    )
    X = np.vstack([a, b, stripe])
    ds = ray.data.from_arrow(
        pa.table({"x": X[:, 0], "y": X[:, 1]})
    ).repartition(4)
    out = isodata_cluster(
        ds, ["x", "y"], n_clusters=3, iters=6,
        min_cluster_frac=0.01, split_std=8.0, merge_dist=1.0,
    ).to_pandas()
    # the stripe (x-std ~14 > 8) must have split -> more than 3 clusters
    assert out["cluster"].nunique() > 3
    # blobs a and b land in single, distinct clusters
    ca = out.iloc[:300]["cluster"]
    cb = out.iloc[300:600]["cluster"]
    assert ca.nunique() == 1 and cb.nunique() == 1
    assert ca.iloc[0] != cb.iloc[0]


def test_moment_partial_equals_pandas_groupby():
    """The scatter-add zonal partial equals a pandas groupby over the
    brute-force (point, zone) matches: negative values, zones without
    matches left out, and accumulation across point chunks."""
    import pandas as pd

    from rsgislib_ray.functions.geom import points_in_ring, rect_ring
    from rsgislib_ray.stages.spatial_join import ZoneSet
    from rsgislib_ray.stages.zonal import _moment_partial

    rng = np.random.default_rng(9)
    rings = [rect_ring(x, y, x + 4, y + 3) for x, y in rng.integers(0, 20, (40, 2))]
    rings.append(np.array([5.0, 5.0, 15.0, 5.0, 5.0, 15.0]))  # triangle
    rings.append(rect_ring(100.0, 100.0, 101.0, 101.0))  # no point reaches it
    lens = [len(r) for r in rings]
    zones = ZoneSet.from_table(
        pa.table(
            {
                "fid": pa.array(np.arange(len(rings)) * 3 + 7, pa.int64()),
                "ring_xy": pa.ListArray.from_arrays(
                    pa.array(np.concatenate([[0], np.cumsum(lens)]), pa.int32()),
                    pa.array(np.concatenate(rings)),
                ),
            }
        )
    )
    zones.MATCH_CHUNK = 50
    n = 500
    cells = pa.table(
        {
            "x": rng.integers(0, 50, n) / 2.0,
            "y": rng.integers(0, 50, n) / 2.0,
            "val": rng.integers(-1000, 1000, n),
        }
    )
    got = _moment_partial(cells, zones_ref=zones).to_pandas()

    px, py, v = (cells[c].to_numpy() for c in ("x", "y", "val"))
    pairs = [
        pd.DataFrame({"fid": zones.fid[z], "v": v[points_in_ring(px, py, r)]})
        for z, r in enumerate(rings)
    ]
    m = pd.concat(pairs).assign(sq=lambda d: d["v"] * d["v"])
    want = m.groupby("fid", as_index=False).agg(
        cnt=("v", "size"),
        sum_v=("v", "sum"),
        sumsq_v=("sq", "sum"),
        min_v=("v", "min"),
        max_v=("v", "max"),
    )
    assert zones.fid[-1] not in set(got["fid"])
    assert (want["min_v"] < 0).any()
    pd.testing.assert_frame_equal(
        got.sort_values("fid").reset_index(drop=True),
        want.astype(got.dtypes.to_dict()),
    )
