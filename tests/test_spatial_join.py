"""Spatial join vs DuckDB oracle + broadcast/sort-merge equivalence."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages.spatial_join import (
    count_points_per_zone,
    spatial_join_points,
    spatial_join_points_sortmerge,
)


@pytest.fixture(scope="module")
def oracle(sf_dir):
    con = duckdb.connect()
    for t in ["orders", "part", "supplier", "customer", "lineitem"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def _oracle_pairs(con):
    return con.execute(
        f"""
        WITH pts AS ({td.SQL_PTS}), zones AS ({td.SQL_ZONES})
        SELECT p.pt_id, z.fid FROM pts p JOIN zones z
          ON p.x > z.xmin AND p.x < z.xmax AND p.y > z.ymin AND p.y < z.ymax
        ORDER BY p.pt_id, z.fid
        """
    ).fetch_arrow_table()


def test_inner_join_matches_oracle(ray_session, sf_dir, oracle):
    pts = td.points_from_orders(sf_dir)
    zones = td.zones_from_part(sf_dir)
    out = (
        spatial_join_points(pts, zones, how="inner", zone_prefix="z_")
        .to_pandas()
        .sort_values(["pt_id", "z_fid"])
        .reset_index(drop=True)
    )
    want = _oracle_pairs(oracle).to_pandas()
    assert len(out) == len(want) > 0
    np.testing.assert_array_equal(out["pt_id"].to_numpy(), want["pt_id"].to_numpy())
    np.testing.assert_array_equal(out["z_fid"].to_numpy(), want["fid"].to_numpy())


def test_left_and_semi_and_anti(ray_session, sf_dir, oracle):
    pts = td.points_from_orders(sf_dir)
    zones = td.zones_from_part(sf_dir)
    n_pts = pts.count()
    pairs = _oracle_pairs(oracle).to_pandas()
    matched_ids = set(pairs["pt_id"].tolist())

    left = spatial_join_points(pts, zones, how="left", zone_prefix="z_").to_pandas()
    # every point appears; unmatched points exactly once with null fid
    assert set(left["pt_id"]) == set(range(1, 1 + 0)) or len(
        set(left["pt_id"])
    ) == n_pts
    null_rows = left[left["z_fid"].isna()]
    assert set(null_rows["pt_id"]).isdisjoint(matched_ids)
    assert len(left) == len(pairs) + (n_pts - len(matched_ids))

    semi = spatial_join_points(pts, zones, how="semi").to_pandas()
    assert len(semi) == n_pts
    assert set(semi[semi["in_zone"]]["pt_id"]) == matched_ids

    anti = spatial_join_points(pts, zones, how="anti").to_pandas()
    assert set(anti["pt_id"]) == set(semi["pt_id"]) - matched_ids


def test_zone_attrs_passthrough(ray_session, sf_dir):
    pts = td.points_from_orders(sf_dir)
    zones = td.zones_from_part(sf_dir)
    out = spatial_join_points(
        pts, zones, how="inner", attr_cols=["category"], zone_prefix="z_"
    ).to_pandas()
    k = out["z_fid"].to_numpy()
    np.testing.assert_array_equal(out["z_category"].to_numpy(), (k % 5).astype(np.int32))


def test_count_points_per_zone_matches_oracle(ray_session, sf_dir, oracle):
    pts = td.points_from_orders(sf_dir)
    zones = td.zones_from_part(sf_dir)
    got = (
        count_points_per_zone(pts, zones)
        .to_pandas()
        .sort_values("fid")
        .reset_index(drop=True)
    )
    want = oracle.execute(
        f"""
        WITH pts AS ({td.SQL_PTS}), zones AS ({td.SQL_ZONES})
        SELECT z.fid, count(p.pt_id) AS n_points
        FROM zones z LEFT JOIN pts p
          ON p.x > z.xmin AND p.x < z.xmax AND p.y > z.ymin AND p.y < z.ymax
        GROUP BY z.fid ORDER BY z.fid
        """
    ).fetch_df()
    np.testing.assert_array_equal(got["fid"].to_numpy(), want["fid"].to_numpy())
    np.testing.assert_array_equal(
        got["n_points"].to_numpy(), want["n_points"].to_numpy()
    )


@pytest.mark.parametrize("level", [5, 6])
def test_sortmerge_equals_broadcast(ray_session, sf_dir, level):
    """The two shipped strategies give the same (point, zone) pair set
    at either cell level."""
    pts = td.points_from_orders(sf_dir).map_batches(
        lambda t: t.append_column("pt_row", t["pt_id"]), batch_format="pyarrow"
    ).materialize()
    zones = td.zones_from_part(sf_dir)
    bc = spatial_join_points(pts, zones, how="inner").to_pandas()
    want = sorted(zip(bc["pt_row"], bc["fid"]))
    assert len(want) > 0
    sm = spatial_join_points_sortmerge(
        pts, zones, level=level, key_col="pt_row"
    ).to_pandas()
    assert sorted(zip(sm["pt_row"], sm["fid"])) == want


def test_unsupported_how_rejected_at_call(ray_session):
    """Both strategies reject an unknown ``how`` when the join is built,
    before any Ray task runs."""
    import ray.data

    from rsgislib_ray.functions.geom import rect_ring

    pts = ray.data.from_arrow(
        pa.table({"pt_row": [0], "x": [1.0], "y": [1.0]})
    )
    zones = pa.table(
        {
            "fid": pa.array([7], pa.int64()),
            "ring_xy": pa.ListArray.from_arrays(
                pa.array([0, 8], pa.int32()), pa.array(rect_ring(0, 0, 2, 2))
            ),
        }
    )
    with pytest.raises(ValueError, match="unsupported how"):
        spatial_join_points(pts, zones, how="outer")
    with pytest.raises(ValueError, match="unsupported how"):
        spatial_join_points_sortmerge(pts, zones, how="outer")
    # salt parameters are checked when the join is built: a threshold
    # or max_salt of 0 would copy each hot zone row 0 times (no pairs)
    for kw, name in (
        ({"salt_threshold": 0}, "salt_threshold"),
        ({"salt_threshold": -3}, "salt_threshold"),
        ({"salt_threshold": 2.5}, "salt_threshold"),
        ({"salt_threshold": 5, "max_salt": 0}, "max_salt"),
    ):
        with pytest.raises(ValueError, match=name):
            spatial_join_points_sortmerge(pts, zones, **kw)


def test_rect_fastpath_matches_ray_crossing(ray_session):
    """Rectangle fast-path must equal points_in_ring exactly, including
    boundary points (half-open edge rule)."""
    import numpy as np
    from rsgislib_ray.functions.geom import points_in_ring, rect_ring
    from rsgislib_ray.stages.spatial_join import ZoneSet

    rings = np.concatenate(
        [rect_ring(2, 3, 8, 9), rect_ring(5, 5, 10, 10),
         np.array([1.0, 1.0, 9.0, 2.0, 5.0, 9.0, 1.0, 1.0])]  # non-rect quad
    )
    tbl = pa.table(
        {
            "fid": pa.array([0, 1, 2], pa.int64()),
            "ring_xy": pa.ListArray.from_arrays(
                pa.array([0, 8, 16, 24]), pa.array(rings)
            ),
        }
    )
    zs = ZoneSet.from_table(tbl)
    assert zs.is_rect.tolist() == [True, True, False]
    rng = np.random.default_rng(0)
    # mix random and exact-boundary points
    px = np.concatenate([rng.uniform(0, 11, 500), [2.0, 8.0, 5.0, 2.0], [8.0]])
    py = np.concatenate([rng.uniform(0, 11, 500), [3.0, 9.0, 5.0, 9.0], [3.0]])
    pi, zi = zs.match_points(zs.index, px, py)
    got = set(zip(pi.tolist(), zi.tolist()))
    want = set()
    for z in range(3):
        ring = rings[8 * z : 8 * z + (8 if z < 2 else 8)]
        inside = points_in_ring(px, py, ring)
        want |= {(int(p), z) for p in np.flatnonzero(inside)}
    assert got == want


def test_sortmerge_how_modes(ray_session, sf_dir):
    """sortmerge left/semi/anti agree with the broadcast join."""
    import numpy as np

    from rsgislib_ray.sources import testdata as td
    from rsgislib_ray.stages.spatial_join import (
        spatial_join_points,
        spatial_join_points_sortmerge,
    )

    zones = td.zones_from_part(sf_dir)
    pts = td.points_from_orders(sf_dir).map_batches(
        lambda t: t.append_column("pt_row", t["pt_id"]), batch_format="pyarrow"
    ).materialize()
    n_pts = pts.count()
    semi_b = spatial_join_points(pts, zones, how="semi").to_pandas()
    matched_b = set(semi_b[semi_b["in_zone"]]["pt_id"])
    semi = spatial_join_points_sortmerge(
        pts, zones, how="semi", key_col="pt_row"
    ).to_pandas()
    assert set(semi["pt_row"]) == matched_b
    anti = spatial_join_points_sortmerge(
        pts, zones, how="anti", key_col="pt_row"
    ).to_pandas()
    assert set(anti["pt_row"]) == set(semi_b["pt_id"]) - matched_b
    assert len(semi) + len(anti) == n_pts
    left = spatial_join_points_sortmerge(
        pts, zones, how="left", key_col="pt_row"
    ).to_pandas()
    inner = spatial_join_points_sortmerge(
        pts, zones, how="inner", key_col="pt_row"
    ).to_pandas()
    assert len(left) == len(inner) + len(anti)
    assert (left["fid"] == -1).sum() == len(anti)


def test_sortmerge_hot_cell_salting(ray_session, sf_dir):
    """VERDICT r3 #9: a pathological corpus (one cell holding ~30% of
    points) through the sort-merge strategy with hot-cell salting —
    pair set identical to the unsalted path and to the broadcast join,
    for inner and left."""
    import ray.data

    from rsgislib_ray.stages.spatial_join import (
        spatial_join_points,
        spatial_join_points_sortmerge,
    )

    pts = td.points_from_orders(sf_dir).to_pandas()
    x = pts["x"].to_numpy().copy()
    y = pts["y"].to_numpy().copy()
    pid = pts["pt_id"].to_numpy()
    hotm = pid % 10 < 3  # ~30% of points collapse into [50, 51)^2
    x[hotm] = 50.0 + (x[hotm] - np.floor(x[hotm]))
    y[hotm] = 50.0 + (y[hotm] - np.floor(y[hotm]))
    skew = pa.table({"pt_row": pid, "x": x, "y": y})
    zones = td.zones_from_part(sf_dir)

    def pairs(how, salt):
        ds = ray.data.from_arrow(skew).repartition(8)
        out = spatial_join_points_sortmerge(
            ds, zones, level=6, key_col="pt_row", how=how,
            salt_threshold=salt,
        ).to_pandas()
        return sorted(zip(out["pt_row"], out["fid"]))

    for how in ("inner", "left"):
        unsalted = pairs(how, None)
        salted = pairs(how, 200)  # hot cell >> 200 rows -> salting engages
        assert salted == unsalted, how

    # broadcast reference for inner
    bro = spatial_join_points(
        ray.data.from_arrow(skew).repartition(8), zones
    ).to_pandas()
    assert sorted(zip(bro["pt_row"], bro["fid"])) == pairs("inner", None)

    # the skew probe really sees a hot cell at this threshold
    from rsgislib_ray.functions.cells import cells_from_xy

    cell = cells_from_xy(x, y, 6)
    _, counts = np.unique(cell[cell != -1], return_counts=True)
    assert counts.max() > 200


def test_salting_engages_and_bounds_cells(ray_session, sf_dir, monkeypatch):
    """VERDICT r4 #7: prove the adaptive hot-cell split actually
    ENGAGES (the broadcast histogram of cells and salt counts gives
    the hot cell a salt count > 1) and that the post-split
    per-(cell, salt) group size is bounded by the threshold for
    uncapped cells."""
    import ray as _r
    import ray.data

    from rsgislib_ray.functions import cells as cellmod
    from rsgislib_ray.stages.spatial_join import (
        spatial_join_points_sortmerge,
    )

    pts = td.points_from_orders(sf_dir).to_pandas()
    x = pts["x"].to_numpy().copy()
    y = pts["y"].to_numpy().copy()
    pid = pts["pt_id"].to_numpy()
    hotm = pid % 10 < 3
    x[hotm] = 50.0 + (x[hotm] - np.floor(x[hotm]))
    y[hotm] = 50.0 + (y[hotm] - np.floor(y[hotm]))
    skew = pa.table({"pt_row": pid, "x": x, "y": y})
    zones = td.zones_from_part(sf_dir)

    captured = {}
    orig_put = _r.put

    def spy(obj, *a, **k):
        if (
            isinstance(obj, tuple)
            and len(obj) == 2
            and hasattr(obj[0], "dtype")
            and hasattr(obj[1], "dtype")
        ):
            captured["plan"] = obj
        return orig_put(obj, *a, **k)

    monkeypatch.setattr(_r, "put", spy)
    ds = ray.data.from_arrow(skew).repartition(8)
    out = spatial_join_points_sortmerge(
        ds, zones, level=6, key_col="pt_row", salt_threshold=200
    )
    out.count()
    assert "plan" in captured, "salt plan must be built"
    cells, per = captured["plan"]
    hcells, s = cells[per > 1], per[per > 1]
    assert len(hcells) >= 1
    # recompute true cell counts; every detected hot cell must exceed
    # the threshold, and uncapped splits bound the group size
    cell = cellmod.cells_from_xy(x, y, 6)
    u, c = np.unique(cell[cell != -1], return_counts=True)
    n_of = dict(zip(u.tolist(), c.tolist()))
    for hc, si in zip(hcells.tolist(), s.tolist()):
        n = n_of[hc]
        assert n > 200
        if si < 64:  # not capped (max_salt default)
            assert -(-n // si) <= 200


def _even_odd(x, y, ring):
    """Scalar even-odd ray crossing over the ring's implicit closure."""
    xs, ys = ring[0::2], ring[1::2]
    inside = False
    for k in range(len(xs)):
        x1, y1 = xs[k], ys[k]
        x2, y2 = xs[(k + 1) % len(xs)], ys[(k + 1) % len(xs)]
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


def _edge_layer(rng, n_zones, with_triangles):
    """Integer-cornered rectangles (and, optionally, every third zone a
    triangle) plus points on a 0.5 lattice: many lie exactly on zone
    edges and corners."""
    from rsgislib_ray.functions.geom import rect_ring

    rings = []
    for j in range(n_zones):
        x0, y0 = rng.integers(0, 20, 2).astype(float)
        w, h = rng.integers(1, 6, 2).astype(float)
        if with_triangles and j % 3 == 0:
            rings.append(np.array([x0, y0, x0 + w, y0, x0, y0 + h]))
        else:
            rings.append(rect_ring(x0, y0, x0 + w, y0 + h))
    lens = [len(r) for r in rings]
    tbl = pa.table(
        {
            "fid": pa.array(np.arange(100, 100 + n_zones), pa.int64()),
            "ring_xy": pa.ListArray.from_arrays(
                pa.array(np.concatenate([[0], np.cumsum(lens)]), pa.int32()),
                pa.array(np.concatenate(rings)),
            ),
        }
    )
    px = rng.integers(-2, 52, 600) / 2.0
    py = rng.integers(-2, 52, 600) / 2.0
    return tbl, rings, px, py


@pytest.mark.parametrize("with_triangles", [False, True])
def test_match_points_equals_brute_force_in_order(with_triangles):
    """``match_points`` on the default cell-bucket index gives exactly the
    brute-force pairs in run order, whether one chunk or many: by point,
    then the rectangle zones whose interior holds the point's cell
    (column strictly between the cells of the zone's ``xmin`` and
    ``xmax``, row likewise) ascending, then the other zones ascending."""
    from rsgislib_ray.stages.spatial_join import ZoneSet

    rng = np.random.default_rng(5)
    tbl, rings, px, py = _edge_layer(rng, 120, with_triangles)
    zs = ZoneSet.from_table(tbl)
    assert zs.is_rect.all() != with_triangles
    idx = zs.build_index()

    def cell(v, origin, size):
        return np.floor((v - origin) / size)

    def interior(p, z):
        xmin, xmax, ymin, ymax = zs.bounds[z]
        col, row = cell(px[p], idx.x0, idx.cw), cell(py[p], idx.y0, idx.ch)
        return bool(zs.is_rect[z]) and (
            cell(xmin, idx.x0, idx.cw) < col < cell(xmax, idx.x0, idx.cw)
            and cell(ymin, idx.y0, idx.ch) < row < cell(ymax, idx.y0, idx.ch)
        )

    want = np.array(
        sorted(
            (p, not interior(p, z), z)
            for p in range(len(px))
            for z in range(len(rings))
            if _even_odd(px[p], py[p], rings[z])
        ),
        dtype=np.int64,
    )[:, [0, 2]]
    assert len(want) > 0
    # both parts occur, so the order is pinned, not only the pair set
    assert 0 < sum(interior(p, z) for p, z in want) < len(want)
    for chunk in (ZoneSet.MATCH_CHUNK, 37):
        zs.MATCH_CHUNK = chunk
        pi, zi = zs.match_points(idx, px, py)
        np.testing.assert_array_equal(pi, want[:, 0])
        np.testing.assert_array_equal(zi, want[:, 1])


@pytest.mark.parametrize("salt", [None, 2])
def test_sortmerge_triangles_equal_brute_force(ray_session, salt):
    """Sort-merge over rectangles and triangles (ring PIP refine, ring
    blobs packed per covering cell and per salt) gives exactly the
    brute-force even-odd pairs for every join mode; salted, a cell
    holding a triangle is hot."""
    import ray
    import ray.data

    from rsgislib_ray.functions.cells import cells_from_xy, covering_cells_bboxes
    from rsgislib_ray.stages.spatial_join import ZoneSet

    tbl, rings, px, py = _edge_layer(np.random.default_rng(11), 150, True)
    key = np.arange(len(px), dtype=np.int64)
    pts = pa.table({"pt_row": key * 3 + 1, "x": px, "y": py})
    hit = {
        k: [100 + z for z in range(len(rings)) if _even_odd(px[k], py[k], rings[z])]
        for k in key
    }
    pairs = sorted((3 * k + 1, f) for k, fs in hit.items() for f in fs)
    un = [(3 * k + 1, -1) for k, fs in hit.items() if not fs]
    want = {
        "inner": pairs,
        "left": sorted(pairs + un),
        "semi": [(3 * k + 1, -1) for k, fs in hit.items() if fs],
        "anti": un,
    }
    assert want["inner"] and want["anti"]
    if salt is not None:
        cell = cells_from_xy(px, py, 6)
        u, c = np.unique(cell[cell != -1], return_counts=True)
        zs = ZoneSet.from_table(tbl)
        owner, zcell = covering_cells_bboxes(
            *(zs.bounds[:, i] for i in range(4)), 6
        )
        assert np.isin(zcell[~zs.is_rect[owner]], u[c > salt]).any()
    for how in ("inner", "left", "semi", "anti"):
        out = spatial_join_points_sortmerge(
            ray.data.from_arrow(pts).repartition(4), tbl,
            level=6, key_col="pt_row", how=how, salt_threshold=salt,
        )
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
        assert sorted(zip(got["pt_row"].to_pylist(), got["fid"].to_pylist())) == (
            want[how]
        ), how
