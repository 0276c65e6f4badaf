"""kNN join / radius count vs DuckDB oracle + grid==brute equivalence."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray

from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages.knn import (
    KNNTieError,
    _TargetIndex,
    _knn_batch,
    _topk_brute,
    _topk_grid,
    knn_join,
    radius_count,
)


@pytest.fixture(scope="module")
def oracle(sf_dir):
    con = duckdb.connect()
    for t in ["orders", "part", "supplier", "customer", "lineitem"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def test_1nn_matches_oracle(ray_session, sf_dir, oracle):
    base = td.base_points_from_customer(sf_dir)
    targets = td.targets_from_supplier(sf_dir)
    got = (
        knn_join(base, targets, k=1, attr_cols=["label"], tie="error")
        .to_pandas()
        .sort_values("base_id")
        .reset_index(drop=True)
    )
    want = oracle.execute(
        f"""
        WITH base AS ({td.SQL_BASE_PTS}), t AS ({td.SQL_TARGETS}),
        d AS (
          SELECT b.base_id, t.target_id, t.label,
            (b.x - t.x) * (b.x - t.x) + (b.y - t.y) * (b.y - t.y) AS dist_sq,
            row_number() OVER (PARTITION BY b.base_id
                               ORDER BY (b.x - t.x) * (b.x - t.x)
                                      + (b.y - t.y) * (b.y - t.y), t.target_id)
              AS rn
          FROM base b CROSS JOIN t
        )
        SELECT base_id, target_id, label, dist_sq FROM d WHERE rn = 1
        ORDER BY base_id
        """
    ).fetch_df()
    np.testing.assert_array_equal(got["base_id"].to_numpy(), want["base_id"].to_numpy())
    np.testing.assert_array_equal(got["nn_id"].to_numpy(), want["target_id"].to_numpy())
    np.testing.assert_array_equal(
        got["nn_dist_sq"].to_numpy(), want["dist_sq"].to_numpy()
    )
    assert got["nn_label"].tolist() == want["label"].tolist()


def test_knn_k4_long_format(ray_session, sf_dir, oracle):
    base = td.base_points_from_customer(sf_dir)
    targets = td.targets_from_supplier(sf_dir)
    got = (
        knn_join(base, targets, k=4, tie="lowest")
        .to_pandas()
        .sort_values(["base_id", "nn_rank"])
        .reset_index(drop=True)
    )
    want = oracle.execute(
        f"""
        WITH base AS ({td.SQL_BASE_PTS}), t AS ({td.SQL_TARGETS}),
        d AS (
          SELECT b.base_id, t.target_id,
            row_number() OVER (PARTITION BY b.base_id
                               ORDER BY (b.x - t.x) * (b.x - t.x)
                                      + (b.y - t.y) * (b.y - t.y), t.target_id)
              AS rn
          FROM base b CROSS JOIN t
        )
        SELECT base_id, rn AS nn_rank, target_id FROM d WHERE rn <= 4
        ORDER BY base_id, rn
        """
    ).fetch_df()
    assert len(got) == len(want)
    np.testing.assert_array_equal(got["nn_id"].to_numpy(), want["target_id"].to_numpy())
    np.testing.assert_array_equal(got["nn_rank"].to_numpy(), want["nn_rank"].to_numpy())


def test_tolerance_subsets_output(ray_session, sf_dir):
    base = td.base_points_from_customer(sf_dir)
    targets = td.targets_from_supplier(sf_dir)
    all_rows = knn_join(base, targets, k=1, tie="lowest").to_pandas()
    tol = 5.0
    within = knn_join(base, targets, k=1, tie="lowest", tolerance=tol).to_pandas()
    assert len(within) == (all_rows["nn_dist_sq"] <= tol * tol).sum()


def test_tie_raises():
    # two targets exactly equidistant from the base point
    targets = pa.table(
        {
            "target_id": [1, 2],
            "x": [0.0, 10.0],
            "y": [5.0, 5.0],
        }
    )
    idx = _TargetIndex(targets, "target_id", "x", "y", None, None)
    batch = pa.table({"base_id": [7], "x": [5.0], "y": [5.0]})
    args = (idx, batch, 1, "x", "y", "nn_")
    with pytest.raises(KNNTieError):
        _knn_batch(*args, "error", None, "brute")
    out = _knn_batch(*args, "lowest", None, "brute")
    assert out["nn_id"].to_pylist() == [1]  # deterministic lowest id


def test_grid_equals_brute():
    rng = np.random.default_rng(42)
    T = 5000
    tbl = pa.table(
        {
            "target_id": np.arange(T, dtype=np.int64),
            "x": rng.uniform(0, 100, T),
            "y": rng.uniform(0, 100, T),
        }
    )
    idx = _TargetIndex(tbl, "target_id", "x", "y", None, grid_level=6)
    px = rng.uniform(-2, 102, 1500)
    py = rng.uniform(-2, 102, 1500)
    for k in (1, 5):
        bd, bi, _ = _topk_brute(px, py, idx, k)
        gd, gi, _ = _topk_grid(px, py, idx, k)
        np.testing.assert_array_equal(bd, gd)
        np.testing.assert_array_equal(bi, gi)


def test_radius_count_vs_oracle(ray_session, sf_dir, oracle):
    base = td.base_points_from_customer(sf_dir)
    targets = td.targets_from_supplier(sf_dir)
    got = (
        radius_count(base, targets, radius=10.0)
        .to_pandas()
        .sort_values("base_id")
        .reset_index(drop=True)
    )
    want = oracle.execute(
        f"""
        WITH base AS ({td.SQL_BASE_PTS}), t AS ({td.SQL_TARGETS})
        SELECT b.base_id,
          (SELECT COUNT(*) FROM t
            WHERE (b.x - t.x) * (b.x - t.x) + (b.y - t.y) * (b.y - t.y) <= 100.0)
          AS n_in_radius
        FROM base b ORDER BY b.base_id
        """
    ).fetch_df()
    np.testing.assert_array_equal(
        got["n_in_radius"].to_numpy(), want["n_in_radius"].to_numpy()
    )


def test_metrics_vs_brute_oracle():
    rng = np.random.default_rng(5)
    T = 200
    tbl = pa.table(
        {
            "target_id": np.arange(T, dtype=np.int64),
            "x": rng.uniform(0, 100, T),
            "y": rng.uniform(0, 100, T),
        }
    )
    from rsgislib_ray.stages.knn import _knn_batch, _TargetIndex

    idx = _TargetIndex(tbl, "target_id", "x", "y", None, None)
    px = rng.uniform(0, 100, 300)
    py = rng.uniform(0, 100, 300)
    batch = pa.table({"bid": np.arange(300, dtype=np.int64), "x": px, "y": py})
    tx, ty = idx.tx, idx.ty
    cov = np.cov(np.stack([tx, ty]))
    inv = np.linalg.inv(cov)
    vi = (float(inv[0, 0]), float(inv[0, 1]), float(inv[1, 1]))

    def oracle(metric):
        dx = px[:, None] - tx[None, :]
        dy = py[:, None] - ty[None, :]
        if metric == "manhattan":
            d = np.abs(dx) + np.abs(dy)
        elif metric == "chebyshev":
            d = np.maximum(np.abs(dx), np.abs(dy))
        elif metric == "minkowski":
            d = (np.abs(dx) ** 3 + np.abs(dy) ** 3) ** (1 / 3)
        else:
            d = vi[0] * dx * dx + 2 * vi[1] * dx * dy + vi[2] * dy * dy
        return d.argmin(axis=1)

    for metric in ("manhattan", "chebyshev", "minkowski", "mahalanobis"):
        out = _knn_batch(
            idx, batch, 1, "x", "y", "nn_", "lowest", None, "auto",
            metric, 3.0, vi,
        ).to_pandas().sort_values("bid")
        np.testing.assert_array_equal(
            out["nn_id"].to_numpy(), idx.ids[oracle(metric)], err_msg=metric
        )


def test_grid_tie_flag_not_sticky_across_rings():
    """An equidistant pair in the point's own cell must NOT flag a tie
    when a strictly nearer unique neighbour sits in a later ring
    (regression: per-ring |= accumulation of the tie flag)."""
    tbl = pa.table(
        {
            "target_id": np.array([1, 2, 3], dtype=np.int64),
            # cell width at level 6 is 100/64 = 1.5625: the pair lives in
            # cell (0,0); the near target in cell (1,0) -> ring 1.
            "x": [0.5, 0.5, 1.7],
            "y": [0.0, 1.0, 0.5],
        }
    )
    idx = _TargetIndex(tbl, "target_id", "x", "y", None, grid_level=6)
    px = np.array([1.5])
    py = np.array([0.5])
    gd, gi, gtie = _topk_grid(px, py, idx, 1)
    bd, bi, btie = _topk_brute(px, py, idx, 1)
    assert idx.ids[gi[0, 0]] == 3 and idx.ids[bi[0, 0]] == 3
    assert not gtie[0] and not btie[0]
    # and a REAL tie (remove the near target) is still flagged
    idx2 = _TargetIndex(tbl.slice(0, 2), "target_id", "x", "y", None, grid_level=6)
    _, _, t2 = _topk_grid(px, py, idx2, 1)
    assert t2[0]


def test_brute_multiway_boundary_tie_lowest_id():
    """>=3 targets exactly tied at the kth distance: the argpartition
    survivor subset is arbitrary, so the id tiebreak must fall back to a
    full row sort (regression: tiebreak only among kk+1 survivors)."""
    rng = np.random.default_rng(7)
    # 4-way exact tie at distance 1 around the origin, ids shuffled so
    # the lowest id is not first, plus background targets farther out.
    far_x = rng.uniform(20, 90, 40)
    far_y = rng.uniform(20, 90, 40)
    tbl = pa.table(
        {
            "target_id": np.concatenate(
                [np.array([9, 3, 7, 5], dtype=np.int64),
                 np.arange(100, 140, dtype=np.int64)]
            ),
            "x": np.concatenate([np.array([6.0, 5.0, 4.0, 5.0]), far_x]),
            "y": np.concatenate([np.array([5.0, 6.0, 5.0, 4.0]), far_y]),
        }
    )
    idx = _TargetIndex(tbl, "target_id", "x", "y", None, None)
    px = np.array([5.0])
    py = np.array([5.0])
    d, i, tie = _topk_brute(px, py, idx, 1)
    assert tie[0]
    assert idx.ids[i[0, 0]] == 3  # global lowest id among the tied run
