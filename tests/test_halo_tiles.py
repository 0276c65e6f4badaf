"""``raster.halo_tiles`` and ``partition.group_apply`` against brute
force: every tile call sees exactly the pixels of its frame, every
pixel is core once, and each key's rows reach one call in input
order."""

import uuid

import numpy as np
import pyarrow as pa
import pytest
import ray.data
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st


def _call_id() -> int:
    return uuid.uuid4().int >> 65


def _blocks(tbl: pa.Table, cuts: list[int]) -> list[pa.Table]:
    """``tbl`` cut at ``cuts``, with a zero-row block between each."""
    edges = [0, *sorted(cuts), tbl.num_rows]
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        out += [tbl.slice(a, b - a), tbl.slice(0, 0)]
    return out


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    n_rows=st.integers(9, 26),
    n_cols=st.integers(9, 26),
    keep=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**16),
    tile_size=st.integers(1, 8),
    halo=st.integers(0, 10),
    cuts=st.lists(st.integers(0, 700), max_size=4),
)
def test_halo_tiles_vs_brute(ray_session, n_rows, n_cols, keep, seed, tile_size, halo, cuts):
    from rsgislib_ray.stages import partition
    from rsgislib_ray.stages.raster import Tile, halo_tiles

    rng = np.random.default_rng(seed)
    pid = np.arange(n_rows * n_cols, dtype=np.int64)
    pid = pid[rng.random(len(pid)) < keep]  # holes
    assume(len(pid) > 0)
    row, col = np.divmod(pid, n_cols)
    tbl = pa.table({"pixel_id": pid, "row": row, "col": col})
    cuts = [c % (len(pid) + 1) for c in cuts]
    # brute force: the pixels inside each tile's frame
    want = {}
    for p, r, c in zip(pid, row, col):
        trs = range(max(0, (r - halo) // tile_size), (r + halo) // tile_size + 1)
        tcs = range(max(0, (c - halo) // tile_size), (c + halo) // tile_size + 1)
        for tr in trs:
            for tc in tcs:
                want.setdefault((tr, tc), set()).add(int(p))
    # 32 rows a task: more than one partition, up to the 4 CPUs, and
    # more tiles than partitions, so a partition holds several tiles
    assume(len(pid) > 32 and len(want) > partition.cluster_cpus())

    def fn(t: Tile) -> pa.Table:
        n = t.rows.num_rows
        return pa.table(
            {
                "call": np.full(n, _call_id(), np.int64),
                "tr": np.full(n, t.tr, np.int64),
                "tc": np.full(n, t.tc, np.int64),
                "r0": np.full(n, t.r0, np.int64),
                "c0": np.full(n, t.c0, np.int64),
                "dim": np.full(n, t.dim, np.int64),
                "pixel_id": t.rows["pixel_id"],
                "row": t.rows["row"],
                "col": t.rows["col"],
                "rr": t.rr,
                "cc": t.cc,
                "core": t.core,
            }
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "TASK_ROWS", 32)
        got = halo_tiles(
            ray.data.from_arrow(_blocks(tbl, cuts)), tile_size, halo, fn
        ).to_pandas()

    # frame geometry agrees with (tr, tc)
    assert (got["r0"] == got["tr"] * tile_size - halo).all()
    assert (got["c0"] == got["tc"] * tile_size - halo).all()
    assert (got["dim"] == tile_size + 2 * halo).all()
    assert (got["rr"] == got["row"] - got["r0"]).all()
    assert (got["cc"] == got["col"] - got["c0"]).all()
    lr, lc = got["rr"] - halo, got["cc"] - halo
    inner = (lr >= 0) & (lr < tile_size) & (lc >= 0) & (lc < tile_size)
    assert (got["core"] == inner).all()
    # one call per tile
    per_tile = got.groupby(["tr", "tc"])["call"].nunique()
    assert (per_tile == 1).all()
    assert got.groupby("call")[["tr", "tc"]].nunique().max().max() == 1
    # each pixel is core in exactly one call
    core = got[got["core"]]
    assert sorted(core["pixel_id"]) == sorted(pid.tolist())
    # each call holds exactly the pixels inside its frame, and every
    # tile whose frame holds a pixel is called
    have = {
        (int(tr), int(tc)): set(g["pixel_id"].tolist())
        for (tr, tc), g in got.groupby(["tr", "tc"])
    }
    assert have == want


def test_tiled_filter_halo_wider_than_tile(ray_session):
    """A 7x7 window over 2x2 tiles (halo 3 > tile 2) keeps every window
    member: the truncated-window mean equals brute force."""
    from rsgislib_ray.stages.raster import RasterGrid, tiled_filter

    n = 12
    rng = np.random.default_rng(5)
    pid = np.arange(n * n, dtype=np.int64)
    row, col = np.divmod(pid, n)
    val = rng.integers(0, 50, n * n).astype(np.float64)
    tbl = pa.table({"pixel_id": pid, "row": row, "col": col, "value": val})
    grid = RasterGrid(0.0, float(n), 1.0, 1.0, n, n)
    got = (
        tiled_filter(
            ray.data.from_arrow(tbl).repartition(3), grid, kernel_size=7, tile_size=2
        )
        .to_pandas()
        .set_index("pixel_id")["filtered"]
    )
    dense = val.reshape(n, n)
    assert len(got) == n * n
    for r in range(n):
        for c in range(n):
            win = dense[max(0, r - 3) : r + 4, max(0, c - 3) : c + 4]
            assert np.isclose(got[r * n + c], win.mean(), rtol=1e-12, atol=0)


def test_group_apply_hot_key_and_int64_bounds(ray_session):
    from rsgislib_ray.stages.partition import group_apply

    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    key = np.array([7, lo, 7, 3, 7, hi, 7, 7, 3, 7, lo, 7], np.int64)
    tbl = pa.table({"k": key, "seq": np.arange(len(key), dtype=np.int64)})
    blocks = [tbl.slice(0, 4), tbl.slice(4, 0), tbl.slice(4, 4), tbl.slice(8, 4)]

    def fn(g: pa.Table) -> pa.Table:
        return g.append_column("call", pa.array(np.full(g.num_rows, _call_id())))

    got = group_apply(ray.data.from_arrow(blocks), "k", fn).to_pandas()
    assert len(got) == len(key)
    for k in (7, lo, hi, 3):
        g = got[got["k"] == k]
        assert g["call"].nunique() == 1
        assert g["seq"].tolist() == np.flatnonzero(key == k).tolist()
    assert got["call"].nunique() == 4
    # the hot key spans all three non-empty input blocks
    assert {int(s) // 4 for s in got[got["k"] == 7]["seq"]} == {0, 1, 2}


def test_group_apply_empty_input(ray_session):
    from rsgislib_ray.stages.partition import group_apply

    def fn(g: pa.Table) -> pa.Table:
        raise AssertionError("called with no rows")

    empty = pa.table({"k": pa.array([], pa.int64())})
    assert group_apply(ray.data.from_arrow(empty), "k", fn).count() == 0
