"""The partial combine (``stages/segsum.py``): the driver kernel, the
distributed ``segment_sum``, the one measured route, and the six
stage sites that reduce through them.

The distributed route is forced by setting ``segsum.AUTO_NATIVE_ROWS``
to 0; every partial is an exact int64, so it must return the driver
route's rows bit for bit.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from rsgislib_ray.functions.grid import TileSpec
from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages import segsum
from rsgislib_ray.stages.events import tumbling_windows
from rsgislib_ray.stages.raster import build_pyramid
from rsgislib_ray.stages.spatial_join import count_points_per_zone
from rsgislib_ray.stages.tiling import tile_counts
from rsgislib_ray.stages.zonal import MOMENT_STATS, zonal_stats
from tests.test_sortmerge import _executed_ops

NO_DATA = -9999.0
SPEC = TileSpec((0.0, 100.0, 0.0, 100.0), 30.0, 30.0)


def _table(out) -> pa.Table:
    """A site's result as one table: Dataset blocks concatenated (Ray
    drops the schema of empty blocks; the typed ones carry it)."""
    if isinstance(out, pa.Table):
        return out
    blocks = ray.get(out.to_arrow_refs())
    typed = [b for b in blocks if b.num_columns]
    return pa.concat_tables(typed)


def _sorted(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


# --------------------------------------------------------------------------
# the driver kernel
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 500, 20000])
def test_combine_arrays_matches_pandas_groupby(n):
    """Two int64 keys with duplicates and negative values, sum/min/max:
    the kernel equals pandas' groupby row for row, sorted by key, and
    zero rows give a typed zero-row table."""
    rng = np.random.default_rng(n)
    df = pd.DataFrame(
        {
            "a": rng.integers(-4, 4, n),
            "b": rng.integers(-(10**12), 10**12, n) // 10**11,
            "s": rng.integers(-(10**9), 10**9, n),
            "lo": rng.integers(-50, 50, n),
            "hi": rng.integers(-50, 50, n),
        }
    )
    got = segsum.combine_arrays(
        {"a": df["a"].to_numpy(), "b": df["b"].to_numpy()},
        {c: df[c].to_numpy() for c in ("s", "lo", "hi")},
        ["sum", "min", "max"],
    )
    want = (
        df.groupby(["a", "b"], as_index=False)
        .agg({"s": "sum", "lo": "min", "hi": "max"})
        .astype(np.int64)
    )
    assert got.schema == pa.schema([(c, pa.int64()) for c in want.columns])
    pd.testing.assert_frame_equal(got.to_pandas(), want)
    if n > 1:
        assert len(want) < n  # the keys really repeat


def test_combine_blocks_skips_schemaless_empty_blocks():
    t = pa.table({"k": np.array([3, 1, 3]), "v": np.array([-1, 2, 5])})
    got = segsum.combine_blocks([pa.table({}), t, t.slice(0, 0)], "k", ["v"])
    assert got.to_pydict() == {"k": [1, 3], "v": [2, 4]}
    empty = segsum.combine_blocks([pa.table({})], ["k", "j"], ["v"], ["max"])
    assert empty.schema == pa.schema([(c, pa.int64()) for c in "kjv"])
    assert empty.num_rows == 0


# --------------------------------------------------------------------------
# the distributed reducer
# --------------------------------------------------------------------------


def test_segment_sum_multi_key_run_spans_blocks(ray_session, monkeypatch):
    """A two-key run split over at least 3 sorted blocks is stitched
    back into one row by the edge combine. Ray's range sort keeps a run
    in one partition, so the sorted output is re-split in order here to
    reach the edge path any block split takes."""
    rng = np.random.default_rng(5)
    n = 6000
    hot = np.arange(n) % 2 == 0
    t = pa.table(
        {
            "a": np.where(hot, 7, rng.integers(0, 50, n)),
            "b": np.where(hot, -3, rng.integers(-5, 5, n)),
            "v": rng.integers(-100, 100, n),
            "w": rng.integers(-100, 100, n),
        }
    )
    orig_sort = ray.data.Dataset.sort

    def split_sort(self, key, *a, **k):
        return orig_sort(self, key, *a, **k).materialize().repartition(
            12, shuffle=False
        )

    hot_edges = []  # edge rows of the hot run, per edge combine
    orig_blocks = segsum.combine_blocks

    def spy(blocks, *a, **k):
        hot_edges.append(
            sum(
                int(((b["a"].to_numpy() == 7) & (b["b"].to_numpy() == -3)).sum())
                for b in blocks
                if b.num_rows
            )
        )
        return orig_blocks(blocks, *a, **k)

    monkeypatch.setattr(ray.data.Dataset, "sort", split_sort)
    monkeypatch.setattr(segsum, "combine_blocks", spy)
    got = segsum.segment_sum(
        ray.data.from_arrow(t).repartition(4), ["a", "b"], ["v", "w"], ["sum", "min"]
    ).to_pandas()
    monkeypatch.undo()
    assert hot_edges and hot_edges[0] >= 3, hot_edges
    want = (
        t.to_pandas()
        .groupby(["a", "b"], as_index=False)
        .agg({"v": "sum", "w": "min"})
    )
    pd.testing.assert_frame_equal(
        _sorted(pa.Table.from_pandas(got, preserve_index=False)),
        _sorted(pa.Table.from_pandas(want, preserve_index=False)),
        check_dtype=False,
    )


# --------------------------------------------------------------------------
# the route
# --------------------------------------------------------------------------


def test_route_by_measured_partial_rows(ray_session, monkeypatch):
    small = ray.data.from_arrow(pa.table({"k": np.arange(10, dtype=np.int64)}))
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 10)
    mat, distributed = segsum.route(small)
    assert not distributed and mat.count() == 10
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 9)
    assert segsum.route(small)[1]
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 0)
    assert not segsum.route(small.limit(0))[1]  # zero rows never distribute


# --------------------------------------------------------------------------
# the six sites
# --------------------------------------------------------------------------


def _events(sf_dir):
    return td.read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    ).repartition(8)


# site -> (input maker, call); inputs are materialized before the call
SITES = {
    "zonal_moments": (
        td.cells_from_lineitem,
        lambda ds, sf: zonal_stats(
            ds, td.zones_from_part(sf), "val_cents", value_scale=100.0
        ),
    ),
    "zonal_order": (
        td.cells_from_lineitem,
        lambda ds, sf: zonal_stats(
            ds,
            td.zones_from_part(sf),
            "qty",
            stats=("mode", "median", "p75"),
        ),
    ),
    "count_points_per_zone": (
        td.points_from_orders,
        lambda ds, sf: count_points_per_zone(ds, td.zones_from_part(sf)),
    ),
    "build_pyramid": (
        td.cells_from_lineitem,
        lambda ds, sf: build_pyramid(ds, levels=3),
    ),
    "tumbling_windows": (_events, lambda ds, sf: tumbling_windows(ds)),
    "sliding_windows": (_events, lambda ds, sf: tumbling_windows(ds, slide=2)),
    "tile_counts": (td.points_from_orders, lambda ds, sf: tile_counts(ds, SPEC)),
}


def _run_ops(call, src, sf_dir, monkeypatch):
    """Run one site and return (its result, names of the operators it
    executed), read from the ``Dataset.stats()`` of every dataset it
    built, minus the input's own."""
    made = []
    orig_init = ray.data.Dataset.__init__

    def spy(self, *a, **k):
        orig_init(self, *a, **k)
        made.append(self)

    with monkeypatch.context() as m:
        m.setattr(ray.data.Dataset, "__init__", spy)
        out = call(src, sf_dir)
        tbl = _table(out)
    ops = set().union(*(_executed_ops(ds.stats()) for ds in made))
    ops -= _executed_ops(src.stats())
    return out, tbl, sorted(name for name, _ in ops)


ALL_TO_ALL = ("Sort", "Repartition", "RandomShuffle")


@pytest.mark.parametrize("site", list(SITES))
def test_distributed_route_equals_driver_route(
    ray_session, sf_dir, monkeypatch, site
):
    """Forced onto the distributed route, each site returns the default
    route's rows bit for bit (same schema, and for tables the same row
    order). The default route runs no all-to-all; the distributed one
    runs exactly one ``Sort`` and no ``Aggregate``."""
    make, call = SITES[site]
    src = make(sf_dir).materialize()
    raw, driver, ops_d = _run_ops(call, src, sf_dir, monkeypatch)
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 0)
    _, dist, ops_n = _run_ops(call, src, sf_dir, monkeypatch)
    assert driver.num_rows > 0
    assert driver.schema == dist.schema
    if isinstance(raw, pa.Table):
        assert driver.equals(dist)
    else:
        pd.testing.assert_frame_equal(_sorted(driver), _sorted(dist))
    for ops in (ops_d, ops_n):
        assert not any("Aggregate" in n or "MapGroups" in n for n in ops), ops
    assert [n for n in ops_d if n in ALL_TO_ALL] == [], ops_d
    assert [n for n in ops_n if n in ALL_TO_ALL] == ["Sort"], ops_n


def _far_points(n: int = 50) -> pa.Table:
    x = np.linspace(1000.0, 2000.0, n)
    return pa.table(
        {
            "pt_id": np.arange(n, dtype=np.int64),
            "x": x,
            "y": x,
            "val_cents": np.arange(n, dtype=np.int64) - 7,
            "qty": np.arange(n, dtype=np.int64) % 5,
        }
    )


I64 = pa.int64()
F64 = pa.float64()

# case -> (input, call, expected schema, expected rows per zone (-1:
# one row per zone, else that many rows), no-match fill)
EMPTY_CASES = {
    "build_pyramid_empty": (
        "empty",
        lambda ds, z: build_pyramid(ds, levels=2, value_col="val_cents"),
        [("level", I64), ("px", I64), ("py", I64), ("n_cells", I64),
         ("sum_val", I64), ("mean_val", F64)],
    ),
    "count_points_no_match": (
        "far",
        lambda ds, z: count_points_per_zone(ds, z),
        [("fid", I64), ("n_points", I64)],
    ),
    "zonal_median_no_hits": (
        "far",
        lambda ds, z: zonal_stats(ds, z, "qty", stats=("median",)),
        [("fid", I64), ("median", F64)],
    ),
    "zonal_moments_no_hits": (
        "far",
        lambda ds, z: zonal_stats(ds, z, "val_cents"),
        [("fid", I64), ("count", I64)] + [(s, F64) for s in MOMENT_STATS[1:]],
    ),
    "zonal_moments_empty": (
        "empty",
        lambda ds, z: zonal_stats(ds, z, "val_cents"),
        [("fid", I64), ("count", I64)] + [(s, F64) for s in MOMENT_STATS[1:]],
    ),
    "tumbling_windows_empty": (
        "empty",
        lambda ds, z: tumbling_windows(ds),
        [("user_id", I64), ("window_id", I64), ("n", I64), ("sum_cents", I64)],
    ),
    "tile_counts_empty": (
        "empty",
        lambda ds, z: tile_counts(ds, SPEC),
        [("tile_id", I64), ("n_rows", I64)],
    ),
}


@pytest.mark.parametrize("threshold", [None, 0], ids=["default", "forced"])
@pytest.mark.parametrize("case", list(EMPTY_CASES))
def test_empty_and_no_match_inputs_give_typed_results(
    ray_session, sf_dir, monkeypatch, case, threshold
):
    """Empty inputs and inputs with no match keep each site's normal
    typed result: zone-bounded tables list every zone with its zero
    count or ``out_no_data``; the others have zero rows. With no partial
    rows the route is the driver at any threshold, so the forced run
    also covers the typed kernel on zero rows."""
    if threshold is not None:
        monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", threshold)
    kind, call, schema = EMPTY_CASES[case]
    zones = td.zones_from_part(sf_dir)
    pts = _far_points()
    if kind == "empty":
        events = pa.table(
            {
                "user_id": pa.array([], I64),
                "ts": pa.array([], pa.timestamp("us")),
                "value": pa.array([], F64),
            }
        )
        src = events if case.startswith("tumbling") else pts.slice(0, 0)
    else:
        src = pts
    out = _table(call(ray.data.from_arrow(src), zones))
    assert out.schema == pa.schema(schema)
    if "fid" not in out.column_names:
        assert out.num_rows == 0
        return
    assert out.num_rows == zones.num_rows
    assert out["fid"].to_pylist() == sorted(zones["fid"].to_pylist())
    filled = out.drop_columns(["fid"]).to_pandas()
    fill = 0 if case.startswith("count_points") else NO_DATA
    assert (filled == fill).all(axis=None)
