"""The partial combine (``stages/segsum.py``): the driver kernel, the
distributed ``segment_sum``, the one measured route, and the stage
sites that reduce through them.

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
from hypothesis import given, settings, strategies as st

from rsgislib_ray.functions.grid import TileSpec
from rsgislib_ray.ops import apply_aggregator
from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages import partition, segsum
from rsgislib_ray.stages.calibration import band_dark_percentiles
from rsgislib_ray.stages.classaccuracy import confusion_counts, confusion_dataset
from rsgislib_ray.stages.classify import (
    _class_counts,
    _hist_counts,
    group_rank_thresholds,
)
from rsgislib_ray.stages.events import event_retention, tumbling_windows
from rsgislib_ray.stages.geostat import semivariogram, semivariogram_copart
from rsgislib_ray.stages.graph import pagerank
from rsgislib_ray.stages.imagestats import (
    global_histogram,
    histogram_emd,
    joint_histogram_pmi,
    split_window_otsu,
)
from rsgislib_ray.stages.polygonize import components_summary
from rsgislib_ray.stages.raster import build_pyramid
from rsgislib_ray.stages.regress import _reg_hist
from rsgislib_ray.stages.sampling import thin_by_cell
from rsgislib_ray.stages.scores import (
    binary_confusion,
    breusch_pagan,
    prob_score_histogram,
)
from rsgislib_ray.stages.segmentation import clump_sums
from rsgislib_ray.stages.slic import slic_superpixels
from rsgislib_ray.stages.spatial_join import (
    count_points_per_zone,
    spatial_join_points_sortmerge,
)
from rsgislib_ray.stages.text import bpe_pair_counts
from rsgislib_ray.stages.tiling import tile_counts
from rsgislib_ray.stages.zonal import (
    MOMENT_STATS,
    class_separability,
    kmeans_cluster_exact,
    zonal_stats,
    zonal_winsorized_mean,
)
from tests.test_sortmerge import _executed_ops, _skew_table

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


@pytest.mark.parametrize(
    "keys, values, bad",
    [
        ({"k": [0, 0]}, {"v": [0.4, 0.4]}, "v"),
        ({"k": [0.5, 1.5]}, {"v": [1, 2]}, "k"),
    ],
    ids=["float_value", "float_key"],
)
def test_kernels_reject_non_integer_columns(ray_session, keys, values, bad):
    """A float key or value column is refused by name, by the driver
    kernel and by ``segment_sum``, instead of being truncated to int64
    (``[0.4, 0.4]`` summed to ``0``; keys ``[0.5, 1.5]`` became
    ``[0, 1]``)."""
    with pytest.raises(ValueError, match=f"'{bad}'"):
        segsum.combine_arrays(keys, values)
    ds = ray.data.from_arrow(pa.table({**keys, **values}))
    with pytest.raises(Exception, match=f"'{bad}'"):
        segsum.segment_sum(ds, list(keys), list(values)).materialize()


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


def test_segment_sum_hot_run_over_blocks_reduces_to_one_row(ray_session):
    """A hot two-key run spread over 4 input blocks, every one holding
    some of its rows, reduces to one row: the hash plan sends all of
    them to one partition, whose reduce task sees the whole run."""
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
    ds = ray.data.from_arrow([t.slice(i, n // 4) for i in range(0, n, n // 4)])
    _, blocks = segsum.held_blocks(ds)
    assert len(blocks) == 4
    got = segsum.segment_sum(ds, ["a", "b"], ["v", "w"], ["sum", "min"]).to_pandas()
    run = got[(got["a"] == 7) & (got["b"] == -3)]
    key = (t["a"].to_numpy() == 7) & (t["b"].to_numpy() == -3)
    assert len(run) == 1
    assert run["v"].item() == t["v"].to_numpy()[key].sum()
    assert run["w"].item() == t["w"].to_numpy()[key].min()
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


_I64 = np.iinfo(np.int64)
_KEY = st.one_of(
    st.sampled_from([_I64.min, _I64.max, -1, 0, 1, -(2**40)]),
    st.integers(_I64.min, _I64.max),
)
_VAL = st.integers(-(2**40), 2**40)


@settings(max_examples=80, deadline=None)
@given(
    blocks=st.lists(
        st.lists(st.tuples(_KEY, _KEY, _VAL, _VAL, _VAL), max_size=25), max_size=5
    ),
    parts=st.integers(1, 8),
)
def test_hash_plan_and_reduce_equal_driver_kernel(blocks, parts):
    """Each block split by the hash plan into ``parts`` partitions, and
    each partition reduced as its reduce task reduces it: the
    partitions together hold exactly the driver kernel's rows, every
    one typed — over two int64 keys with negatives and the int64 min
    and max, sum/min/max, zero-row blocks and no blocks at all."""
    names = ["a", "b", "s", "lo", "hi"]
    aggs = ["sum", "min", "max"]

    def table(rows):
        cols = np.array(rows, dtype=np.int64).reshape(len(rows), 5).T
        return pa.table(dict(zip(names, cols)))

    tables = [table(rows) for rows in blocks]
    splits = [
        partition.group(*partition.hashed(["a", "b"], parts, t), parts)
        for t in tables
    ]
    assert all(len(sp) == parts for sp in splits)
    outs = [
        segsum._reduce(["a", "b"], names[2:], aggs, None, *[sp[i] for sp in splits])
        for i in range(parts)
    ]
    allrows = table([r for rows in blocks for r in rows])
    want = segsum.combine_arrays(
        {k: allrows[k].to_numpy() for k in "ab"},
        {v: allrows[v].to_numpy() for v in names[2:]},
        aggs,
    )
    assert all(o.schema == want.schema for o in outs)
    got = pa.concat_tables(outs).sort_by([("a", "ascending"), ("b", "ascending")])
    assert got.equals(want)


# --------------------------------------------------------------------------
# the route
# --------------------------------------------------------------------------


def test_route_by_measured_partial_rows(ray_session, monkeypatch):
    small = ray.data.from_arrow(pa.table({"k": np.arange(10, dtype=np.int64)}))
    _, blocks = segsum.held_blocks(small)
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 10)
    assert not segsum.route(blocks)
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 9)
    assert segsum.route(blocks)
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 0)
    # zero rows never distribute
    assert not segsum.route(segsum.held_blocks(small.limit(0))[1])


# --------------------------------------------------------------------------
# the sites
# --------------------------------------------------------------------------


def _events(sf_dir):
    return td.read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    ).repartition(8)


def _ints(sf_dir):
    """The lineitem cells plus small derived integer columns."""

    def f(b: pa.Table) -> pa.Table:
        k = b["cell_key"].to_numpy()
        for name, col in (
            ("v", b["val_cents"].to_numpy() // 100),
            ("cls", k % 3),
            ("k7", k % 7),
            ("y01", k % 2),
            ("p01", (k // 2) % 2),
        ):
            b = b.append_column(name, pa.array(col))
        return b

    return td.cells_from_lineitem(sf_dir).map_batches(f, batch_format="pyarrow")


def _raster(sf_dir, n: int = 24):
    """An n x n integer raster of 6 x 6 blocks labelled as components."""
    pid = np.arange(n * n, dtype=np.int64)
    row, col = np.divmod(pid, n)
    return ray.data.from_arrow(
        pa.table(
            {
                "pixel_id": pid,
                "row": row,
                "col": col,
                "value": (row // 6 + col // 6) % 3 + (pid % 5),
                "comp_label": (row // 6) * (n // 6) + col // 6,
            }
        )
    ).repartition(4)


def _edges(sf_dir, n: int = 200):
    u = np.repeat(np.arange(n, dtype=np.int64), 4)
    v = (u * 7 + np.tile(np.arange(1, 5), n) * 13) % n
    return ray.data.from_arrow(pa.table({"u": u, "v": v})).repartition(4)


def _docs(sf_dir):
    return td.read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["text"])


def _skewed(sf_dir):
    return ray.data.from_arrow(_skew_table(sf_dir)).repartition(8)


def _tab(*results) -> pa.Table:
    """Dict, array and tuple results as one row of exact reprs (a float
    repr round-trips), so equal tables mean bit-equal results."""

    def plain(x):
        if isinstance(x, np.ndarray):
            return x.tolist()
        return x.to_pydict() if isinstance(x, pa.Table) else x

    return pa.table({f"r{i}": [repr(plain(x))] for i, x in enumerate(results)})


def _points_tbl(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


class _StatsAgg:
    key_col = "k7"
    combine = {"n": "sum", "s": "sum", "mx": "max", "mn": "min"}

    def partial(self, batch: pa.Table) -> pa.Table:
        v = batch["v"].to_numpy()
        return segsum.combine_arrays(
            {"k7": batch["k7"].to_numpy()},
            {"n": np.ones(len(v), np.int64), "s": v, "mx": v, "mn": v},
            list(self.combine.values()),
        )

    def final(self, combined: pa.Table) -> pa.Table:
        return combined


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
    "class_separability": (
        _ints,
        lambda ds, sf: class_separability(ds, "cls", "v"),
    ),
    "zonal_winsorized_mean": (
        _ints,
        lambda ds, sf: zonal_winsorized_mean(ds, td.zones_from_part(sf), "qty"),
    ),
    "kmeans_cluster_exact": (
        _ints,
        lambda ds, sf: _tab(*kmeans_cluster_exact(ds, ["qty", "k7"], 3, 2, 51)[1:]),
    ),
    "hist_counts": (
        _ints,
        lambda ds, sf: _tab(_hist_counts(ds, ["qty", "k7"], "cls")),
    ),
    "class_counts": (_ints, lambda ds, sf: _tab(_class_counts(ds, "k7"))),
    "group_rank_thresholds": (
        _ints,
        lambda ds, sf: _tab(
            group_rank_thresholds(
                ds, "cls", "val_cents", "cell_key", {0: 5, 1: 40, 2: 0}
            )
        ),
    ),
    "band_dark_percentiles": (
        _ints,
        lambda ds, sf: _tab(band_dark_percentiles(ds, ["qty", "k7"], 0.01)),
    ),
    "joint_histogram_pmi": (
        _ints,
        lambda ds, sf: joint_histogram_pmi(ds, "qty", "k7", 51, 7),
    ),
    "histogram_emd": (
        _ints,
        lambda ds, sf: _tab(*histogram_emd(ds, "qty", "y01", 0, 1, 51)),
    ),
    "split_window_otsu": (
        _ints,
        lambda ds, sf: split_window_otsu(ds, "k7", "qty", 51),
    ),
    "global_histogram": (
        _ints,
        lambda ds, sf: _tab(global_histogram(ds, "qty", 51)),
    ),
    "binary_confusion": (
        _ints,
        lambda ds, sf: _tab(binary_confusion(ds, "y01", "p01")),
    ),
    "prob_score_histogram": (
        _ints,
        lambda ds, sf: _tab(prob_score_histogram(ds, "y01", "qty", 50)),
    ),
    "breusch_pagan": (
        _ints,
        lambda ds, sf: breusch_pagan(ds, "k7", "qty", range(7)),
    ),
    "semivariogram": (
        _ints,
        lambda ds, sf: semivariogram(ds, _points_tbl(ds), 2.0, 4, "qty"),
    ),
    "semivariogram_copart": (
        _ints,
        lambda ds, sf: semivariogram_copart(ds, 2.0, 4, "qty"),
    ),
    "slic_superpixels": (
        _raster,
        lambda ds, sf: _tab(slic_superpixels(ds, 24, 3, n_iters=2)[1]),
    ),
    "pagerank": (
        _edges,
        lambda ds, sf: pagerank(ds, np.arange(200), outdeg=4, iters=2),
    ),
    "reg_hist": (
        _ints,
        lambda ds, sf: _tab(
            _reg_hist(
                ds, ["qty", "k7"], "v", [51, 7], lambda xs: xs[1] % 2
            )
        ),
    ),
    "clump_sums": (
        _raster,
        lambda ds, sf: pa.Table.from_pandas(
            clump_sums(ds, ["value", "row"]), preserve_index=False
        ),
    ),
    "components_summary": (_raster, lambda ds, sf: components_summary(ds)),
    "event_retention": (_events, lambda ds, sf: event_retention(ds)),
    "confusion_dataset": (
        _ints,
        lambda ds, sf: confusion_dataset(ds, "cls", "k7"),
    ),
    "confusion_counts": (
        _ints,
        lambda ds, sf: _tab(confusion_counts(ds, "cls", "k7")),
    ),
    "bpe_pair_counts": (_docs, lambda ds, sf: bpe_pair_counts(ds)),
    "thin_by_cell": (
        td.points_from_orders,
        lambda ds, sf: thin_by_cell(ds, "pt_id", level=5),
    ),
    "apply_aggregator": (_ints, lambda ds, sf: apply_aggregator(ds, _StatsAgg())),
    "sortmerge_salt_plan": (
        _skewed,
        lambda ds, sf: spatial_join_points_sortmerge(
            ds, td.zones_from_part(sf), level=6, key_col="pt_row",
            salt_threshold=100,
        ),
    ),
}

# sites that combine more than once: one combine per iteration, plus
# kmeans' seed histogram; every other site combines exactly once
COMBINES = {"kmeans_cluster_exact": 2 + 1, "slic_superpixels": 2, "pagerank": 2}

# sites that run an all-to-all of their own (a join, map_groups, a sort)
OWN_SHUFFLE = {
    "semivariogram_copart",
    "bpe_pair_counts",
}


def _run_ops(call, src, sf_dir, monkeypatch):
    """Run one site and return (its result, as one table, names of the
    operators it executed, the number of combines that took the
    distributed route). Operators are read from the
    ``Dataset.stats()`` of every dataset it built, minus the input's
    own."""
    made, routes = [], []
    orig_init = ray.data.Dataset.__init__
    orig_route = segsum.route

    def spy(self, *a, **k):
        orig_init(self, *a, **k)
        made.append(self)

    def route_spy(blocks):
        out = orig_route(blocks)
        routes.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(ray.data.Dataset, "__init__", spy)
        m.setattr(segsum, "route", route_spy)
        out = call(src, sf_dir)
        tbl = _table(out)
    ops = set().union(*(_executed_ops(ds.stats()) for ds in made))
    ops -= _executed_ops(src.stats())
    return out, tbl, sorted(name for name, _ in ops), sum(routes)


ALL_TO_ALL = ("Sort", "Repartition", "RandomShuffle")


@pytest.mark.parametrize("site", list(SITES))
def test_distributed_route_equals_driver_route(
    ray_session, sf_dir, monkeypatch, site
):
    """Forced onto the distributed route, each site returns the default
    route's rows bit for bit (same schema, and for tables the same row
    order). The distributed route is taken exactly once per combine
    (:data:`COMBINES`) and adds no all-to-all and no ``MapGroups``: its
    split and reduce are plain tasks. Neither route runs an
    ``Aggregate``. Sites without a shuffle of their own run no
    all-to-all and no ``MapGroups`` at all."""
    make, call = SITES[site]
    src = make(sf_dir).materialize()
    raw, driver, ops_d, n_d = _run_ops(call, src, sf_dir, monkeypatch)
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 0)
    _, dist, ops_n, n_n = _run_ops(call, src, sf_dir, monkeypatch)
    assert driver.num_rows > 0
    assert driver.schema == dist.schema
    if isinstance(raw, pa.Table):
        assert driver.equals(dist)
    else:
        pd.testing.assert_frame_equal(_sorted(driver), _sorted(dist))
    assert (n_d, n_n) == (0, COMBINES.get(site, 1))
    a2a_d = [n for n in ops_d if n in ALL_TO_ALL or "MapGroups" in n]
    a2a_n = [n for n in ops_n if n in ALL_TO_ALL or "MapGroups" in n]
    assert a2a_n == a2a_d, (ops_d, ops_n)
    assert not any("Aggregate" in n for n in ops_d + ops_n), (ops_d, ops_n)
    if site not in OWN_SHUFFLE:
        assert a2a_d == [], ops_d


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

ZONES = "zones"  # one row per zone, each with its zero count or no-data fill

# case -> (input, call, expected schema, expected rows: ZONES or a
# number of all-zero rows)
EMPTY_CASES = {
    "build_pyramid_empty": (
        "empty",
        lambda ds, z: build_pyramid(ds, levels=2, value_col="val_cents"),
        [("level", I64), ("px", I64), ("py", I64), ("n_cells", I64),
         ("sum_val", I64), ("mean_val", F64)],
        0,
    ),
    "count_points_no_match": (
        "far",
        lambda ds, z: count_points_per_zone(ds, z),
        [("fid", I64), ("n_points", I64)],
        ZONES,
    ),
    "zonal_median_no_hits": (
        "far",
        lambda ds, z: zonal_stats(ds, z, "qty", stats=("median",)),
        [("fid", I64), ("median", F64)],
        ZONES,
    ),
    "zonal_moments_no_hits": (
        "far",
        lambda ds, z: zonal_stats(ds, z, "val_cents"),
        [("fid", I64), ("count", I64)] + [(s, F64) for s in MOMENT_STATS[1:]],
        ZONES,
    ),
    "zonal_moments_empty": (
        "empty",
        lambda ds, z: zonal_stats(ds, z, "val_cents"),
        [("fid", I64), ("count", I64)] + [(s, F64) for s in MOMENT_STATS[1:]],
        ZONES,
    ),
    "tumbling_windows_empty": (
        "empty",
        lambda ds, z: tumbling_windows(ds),
        [("user_id", I64), ("window_id", I64), ("n", I64), ("sum_cents", I64)],
        0,
    ),
    "tile_counts_empty": (
        "empty",
        lambda ds, z: tile_counts(ds, SPEC),
        [("tile_id", I64), ("n_rows", I64)],
        0,
    ),
    "global_histogram_empty": (
        "empty",
        lambda ds, z: pa.table({"n": global_histogram(ds, "qty", 5)}),
        [("n", I64)],
        5,
    ),
    "joint_histogram_pmi_empty": (
        "empty",
        lambda ds, z: joint_histogram_pmi(ds, "qty", "val_cents", 5, 5),
        [("val_a", I64), ("val_b", I64), ("cnt", I64), ("pmi_micro", I64)],
        0,
    ),
    "binary_confusion_empty": (
        "empty",
        lambda ds, z: pa.table(
            {k: [n] for k, n in binary_confusion(ds, "qty", "val_cents").items()}
        ),
        [("TP", I64), ("TA", I64), ("FP", I64), ("FA", I64)],
        1,
    ),
    "prob_score_histogram_empty": (
        "empty",
        lambda ds, z: pa.table(
            {"h": prob_score_histogram(ds, "qty", "val_cents", 4).ravel()}
        ),
        [("h", I64)],
        10,
    ),
    "breusch_pagan_empty": (
        "empty",
        lambda ds, z: breusch_pagan(ds, "qty", "val_cents", range(5)),
        [("n", I64), ("lm_stat", F64), ("aux_r2", F64)],
        0,
    ),
    "band_dark_percentiles_empty": (
        "empty",
        lambda ds, z: pa.table(
            {
                c: [p]
                for c, p in band_dark_percentiles(
                    ds, ["qty", "val_cents"], 0.01
                ).items()
            }
        ),
        [("qty", I64), ("val_cents", I64)],
        1,
    ),
    "clump_sums_empty": (
        "empty",
        lambda ds, z: pa.Table.from_pandas(
            clump_sums(ds, ["qty"], label_col="pt_id"), preserve_index=False
        ),
        [("pt_id", I64), ("n", I64), ("sum_qty", I64)],
        0,
    ),
    "thin_by_cell_empty": (
        "empty",
        lambda ds, z: thin_by_cell(ds, "pt_id", level=5),
        [("pt_id", I64), ("x", F64), ("y", F64), ("val_cents", I64),
         ("qty", I64)],
        0,
    ),
    "class_separability_empty": (
        "empty",
        lambda ds, z: class_separability(ds, "qty", "val_cents"),
        [("class_a", I64), ("class_b", I64), ("bhattacharyya", F64),
         ("jm_distance", F64)],
        0,
    ),
}


@pytest.mark.parametrize("threshold", [None, 0], ids=["default", "forced"])
@pytest.mark.parametrize("case", list(EMPTY_CASES))
def test_empty_and_no_match_inputs_give_typed_results(
    ray_session, sf_dir, monkeypatch, case, threshold
):
    """Empty inputs and inputs with no match keep each site's normal
    typed result: zone-bounded tables list every zone with its zero
    count or ``out_no_data``; histograms and counts are all zero; the
    others have zero rows. With no partial rows the route is the driver
    at any threshold, so the forced run also covers the typed kernel on
    zero rows."""
    if threshold is not None:
        monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", threshold)
    kind, call, schema, rows = EMPTY_CASES[case]
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
    fill = 0
    if rows == ZONES:
        assert out["fid"].to_pylist() == sorted(zones["fid"].to_pylist())
        out = out.drop_columns(["fid"])
        fill = 0 if case.startswith("count_points") else NO_DATA
    else:
        assert out.num_rows == rows
    assert (out.to_pandas() == fill).all(axis=None)
