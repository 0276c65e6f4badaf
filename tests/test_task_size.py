"""Task size from held metadata: the partition rule
(``partition.default_partitions``), the grouping of adjacent small
blocks into one task (``partition.bundles``), a differential test that
the engine's shuffles return the same rows whatever the partition count
and the grouping, and one that every ``map_blocks`` site gives the same
rows bundled as with one task per block."""

import ast
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rsgislib_ray.stages import partition, segsum
from rsgislib_ray.stages.spatial_join import JOIN_HOWS, spatial_join_points_sortmerge

PKG = Path(__file__).resolve().parents[1] / "rsgislib_ray"

SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@given(
    rows=st.integers(0, 10**12),
    more=st.integers(0, 10**12),
    cpus=st.integers(1, 512),
)
def test_partition_rule(rows, more, cpus):
    """``1 <= P <= cpus``; P never falls as the rows grow; one partition
    at or below ``TASK_ROWS`` rows, and one per ``TASK_ROWS`` rows,
    rounded up, below the CPU count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "cluster_cpus", lambda: cpus)
        p = partition.default_partitions(rows)
        assert 1 <= p <= cpus
        assert partition.default_partitions(rows + more) >= p
        if rows <= partition.TASK_ROWS:
            assert p == 1
        if p < cpus:
            assert p == max(1, -(-rows // partition.TASK_ROWS))


@given(
    sizes=st.lists(st.integers(0, 40), max_size=30),
    task_rows=st.integers(1, 60),
)
def test_bundles_are_greedy_runs_of_adjacent_blocks(sizes, task_rows):
    """The groups hold every non-empty block once, in order; a group of
    several blocks holds at most ``TASK_ROWS`` rows, and no group could
    take the next group's first block."""
    blocks = [(i, SimpleNamespace(num_rows=n)) for i, n in enumerate(sizes)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "TASK_ROWS", task_rows)
        groups = partition.bundles(blocks)
    assert [i for g in groups for i in g] == [i for i, n in enumerate(sizes) if n]
    rows = [sum(sizes[i] for i in g) for g in groups]
    for g, r in zip(groups, rows):
        assert r <= task_rows or len(g) == 1
    for r, nxt in zip(rows, groups[1:]):
        assert r + sizes[nxt[0]] > task_rows


def _blocks(draw, n: int, cols) -> list[pa.Table]:
    """``n`` rows of the columns ``cols`` (name -> row strategy) cut
    into drawn blocks, zero-row ones included."""
    t = pa.table({c: pa.array([draw(s) for _ in range(n)], pa.int64()) for c, s in cols.items()})
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    edges = [0, *cuts, n]
    return [t.slice(a, b - a) for a, b in zip(edges[:-1], edges[1:])]


@st.composite
def _case(draw):
    """Two keyed sides, points and zones, and a task size: small ones
    group few blocks, the default groups them all."""
    key = st.integers(-4, 12)
    val = st.integers(-1000, 1000)
    left = _blocks(draw, draw(st.integers(0, 60)), {"k": key, "v": val})
    right = _blocks(draw, draw(st.integers(0, 40)), {"rk": key, "w": val})
    n_pts = draw(st.integers(1, 120))
    coord = st.integers(0, 3999)
    pts = _blocks(draw, n_pts, {"pt_row": st.integers(0, 10**6), "qx": coord, "qy": coord})
    n_z = draw(st.integers(1, 12))
    zones = []
    for fid in range(n_z):
        x0, y0 = draw(st.integers(0, 90)), draw(st.integers(0, 90))
        w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        zones.append((fid, [x0, y0, x0 + w, y0, x0 + w, y0 + h, x0, y0 + h]))
    task_rows = draw(st.sampled_from([1, 7, partition.TASK_ROWS]))
    return left, right, pts, zones, task_rows, draw(st.sampled_from(JOIN_HOWS))


def _points(blocks: list[pa.Table]) -> ray.data.Dataset:
    """Point blocks on a 0.025 lattice shifted off every integer zone edge."""
    out = []
    for b in blocks:
        x = b["qx"].to_numpy() / 40.0 + 0.0125
        y = b["qy"].to_numpy() / 40.0 + 0.0125
        out.append(pa.table({"pt_row": b["pt_row"], "x": x, "y": y}))
    return ray.data.from_arrow(out)


def _zones(zones: list) -> pa.Table:
    ring = np.array([r for _, r in zones], dtype=np.float64)
    return pa.table(
        {
            "fid": pa.array([f for f, _ in zones], pa.int64()),
            "ring_xy": pa.FixedSizeListArray.from_arrays(pa.array(ring.ravel()), 8),
        }
    )


def _sorted_rows(t: pa.Table) -> list[tuple]:
    return sorted(zip(*(c.to_pylist() for c in t.columns)))


def _group_summary(t: pa.Table) -> pa.Table:
    """One row per key: its row count, value sum and an order-sensitive
    checksum of its values in the order the call sees them."""
    v = t["v"].to_numpy()
    pos = np.arange(1, len(v) + 1, dtype=np.int64)
    return pa.table(
        {
            "k": t["k"].slice(0, 1),
            "n": pa.array([len(v)], pa.int64()),
            "s": pa.array([int(v.sum())], pa.int64()),
            "o": pa.array([int((v * pos).sum())], pa.int64()),
        }
    )


def _run_all(left, right, pts, zones, how) -> dict:
    """Each shuffle's output rows, sorted."""
    lds, rds = ray.data.from_arrow(left), ray.data.from_arrow(right)
    out = {}
    for jhow in ("inner", "left_outer"):
        j = partition.join(lds, rds, "k", how=jhow, right_on="rk")
        out[jhow] = _sorted_rows(pa.concat_tables(ray.get(j.to_arrow_refs())))
    g = partition.group_apply(lds, "k", _group_summary)
    out["group_apply"] = _sorted_rows(pa.concat_tables(ray.get(g.to_arrow_refs())))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segsum, "AUTO_NATIVE_ROWS", -1)
        s = segsum.combine(partition.held_blocks(lds)[1], "k", ["v"])
    out["segsum"] = _sorted_rows(s)
    sm = spatial_join_points_sortmerge(
        _points(pts), _zones(zones), level=6, key_col="pt_row", how=how, salt_threshold=3
    )
    out["sortmerge"] = _sorted_rows(pa.concat_tables(ray.get(sm.to_arrow_refs())))
    return out


@SLOW
@given(case=_case())
def test_shuffles_equal_at_every_partition_count(ray_session, case):
    """``partition.join`` (inner and left outer), ``group_apply``, the
    distributed ``segsum`` route and ``spatial_join_points_sortmerge``
    return the same rows with P forced to 1, 2, 3, 5 and 8, and with
    blocks grouped one to a task or many."""
    left, right, pts, zones, task_rows, how = case
    got = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "TASK_ROWS", task_rows)
        for p in (1, 2, 3, 5, 8):
            mp.setattr(partition, "default_partitions", lambda rows, p=p: p)
            got[p] = _run_all(left, right, pts, zones, how)
    for p in (2, 3, 5, 8):
        assert got[p] == got[1], p
    # the driver kernel agrees with the distributed combine
    t = pa.concat_tables(left)
    want = segsum.combine_arrays({"k": t["k"].to_numpy()}, {"v": t["v"].to_numpy()})
    assert got[1]["segsum"] == _sorted_rows(want)


# Every map_blocks / map_refs call site in the package, by (file,
# enclosing function), and registry queries that reach all of that
# function's sites at sf0.001 (found with a profile hook over the 440
# queries).
SITE_QUERIES = {
    ("ops.py", "apply_aggregator"): ["udf_op_pipeline"],
    ("pipelines/queries.py", "q_zonal_cat_proportions"): ["zonal_cat_proportions"],
    ("stages/calibration.py", "band_dark_percentiles"): ["calib_dos"],
    ("stages/classaccuracy.py", "_pair_partials"): ["class_accuracy_global"],
    ("stages/classify.py", "_class_counts"): ["class_oversample"],
    ("stages/classify.py", "_hist_counts"): ["class_hist_tree"],
    ("stages/classify.py", "group_rank_thresholds"): ["class_oversample"],
    ("stages/events.py", "event_retention"): ["event_retention"],
    ("stages/events.py", "tumbling_windows"): ["event_windows"],
    ("stages/geostat.py", "semivariogram"): ["semivariogram_broadcast"],
    ("stages/graph.py", "pagerank"): ["pagerank_knn"],
    ("stages/imagestats.py", "global_histogram"): ["hist_nbins"],
    ("stages/imagestats.py", "histogram_emd"): ["histogram_emd"],
    ("stages/imagestats.py", "joint_histogram_pmi"): ["mutual_info_pmi"],
    ("stages/imagestats.py", "split_window_otsu"): ["split_window_otsu"],
    ("stages/polygonize.py", "components_summary"): ["clump_summary"],
    ("stages/raster.py", "build_pyramid"): ["raster_pyramid"],
    ("stages/regress.py", "_reg_hist"): ["regress_tree"],
    ("stages/sampling.py", "thin_by_cell"): ["thin_points"],
    ("stages/scores.py", "binary_confusion"): ["binary_score_panel"],
    ("stages/scores.py", "breusch_pagan"): ["breusch_pagan"],
    ("stages/scores.py", "prob_score_histogram"): ["prob_score_panel"],
    ("stages/segmentation.py", "clump_sums"): ["merge_selected_clumps"],
    ("stages/slic.py", "slic_superpixels"): ["slic_superpixels"],
    ("stages/spatial_join.py", "_cell_histogram"): ["spatial_join_skew"],
    ("stages/spatial_join.py", "count_points_per_zone"): ["pip_count"],
    ("stages/text.py", "bpe_pair_counts"): ["bpe_pair_counts"],
    ("stages/tiling.py", "tile_counts"): ["tile_counts"],
    ("stages/zonal.py", "class_separability"): ["separability_jm"],
    ("stages/zonal.py", "kmeans_cluster_exact"): ["cluster_sample_apply"],
    ("stages/zonal.py", "zonal_stats"): ["zonal_stats_fallback", "zonal_mode_median"],
    ("stages/zonal.py", "zonal_winsorized_mean"): ["zonal_winsorized"],
}
MAPS = {"map_blocks", "map_refs"}


def _call_sites() -> set[tuple[str, str]]:
    """(file, enclosing function) of every ``map_blocks`` /
    ``map_refs`` call in the package outside ``partition.py``."""
    found = set()
    for path in PKG.rglob("*.py"):
        if path.name == "partition.py":
            continue
        rel = path.relative_to(PKG).as_posix()

        def visit(node, fn_name):
            for child in ast.iter_child_nodes(node):
                name = fn_name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = child.name if fn_name is None else fn_name
                if isinstance(child, ast.Call):
                    f = child.func
                    called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if called in MAPS:
                        found.add((rel, fn_name))
                visit(child, name)

        visit(ast.parse(path.read_text()), None)
    return found


def test_site_table_names_every_call_site():
    """A new ``map_blocks`` caller needs a row in ``SITE_QUERIES``, so
    the differential test below runs it."""
    assert _call_sites() == set(SITE_QUERIES)


def _reached(fn):
    """``fn()`` and the (file, function) of each call it made into
    ``map_blocks`` or ``map_refs`` from outside ``partition.py``."""
    codes = {partition.map_blocks.__code__, partition.map_refs.__code__}
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            code = frame.f_back.f_code
            if Path(code.co_filename).name != "partition.py":
                rel = Path(code.co_filename).resolve().relative_to(PKG).as_posix()
                # the outermost def around the call, as _call_sites names it
                seen.add((rel, code.co_qualname.split(".")[0]))

    sys.setprofile(hook)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, seen


@pytest.mark.parametrize("name", sorted({q for qs in SITE_QUERIES.values() for q in qs}))
def test_sites_equal_bundled_and_one_task_per_block(ray_session, sf_dir, name, monkeypatch):
    """Each ``map_blocks`` site gives the same rows with small blocks
    bundled (the default ``TASK_ROWS``) as with one task per block
    (``TASK_ROWS = 1``), and the query still reaches the sites it is
    listed for."""
    from rsgislib_ray.pipelines import queries as qmod
    from tests.test_oracle_parity import _normalize, _to_df

    fn = qmod.queries()[name]
    bundled, seen = _reached(lambda: _normalize(_to_df(fn(sf_dir))))
    assert {s for s, qs in SITE_QUERIES.items() if name in qs} <= seen
    monkeypatch.setattr(partition, "TASK_ROWS", 1)
    one_each = _normalize(_to_df(fn(sf_dir)))
    pd.testing.assert_frame_equal(bundled, one_each)
