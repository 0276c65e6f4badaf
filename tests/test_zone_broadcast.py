"""A zone layer is packed and indexed once per Ray session.

``broadcast_zones`` memoizes its ref by table content, and the ZoneSet
it puts carries its prebuilt index and the index's interior / boundary
split (``cover``). These tests pin the build counts,
the one-shape rule of the per-process cache, the memo's lifetime, and
that ``zonal_stats``'s two combine routes agree.
"""

import gc
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages import segsum, spatial_join
from rsgislib_ray.stages.spatial_join import (
    ZoneSet,
    broadcast_zones,
    spatial_join_points,
)
from rsgislib_ray.stages.zonal import MOMENT_STATS, zonal_stats
from rsgislib_ray.state.broadcast import cached
from rsgislib_ray.state.strtree import CellBucketIndex

NO_DATA = -9999.0


def _zones(seed: int, n: int = 300) -> pa.Table:
    """Integer-cornered rectangles over [0, 60)^2, with a name column."""
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, 50, n).astype(np.float64)
    y0 = rng.integers(0, 50, n).astype(np.float64)
    x1 = x0 + rng.integers(1, 10, n)
    y1 = y0 + rng.integers(1, 10, n)
    ring = np.column_stack([x0, y0, x1, y0, x1, y1, x0, y1])
    return pa.table(
        {
            "fid": pa.array(np.arange(n, dtype=np.int64) * 2 + 1),
            "ring_xy": pa.FixedSizeListArray.from_arrays(pa.array(ring.ravel()), 8),
            "name": pa.array([f"z{i}" for i in range(n)]),
        }
    )


def _cells(seed: int, n: int = 2000) -> pa.Table:
    """Points on a 0.01 lattice shifted by 0.005 (never on a zone edge)
    with signed integer values."""
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "cell_key": np.arange(n, dtype=np.int64),
            "x": rng.integers(0, 6000, n) / 100.0 + 0.005,
            "y": rng.integers(0, 6000, n) / 100.0 + 0.005,
            "val": rng.integers(-1000, 1000, n),
        }
    )


def _ds(cells: pa.Table) -> ray.data.Dataset:
    return ray.data.from_arrow([cells.slice(0, 700), cells.slice(700)])


def _inside(cells: pa.Table, zones: pa.Table) -> np.ndarray:
    """(points x zones) containment, brute force over the rectangles."""
    b = ZoneSet.from_table(zones).bounds
    x = cells["x"].to_numpy()[:, None]
    y = cells["y"].to_numpy()[:, None]
    return (x > b[:, 0]) & (x < b[:, 1]) & (y > b[:, 2]) & (y < b[:, 3])


def _brute_moments(cells: pa.Table, zones: pa.Table) -> pd.DataFrame:
    """zonal_stats' moment table, one zone at a time, with its float
    expressions."""
    inside = _inside(cells, zones)
    v = cells["val"].to_numpy().astype(np.int64)
    rows = []
    for z, fid in enumerate(zones["fid"].to_numpy()):
        vals = v[inside[:, z]]
        if len(vals) == 0:
            rows.append((fid, -9999, *[NO_DATA] * 5))
            continue
        m = float(len(vals))
        s = float(vals.sum())
        var = float((vals * vals).sum()) / m - (s / m) * (s / m)
        std = np.sqrt(var) if var >= 0 else NO_DATA
        rows.append((fid, len(vals), s, float(vals.min()), float(vals.max()), s / m, std))
    return pd.DataFrame(rows, columns=["fid", *MOMENT_STATS]).astype(
        {"fid": np.int64, "count": np.int64}
    )


def _brute_pairs(cells: pa.Table, zones: pa.Table) -> list[tuple[int, int]]:
    pi, zi = np.nonzero(_inside(cells, zones))
    keys = cells["cell_key"].to_numpy()[pi]
    return sorted(zip(keys.tolist(), zones["fid"].to_numpy()[zi].tolist()))


def _pairs(joined: ray.data.Dataset) -> list[tuple[int, int]]:
    df = joined.to_pandas()
    return sorted(zip(df["cell_key"].tolist(), df["fid"].tolist()))


def _check_zonal(cells: pa.Table, zones: pa.Table, **kw) -> None:
    got = zonal_stats(_ds(cells), zones, "val", **kw).to_pandas()
    pd.testing.assert_frame_equal(got, _brute_moments(cells, zones), check_exact=True)


def test_bare_and_indexed_readers_share_one_ref(ray_session):
    """One ref read as a bare ZoneSet (the registry's ``cached(ref)``
    partials) and then by zonal_stats and spatial_join_points: every
    reader gets the same shape, with the index and its split already
    built."""
    zones, cells = _zones(61), _cells(62)
    ref = broadcast_zones(zones)

    def bare(batch: pa.Table) -> pa.Table:
        zs = cached(ref)
        prebuilt = "index" in vars(zs) and "cover" in vars(zs)
        b = zs.bounds
        x = batch["x"].to_numpy()[:, None]
        y = batch["y"].to_numpy()[:, None]
        hits = (x > b[:, 0]) & (x < b[:, 1]) & (y > b[:, 2]) & (y < b[:, 3])
        return pa.table({"n": [int(hits.sum())], "prebuilt": [prebuilt]})

    got = _ds(cells).map_batches(bare, batch_format="pyarrow").to_pandas()
    assert got["prebuilt"].all()
    assert got["n"].sum() == int(_inside(cells, zones).sum())

    _check_zonal(cells, zones)
    assert _pairs(spatial_join_points(_ds(cells), zones)) == _brute_pairs(cells, zones)
    assert broadcast_zones(zones) is ref


def test_equal_zone_tables_build_one_index(ray_session, monkeypatch):
    builds = []
    splits = []
    build_index = ZoneSet.build_index
    split = CellBucketIndex.split

    def counting(self):
        builds.append(len(self))
        return build_index(self)

    def counting_split(self, bounds, eligible):
        splits.append(len(bounds))
        return split(self, bounds, eligible)

    monkeypatch.setattr(ZoneSet, "build_index", counting)
    monkeypatch.setattr(CellBucketIndex, "split", counting_split)
    zones, cells = _zones(71), _cells(72)
    # equal content, built anew and chunked differently
    twin = pa.Table.from_batches(_zones(71).to_batches(max_chunksize=70))
    assert twin is not zones and twin.equals(zones)

    _check_zonal(cells, zones)
    _check_zonal(cells, twin)
    assert _pairs(spatial_join_points(_ds(cells), twin)) == _brute_pairs(cells, zones)
    assert len(builds) == 1
    assert len(splits) == 1

    # one ring coordinate moved: a different layer, a new index
    ring = zones["ring_xy"].combine_chunks().flatten().to_numpy().copy()
    ring[2] += 1.0  # first zone's xmax corner
    ring[4] += 1.0
    moved = zones.set_column(
        1, "ring_xy", pa.FixedSizeListArray.from_arrays(pa.array(ring), 8)
    )
    _check_zonal(cells, moved)
    assert len(builds) == 2
    assert len(splits) == 2

    # the same layer with an attribute column: a new ZoneSet and index
    joined = spatial_join_points(_ds(cells), zones, attr_cols=["name"]).to_pandas()
    assert len(builds) == 3
    names = dict(zip(zones["fid"].to_pylist(), zones["name"].to_pylist()))
    assert (joined["name"] == joined["fid"].map(names)).all()


def test_zonal_driver_combine_equals_native(ray_session, monkeypatch):
    """The driver route and the distributed route (forced with
    ``AUTO_NATIVE_ROWS = 0``) return bit-identical tables: negative
    values, empty zones filled with ``out_no_data``, and two zones
    sharing one fid."""
    zones, cells = _zones(81, n=200), _cells(82)
    fid = zones["fid"].to_numpy().copy()
    fid[5] = fid[4]
    far = np.array([500.0, 500.0, 501.0, 500.0, 501.0, 501.0, 500.0, 501.0])
    ring = zones["ring_xy"].combine_chunks().flatten().to_numpy().copy()
    ring[8 * 7 : 8 * 8] = far  # a zone no point reaches
    zones = pa.table(
        {
            "fid": pa.array(fid),
            "ring_xy": pa.FixedSizeListArray.from_arrays(pa.array(ring), 8),
        }
    )
    driver = zonal_stats(_ds(cells), zones, "val")
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 0)
    native = zonal_stats(_ds(cells), zones, "val")
    assert driver.equals(native)
    df = driver.to_pandas()
    assert (df["min"] < 0).any()
    assert (df.loc[df["fid"] == fid[7], list(MOMENT_STATS)] == NO_DATA).all(axis=None)
    dup = df[df["fid"] == fid[4]]
    assert len(dup) == 2 and dup.iloc[0].equals(dup.iloc[1])


def test_memo_does_not_outlive_the_ray_session(ray_session):
    zones, cells = _zones(91), _cells(92)
    _check_zonal(cells, zones)
    old = broadcast_zones(zones)
    ray.shutdown()
    # restart the way the session fixture starts Ray
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    _check_zonal(cells, zones)
    new = broadcast_zones(zones)
    assert new is not old
    assert ray.get(new).fid.tolist() == zones["fid"].to_pylist()


def test_digest_memo_per_table_object(ray_session, monkeypatch):
    """The content digest is computed once per table object and attr
    column list; the entry goes when its table is collected, and an
    equal table built anew still gets the same ref."""
    digests = []
    blake2b = hashlib.blake2b

    def counting(*a, **k):
        digests.append(1)
        return blake2b(*a, **k)

    monkeypatch.setattr(hashlib, "blake2b", counting)
    zones = _zones(111)
    ref = broadcast_zones(zones)
    assert broadcast_zones(zones) is ref
    assert len(digests) == 1
    named = broadcast_zones(zones, ["name"])
    assert named is not ref and len(digests) == 2
    assert broadcast_zones(zones, ["name"]) is named and len(digests) == 2

    key = (id(zones), ())
    assert key in spatial_join._DIGESTS
    del zones
    gc.collect()
    assert key not in spatial_join._DIGESTS
    assert (key[0], ("name",)) not in spatial_join._DIGESTS
    assert broadcast_zones(_zones(111)) is ref
    assert len(digests) == 3
