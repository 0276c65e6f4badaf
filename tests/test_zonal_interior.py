"""The zonal partial over interior cells equals the pair path.

``_moment_partial`` aggregates each occupied interior cell once and
probes only the boundary entries per point. The reference below is the
pair path it replaced: every candidate pair of the whole index refined
by ``match_points`` and scattered pair by pair. The layers aim at the
split's edges: zone corners on cell lines, points on zone and cell
edges and one ulp either side, large coordinate offsets, zero-width
zones, zones smaller than a cell, triangles, NaN and out-of-frame
points, and empty and one-row blocks.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rsgislib_ray.functions.arrayops import expand
from rsgislib_ray.stages.spatial_join import ZoneSet
from rsgislib_ray.stages.zonal import _moment_partial, _value_count_partial

I64 = np.iinfo(np.int64)


def _pair_partial(zs: ZoneSet, batch: pa.Table) -> pa.Table:
    """One partial row per zone touched, from every (point, zone)
    match of the full index."""
    px, py = batch["x"].to_numpy(), batch["y"].to_numpy()
    v = batch["val"].to_numpy().astype(np.int64)
    pi, zi = zs.match_points(zs.index, px, py)
    nz = len(zs)
    cnt = np.bincount(zi, minlength=nz)
    acc = {"sum_v": np.zeros(nz, np.int64), "sumsq_v": np.zeros(nz, np.int64)}
    np.add.at(acc["sum_v"], zi, v[pi])
    np.add.at(acc["sumsq_v"], zi, v[pi] * v[pi])
    mn = np.full(nz, I64.max)
    mx = np.full(nz, I64.min)
    np.minimum.at(mn, zi, v[pi])
    np.maximum.at(mx, zi, v[pi])
    hit = np.flatnonzero(cnt)
    return pa.table(
        {
            "fid": zs.fid[hit],
            "cnt": cnt[hit].astype(np.int64),
            "sum_v": acc["sum_v"][hit],
            "sumsq_v": acc["sumsq_v"][hit],
            "min_v": mn[hit],
            "max_v": mx[hit],
        }
    )


def _layer(rng, n_zones: int, unit: float, off: float, tri: float, flat: float):
    """Zones with corners on a ``unit`` lattice over a 64-unit frame
    shifted by ``off``: mostly rectangles 1-12 units wide (so the index
    lands near one cell per unit and corners fall on cell lines), some
    smaller than a cell, a share of triangles and of zero-width
    rectangles. Two corner zones pin the frame."""
    rings = []
    corners = [(0, 0, 1, 1), (63, 63, 64, 64)]
    for k in range(n_zones):
        x0, y0 = rng.integers(0, 60, 2)
        w, h = rng.integers(1, 13, 2)
        corners.append((x0, y0, min(x0 + w, 64), min(y0 + h, 64)))
    for k, (x0, y0, x1, y1) in enumerate(corners):
        x0, y0, x1, y1 = (off + unit * c for c in (x0, y0, x1, y1))
        r = rng.random()
        if k >= 2 and r < tri:
            rings.append([x0, y0, x1, y0, x0, y1])
        elif k >= 2 and r < tri + flat:
            rings.append([x0, y0, x0, y0, x0, y1, x0, y1])
        elif k >= 2 and r < tri + flat + 0.1:
            # a sliver inside one unit cell
            q = unit / 4
            rings.append([x0 + q, y0 + q, x0 + 2 * q, y0 + q,
                          x0 + 2 * q, y0 + 3 * q, x0 + q, y0 + 3 * q])
        else:
            rings.append([x0, y0, x1, y0, x1, y1, x0, y1])
    lens = [len(r) for r in rings]
    tbl = pa.table(
        {
            "fid": pa.array(np.arange(len(rings), dtype=np.int64) * 3 + 1),
            "ring_xy": pa.ListArray.from_arrays(
                pa.array(np.concatenate([[0], np.cumsum(lens)]), pa.int32()),
                pa.array(np.concatenate(rings).astype(np.float64)),
            ),
        }
    )
    return ZoneSet.from_table(tbl)


def _points(rng, zs: ZoneSet, n: int, unit: float, off: float) -> pa.Table:
    """Points on zone corners and edges (exact and one ulp either
    side), on cell lines, uniform in the frame, out of frame and NaN."""
    idx = zs.index
    b = zs.bounds
    z = rng.integers(0, len(zs), n)
    kind = rng.integers(0, 6, n)
    x = np.where(rng.random(n) < 0.5, b[z, 0], b[z, 1])
    y = np.where(rng.random(n) < 0.5, b[z, 2], b[z, 3])
    # on a cell line of the index grid
    cl = kind == 1
    x[cl] = idx.x0 + idx.cw * rng.integers(0, idx.n_side + 1, cl.sum())
    y[cl] = idx.y0 + idx.ch * rng.integers(0, idx.n_side + 1, cl.sum())
    uni = kind == 2
    x[uni] = off + unit * rng.uniform(-2, 66, uni.sum())
    y[uni] = off + unit * rng.uniform(-2, 66, uni.sum())
    # one ulp either side of whatever was drawn
    step = rng.integers(-1, 2, (2, n))
    x = np.where(step[0] < 0, np.nextafter(x, -np.inf), x)
    x = np.where(step[0] > 0, np.nextafter(x, np.inf), x)
    y = np.where(step[1] < 0, np.nextafter(y, -np.inf), y)
    y = np.where(step[1] > 0, np.nextafter(y, np.inf), y)
    x[kind == 3] = np.nan
    y[kind == 4] = off - 100 * unit
    return pa.table({"x": x, "y": y, "val": rng.integers(-1000, 1000, n)})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_zones=st.integers(0, 120),
    n_points=st.sampled_from([0, 1, 2, 37, 400]),
    unit=st.sampled_from([1.0, 0.1, 0.37, 1e-3, 25.0]),
    off=st.sampled_from([0.0, -1234.5, 3.3e6, 7e7]),
    tri=st.sampled_from([0.0, 0.3]),
    flat=st.sampled_from([0.0, 0.2]),
    chunk=st.sampled_from([ZoneSet.MATCH_CHUNK, 7]),
)
def test_moment_partial_equals_pair_path(
    seed, n_zones, n_points, unit, off, tri, flat, chunk
):
    rng = np.random.default_rng(seed)
    zs = _layer(rng, n_zones, unit, off, tri, flat)
    zs.MATCH_CHUNK = chunk
    batch = _points(rng, zs, n_points, unit, off)
    got = _moment_partial(batch, zones_ref=zs)
    assert got.equals(_pair_partial(zs, batch))

    px, py = batch["x"].to_numpy(), batch["y"].to_numpy()
    order, starts, cell, zone = zs.cell_groups(px, py)
    inner, edge = zs.cover
    # the split partitions the index; only rectangles have interior cells
    assert len(inner.item_of) + len(edge.item_of) == len(zs.index.item_of)
    assert zs.is_rect[inner.item_of].all()
    # every point of an interior cell passes its zone's half-open test
    k, j = expand(np.diff(starts, append=len(order))[cell])
    p, b = order[starts[cell[k]] + j], zs.bounds[zone[k]]
    assert ((px[p] >= b[:, 0]) & (px[p] < b[:, 1])).all()
    assert ((py[p] >= b[:, 2]) & (py[p] < b[:, 3])).all()
    # the work bound: never more than the pair path's candidates
    assert len(zone) + len(edge.query_points(px, py)[0]) <= len(
        zs.index.query_points(px, py)[0]
    )


@pytest.mark.parametrize("partial", [_moment_partial, _value_count_partial])
def test_partials_refuse_values_that_are_not_int64(partial):
    """A value that does not cast to int64 exactly (a fraction, NaN, a
    null, beyond int64) raises a ValueError naming the column instead of
    being truncated; integral floats give the integer column's partial."""
    rng = np.random.default_rng(3)
    zs = _layer(rng, 40, 1.0, 0.0, 0.2, 0.0)
    batch = _points(rng, zs, 300, 1.0, 0.0)
    want = partial(batch, zones_ref=zs)
    assert want.num_rows > 0
    as_float = batch.set_column(2, "val", pa.array(batch["val"].to_numpy() * 1.0))
    assert partial(as_float, zones_ref=zs).equals(want)
    v = batch["val"].to_numpy()
    for bad in (
        pa.array(np.append(v[:-1] * 1.0, 3.7)),
        pa.array(np.append(v[:-1] * 1.0, np.nan)),
        pa.array([*v[:-1].tolist(), None], pa.int64()),
        pa.array(np.append(v[:-1] * 1.0, 2.0**63)),
        pa.array(np.append(v[:-1], 2**63).astype(np.uint64)),
    ):
        with pytest.raises(ValueError, match="'val'"):
            partial(batch.set_column(2, "val", bad), zones_ref=zs)
