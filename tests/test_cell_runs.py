"""The cell-run table of the grid-bucket index against brute force.

``CellBucketIndex`` keeps one item id per entry and a run table over
its occupied cells; a cell key's entries are found with one
``searchsorted`` over that table (``arrayops.run_lookup``). The
references below keep what the table replaced: every entry's cell key,
built with Python loops, searched twice (left and right) per key. The
refine of ``ZoneSet.match_points`` is checked against the pair path it
replaced (gather the candidates' coordinates, compress by a mask) on
rectangle and triangle layers.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rsgislib_ray.functions.arrayops import run_lookup, run_table
from rsgislib_ray.functions.geom import pip_pairs, rect_ring
from rsgislib_ray.stages.spatial_join import ZoneSet
from rsgislib_ray.state.strtree import CellBucketIndex

FRAME = (0.0, 0.0, 64.0, 64.0)


def _two_searchsorted(sorted_key, key):
    lo = np.searchsorted(sorted_key, key, side="left")
    hi = np.searchsorted(sorted_key, key, side="right")
    return lo, hi - lo


def _entries(bounds, level):
    """Every (cell key, item) entry over ``FRAME`` at ``level``, by
    Python loops, ordered by a stable sort on the key."""
    n = 1 << level
    cw = FRAME[2] / n
    keys, items = [], []
    for j, (xmin, xmax, ymin, ymax) in enumerate(bounds):
        c0, c1 = (min(max(int(np.floor(v / cw)), 0), n - 1) for v in (xmin, xmax))
        r0, r1 = (min(max(int(np.floor(v / cw)), 0), n - 1) for v in (ymin, ymax))
        for r in range(r0, r1 + 1):
            for c in range(c0, c1 + 1):
                keys.append(r * n + c)
                items.append(j)
    keys = np.array(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    return keys[order], np.array(items, dtype=np.int64)[order]


@st.composite
def _bounds(draw):
    """Up to 12 boxes over ``FRAME``, at most about four cells wide, so
    the entry count stays small at every level."""
    level = draw(st.integers(0, 12))
    cw = FRAME[2] / (1 << level)
    n = draw(st.integers(0, 12))
    rows = []
    for _ in range(n):
        x0 = draw(st.floats(0, FRAME[2], allow_nan=False))
        y0 = draw(st.floats(0, FRAME[3], allow_nan=False))
        w = draw(st.floats(0, 4 * cw, allow_nan=False))
        h = draw(st.floats(0, 4 * cw, allow_nan=False))
        rows.append((x0, min(x0 + w, FRAME[2]), y0, min(y0 + h, FRAME[3])))
    return level, np.array(rows, dtype=np.float64).reshape(-1, 4)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-5, 40), max_size=60),
    st.lists(st.integers(-10, 50), max_size=30),
)
def test_run_lookup_equals_two_searchsorted(raw, key):
    """Duplicated, gapped and empty key arrays, and keys below, above
    and between their runs."""
    sorted_key = np.sort(np.array(raw, dtype=np.int64))
    key = np.array(key, dtype=np.int64)
    cells, starts = run_table(sorted_key)
    assert len(starts) == len(cells) + 1 and starts[-1] == len(sorted_key)
    np.testing.assert_array_equal(np.repeat(cells, np.diff(starts)), sorted_key)
    lo, cnt = run_lookup(cells, starts, key)
    want_lo, want_cnt = _two_searchsorted(sorted_key, key)
    np.testing.assert_array_equal(cnt, want_cnt)
    np.testing.assert_array_equal(lo[cnt > 0], want_lo[cnt > 0])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_bounds(), st.data())
def test_index_runs_equal_per_entry_keys(drawn, data):
    """Levels 0-12 and empty indexes: every cell's entries (the occupied
    ones, empty ones, the cells below the first and above the last
    occupied cell) come back as the two-searchsorted lookup over the
    per-entry keys finds them, and the interior / boundary split keeps
    exactly its entries, in order, with run tables of their own."""
    level, bounds = drawn
    n = 1 << level
    idx = CellBucketIndex(bounds, level=level, frame=FRAME)
    want_key, want_item = _entries(bounds, level)
    np.testing.assert_array_equal(idx.item_of, want_item)

    probe = [0, n * n - 1]
    if len(want_key):
        probe += [want_key[0], want_key[-1], max(want_key[0] - 1, 0)]
        probe += [min(want_key[-1] + 1, n * n - 1), *want_key[:: max(1, len(want_key) // 8)]]
    probe += data.draw(st.lists(st.integers(0, n * n - 1), max_size=20))
    key = np.array(probe, dtype=np.int64)
    ids = np.arange(len(key), dtype=np.int64) * 3
    lo, cnt = _two_searchsorted(want_key, key)
    pos = np.concatenate([np.arange(a, a + c) for a, c in zip(lo, cnt)]).astype(np.int64)
    q, item = idx.query_keys(key, ids)
    np.testing.assert_array_equal(q, np.repeat(ids, cnt))
    np.testing.assert_array_equal(item, want_item[pos])

    # points at cell centres of the probed keys, plus out-of-frame ones
    cw = FRAME[2] / n
    px = np.append((key % n + 0.5) * cw, [-1.0, np.nan])
    py = np.append((key // n + 0.5) * cw, [1.0, 1.0])
    pts, pcnt, pitem = idx.point_runs(px, py)
    np.testing.assert_array_equal(pts, np.arange(len(key)))
    np.testing.assert_array_equal(pcnt, cnt)
    np.testing.assert_array_equal(pitem, want_item[pos])
    pq, pi = idx.query_points(px, py)
    np.testing.assert_array_equal(pq, np.repeat(pts, pcnt))
    np.testing.assert_array_equal(pi, pitem)

    eligible = np.array(
        data.draw(st.lists(st.booleans(), min_size=len(bounds), max_size=len(bounds))),
        dtype=bool,
    )
    col, row = want_key % n, want_key // n
    c = np.floor(bounds / cw)[want_item]
    inner = eligible[want_item] & (c[:, 0] < col) & (col < c[:, 1])
    inner &= (c[:, 2] < row) & (row < c[:, 3])
    for part, keep in zip(idx.split(bounds, eligible), (inner, ~inner)):
        np.testing.assert_array_equal(part.item_of, want_item[keep])
        assert len(part.starts) == len(part.cells) + 1
        assert (np.diff(part.starts) > 0).all() and (np.diff(part.cells) > 0).all()
        np.testing.assert_array_equal(
            np.repeat(part.cells, np.diff(part.starts)), want_key[keep]
        )


def _old_refine(zs: ZoneSet, index, px, py):
    """The pair path: every candidate's coordinates and zone bounds
    gathered per pair, the matches kept by a boolean compress."""
    cand_pt, cand_zone = index.query_points(px, py)
    b = zs.bounds
    x, y = px[cand_pt], py[cand_pt]
    ok = (x >= b[cand_zone, 0]) & (x < b[cand_zone, 1])
    ok &= (y >= b[cand_zone, 2]) & (y < b[cand_zone, 3])
    gp = np.flatnonzero(~zs.is_rect[cand_zone])
    if len(gp):
        ok[gp] = pip_pairs(
            px, py, zs.ring_xy, zs.ring_offsets, cand_pt[gp], cand_zone[gp]
        )
    return cand_pt[ok], cand_zone[ok]


def _layer(seed: int, with_triangles: bool):
    """Integer-cornered rectangles (every third a triangle, if asked)
    and points on a 0.5 lattice, many on zone edges and corners, plus
    NaN and out-of-frame points."""
    rng = np.random.default_rng(seed)
    rings = []
    for j in range(150):
        x0, y0 = rng.integers(0, 40, 2).astype(float)
        w, h = rng.integers(1, 9, 2).astype(float)
        if with_triangles and j % 3 == 0:
            rings.append(np.array([x0, y0, x0 + w, y0, x0, y0 + h]))
        else:
            rings.append(rect_ring(x0, y0, x0 + w, y0 + h))
    lens = [len(r) for r in rings]
    tbl = pa.table(
        {
            "fid": pa.array(np.arange(len(rings)), pa.int64()),
            "ring_xy": pa.ListArray.from_arrays(
                pa.array(np.concatenate([[0], np.cumsum(lens)]), pa.int32()),
                pa.array(np.concatenate(rings)),
            ),
        }
    )
    px = np.append(rng.integers(-2, 100, 3000) / 2.0, [np.nan, 1e9])
    py = np.append(rng.integers(-2, 100, 3000) / 2.0, [3.0, 3.0])
    return ZoneSet.from_table(tbl), px, py


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("with_triangles", [False, True])
def test_match_points_equals_pair_path_in_order(seed, with_triangles):
    """Same pairs in the same order as the pair path, on the full index
    and on both halves of its split, in one chunk and in many."""
    zs, px, py = _layer(seed, with_triangles)
    assert zs.is_rect.all() != with_triangles
    for index in (zs.index, *zs.cover):
        want_p, want_z = _old_refine(zs, index, px, py)
        assert len(want_p) > 0
        for chunk in (ZoneSet.MATCH_CHUNK, 97):
            zs.MATCH_CHUNK = chunk
            got_p, got_z = zs.match_points(index, px, py)
            np.testing.assert_array_equal(got_p, want_p)
            np.testing.assert_array_equal(got_z, want_z)
        del zs.MATCH_CHUNK
