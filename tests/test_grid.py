"""Tile grid layout + assignment equality (FIXTURES.md F5 specs)."""

import numpy as np

from rsgislib_ray.functions.grid import TileSpec, bbox_grid


def _brute_assign(spec: TileSpec, x, y):
    """Oracle: linear scan of the bbox list, half-open membership."""
    boxes = spec.tiles()
    out = np.full(len(x), -1, dtype=np.int64)
    for i, (xmin, xmax, ymin, ymax) in enumerate(boxes):
        # top/right edge tiles own the bbox max edge is NOT included —
        # points must be strictly inside the overall bbox, handled by
        # the -1 default
        hit = (x >= xmin) & (x < xmax) & (y >= ymin) & (y < ymax)
        out[hit & (out == -1)] = i
    return out


def test_remainder_layout_30():
    # bbox 100 wide, 30-tiles: 3 full + 10-remainder per axis (F5)
    boxes = bbox_grid((0, 100, 0, 100), 30, 30)
    assert len(boxes) == 16
    # first row: 3 full tiles then the remainder column
    assert boxes[0] == (0, 30, 0, 30)
    assert boxes[2] == (60, 90, 0, 30)
    assert boxes[3] == (90, 100, 0, 30)
    # second row starts after the remainder tile
    assert boxes[4] == (0, 30, 30, 60)
    # remainder row is last, ends with the corner remainder
    assert boxes[12] == (0, 30, 90, 100)
    assert boxes[15] == (90, 100, 90, 100)


def test_exact_divisor_25():
    boxes = bbox_grid((0, 100, 0, 100), 25, 25)
    assert len(boxes) == 16
    assert boxes[-1] == (75, 100, 75, 100)
    spec = TileSpec((0, 100, 0, 100), 25, 25)
    assert spec.n_cols == 4 and spec.n_rows == 4 and spec.x_rem == 0.0


def test_tiny_residual_swallowed():
    # residual below 1e-6 is treated as zero (geometrytools.py:509)
    boxes = bbox_grid((0, 100.0000005, 0, 100), 25, 25)
    assert len(boxes) == 16


def test_assign_matches_brute_scan():
    rng = np.random.default_rng(42)
    for bbox, xs, ys in [
        ((0, 100, 0, 100), 30, 30),
        ((0, 100, 0, 100), 25, 25),
        ((-10, 95, 5, 77), 13, 17),
    ]:
        spec = TileSpec(bbox, xs, ys)
        x = rng.uniform(bbox[0] - 5, bbox[1] + 5, 5000)
        y = rng.uniform(bbox[2] - 5, bbox[3] + 5, 5000)
        got = spec.assign(x, y)
        want = _brute_assign(spec, x, y)
        np.testing.assert_array_equal(got, want)


def test_assign_edges():
    spec = TileSpec((0, 100, 0, 100), 30, 30)
    x = np.array([0.0, 30.0, 90.0, 100.0, 99.9999])
    y = np.array([0.0, 30.0, 90.0, 50.0, 99.9999])
    got = spec.assign(x, y)
    assert got[0] == 0  # origin belongs to tile 0
    assert got[1] == 5  # boundary point goes to the upper tile (half-open)
    assert got[2] == 15  # remainder corner
    assert got[3] == -1  # x == xmax is outside
    assert got[4] == 15


def test_tile_bounds_contain_assigned_points():
    spec = TileSpec((0, 100, 0, 100), 30, 30)
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 100, 2000)
    y = rng.uniform(0, 100, 2000)
    tid = spec.assign(x, y)
    xmin, xmax, ymin, ymax = spec.tile_bounds(tid)
    assert np.all((x >= xmin) & (x < xmax + 1e-9) & (y >= ymin) & (y < ymax + 1e-9))


def test_hex_assignment_matches_nearest_center():
    from rsgislib_ray.functions.grid import assign_hex, hex_centers

    size = 4.0
    ids, cx, cy = hex_centers((0, 100, 0, 100), size)
    assert len(ids) == len(set(ids.tolist()))  # unique ids
    rng = np.random.default_rng(42)
    x = rng.uniform(0, 100, 3000)
    y = rng.uniform(0, 100, 3000)
    got = assign_hex(x, y, size)
    # brute oracle: nearest center wins (hexagonal Voronoi)
    d = (x[:, None] - cx[None, :]) ** 2 + (y[:, None] - cy[None, :]) ** 2
    want = ids[d.argmin(axis=1)]
    np.testing.assert_array_equal(got, want)
