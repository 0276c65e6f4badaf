"""STRtree candidate generation vs brute-force bbox scans."""

import numpy as np

from rsgislib_ray.state.strtree import STRtree


def _rand_bounds(rng, n, lo=0.0, hi=100.0, max_sz=8.0):
    x0 = rng.uniform(lo, hi, n)
    y0 = rng.uniform(lo, hi, n)
    w = rng.uniform(0.1, max_sz, n)
    h = rng.uniform(0.1, max_sz, n)
    return np.column_stack([x0, x0 + w, y0, y0 + h])


def _pairs_set(q, i):
    return set(zip(q.tolist(), i.tolist()))


def test_query_points_vs_brute():
    rng = np.random.default_rng(42)
    for n_items in (0, 1, 7, 16, 17, 300, 5000):
        b = _rand_bounds(rng, n_items)
        tree = STRtree(b)
        px = rng.uniform(-5, 105, 777)
        py = rng.uniform(-5, 105, 777)
        q, it = tree.query_points(px, py)
        want = set()
        for j in range(n_items):
            hit = (
                (px >= b[j, 0]) & (px <= b[j, 1]) & (py >= b[j, 2]) & (py <= b[j, 3])
            )
            want |= {(int(p), j) for p in np.flatnonzero(hit)}
        assert _pairs_set(q, it) == want


def test_query_bboxes_vs_brute():
    rng = np.random.default_rng(1)
    b = _rand_bounds(rng, 400)
    tree = STRtree(b)
    qb = _rand_bounds(rng, 133, max_sz=20.0)
    q, it = tree.query_bboxes(qb)
    want = set()
    for j in range(len(b)):
        hit = (
            (qb[:, 1] >= b[j, 0])
            & (qb[:, 0] <= b[j, 1])
            & (qb[:, 3] >= b[j, 2])
            & (qb[:, 2] <= b[j, 3])
        )
        want |= {(int(p), j) for p in np.flatnonzero(hit)}
    assert _pairs_set(q, it) == want


def test_tree_is_picklable_and_stable():
    import pickle

    rng = np.random.default_rng(3)
    b = _rand_bounds(rng, 250)
    tree = STRtree(b)
    tree2 = pickle.loads(pickle.dumps(tree))
    px = rng.uniform(0, 100, 100)
    py = rng.uniform(0, 100, 100)
    q1, i1 = tree.query_points(px, py)
    q2, i2 = tree2.query_points(px, py)
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_array_equal(i1, i2)


def _naive_bucket_entries(bounds, rect, idx):
    """Every (cell key, item) entry of a CellBucketIndex, built with
    Python loops, then ordered by a stable int64 argsort on (key,
    boundary): each cell's interior entries of ``rect`` items first."""
    n = idx.n_side
    keys, items, edge = [], [], []
    for j, (xmin, xmax, ymin, ymax) in enumerate(bounds):
        fc0, fc1 = (int(np.floor((v - idx.x0) / idx.cw)) for v in (xmin, xmax))
        fr0, fr1 = (int(np.floor((v - idx.y0) / idx.ch)) for v in (ymin, ymax))
        c0, c1 = (min(max(v, 0), n - 1) for v in (fc0, fc1))
        r0, r1 = (min(max(v, 0), n - 1) for v in (fr0, fr1))
        for r in range(r0, r1 + 1):
            for c in range(c0, c1 + 1):
                keys.append(r * n + c)
                items.append(j)
                edge.append(not (rect[j] and fc0 < c < fc1 and fr0 < r < fr1))
    keys = np.array(keys, dtype=np.int64)
    order = np.argsort(keys * 2 + np.array(edge, dtype=np.int64), kind="stable")
    return keys[order], np.array(items, dtype=np.int64)[order]


def _entry_keys(idx):
    """Each entry's cell key, read back from the index's run table
    (which must hold only non-empty runs of ascending cells)."""
    assert idx.cells.dtype == np.int64 and idx.starts.dtype == np.int64
    assert len(idx.starts) == len(idx.cells) + 1
    assert idx.starts[0] == 0 and idx.starts[-1] == len(idx.item_of)
    assert (np.diff(idx.cells) > 0).all() and (np.diff(idx.starts) > 0).all()
    return np.repeat(idx.cells, np.diff(idx.starts))


def test_cell_bucket_build_matches_naive_int64_sort():
    """Radix build (level <= 8) and int64 build (level > 8) both give
    exactly the entries and order of a naive stable int64 argsort, with
    and without interior entries."""
    from rsgislib_ray.state.strtree import CellBucketIndex

    rng = np.random.default_rng(11)
    b = _rand_bounds(rng, 400, max_sz=12.0)
    for rect in (np.zeros(len(b), dtype=bool), rng.random(len(b)) < 0.7):
        for level in (6, 8, 9, 10):
            idx = CellBucketIndex(b, rect, level=level)
            want_key, want_item = _naive_bucket_entries(b, rect, idx)
            assert idx.item_of.dtype == np.int64
            np.testing.assert_array_equal(_entry_keys(idx), want_key)
            np.testing.assert_array_equal(idx.item_of, want_item)
    assert (idx.edge_starts[:-1] > idx.starts[:-1]).any()
    # a column-major bounds array builds the same index as a row-major one
    idx_c = CellBucketIndex(b, rect)
    idx_f = CellBucketIndex(np.asfortranarray(b), rect)
    np.testing.assert_array_equal(_entry_keys(idx_c), _entry_keys(idx_f))
    np.testing.assert_array_equal(idx_c.item_of, idx_f.item_of)
    np.testing.assert_array_equal(idx_c.edge_starts, idx_f.edge_starts)
