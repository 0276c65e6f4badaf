"""Sort-merge join internals: the run-join kernel over range
partitions, the exact cell histogram, the salt plan and range
boundaries derived from it, deterministic output blocks with the pair
schema, and a plan with no all-to-all."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rsgislib_ray.functions.cells import cells_from_xy
from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages.spatial_join import (
    _SALT_SHIFT,
    _cell_histogram,
    _join_range,
    _prep_points,
    _prep_zones,
    _range_bounds,
    _range_split,
    _salt_plan,
    spatial_join_points_sortmerge,
)
from tests.test_spatial_join import _even_odd

HOWS = ("inner", "left", "semi", "anti")
PAIR_SCHEMA = pa.schema([("pt_row", pa.int64()), ("fid", pa.int64())])


def _skew_table(sf_dir):
    """The spatial_join_skew corpus: ~30% of points collapse into
    [50, 51)^2, one level-6 cell."""
    pts = td.points_from_orders(sf_dir).to_pandas()
    x = pts["x"].to_numpy().copy()
    y = pts["y"].to_numpy().copy()
    pid = pts["pt_id"].to_numpy()
    hotm = pid % 10 < 3
    x[hotm] = 50.0 + (x[hotm] - np.floor(x[hotm]))
    y[hotm] = 50.0 + (y[hotm] - np.floor(y[hotm]))
    return pa.table({"pt_row": pid, "x": x, "y": y})


# ---------------------------------------------------------------------------
# kernel: each range partition joined on its own == brute force
# ---------------------------------------------------------------------------


def _hand_union(rng):
    """A cell-sorted union table in the sort-merge row layout: lattice
    points (some off-frame, cell -1) and integer rectangles plus
    triangles (ring rows), each zone copied into 1-2 cells. Cell 3 is
    given most of the rows."""
    cells = np.array([1, 2, 3, 3, 3, 3, 3, 3, 4, 5, 6])
    gx, gy = np.meshgrid(np.arange(0, 4.01, 0.5), np.arange(0, 4.01, 0.5))
    px, py = gx.ravel(), gy.ravel()
    pcell = rng.choice(cells, len(px))
    pcell[:4] = -1
    zones = []
    for fid in range(24):
        x0, y0 = rng.integers(0, 3, 2).astype(float)
        x1, y1 = x0 + rng.integers(1, 3), y0 + rng.integers(1, 3)
        ring = (
            np.array([x0, y0, x1, y0, x0, y1], dtype=np.float64)
            if fid % 3 == 0
            else None
        )
        for c in rng.choice(cells, rng.integers(1, 3), replace=False):
            zones.append((int(c), fid, x0, x1, y0, y1, ring))
    n_p, n_z = len(px), len(zones)
    rows = {
        "cell": np.concatenate([pcell, [z[0] for z in zones]]).astype(np.int64),
        "side": np.concatenate([np.zeros(n_p), np.ones(n_z)]).astype(np.int8),
        "key": np.concatenate([np.arange(100, 100 + n_p), np.zeros(n_z)]).astype(
            np.int64
        ),
        "fid": np.concatenate([np.zeros(n_p), [z[1] for z in zones]]).astype(
            np.int64
        ),
        "x": np.concatenate([px, np.zeros(n_z)]),
        "y": np.concatenate([py, np.zeros(n_z)]),
    }
    for j, c in enumerate(("zxmin", "zxmax", "zymin", "zymax")):
        rows[c] = np.concatenate([np.zeros(n_p), [z[2 + j] for z in zones]])
    blobs = [b""] * n_p + [
        b"" if z[6] is None else z[6].tobytes() for z in zones
    ]
    t = pa.table({**rows, "ring_blob": pa.array(blobs, pa.binary())})
    # sides interleave within a cell, as after the range shuffle
    perm = rng.permutation(len(t))
    order = np.argsort(rows["cell"][perm], kind="stable")
    t = t.take(pa.array(perm[order]))
    return t, zones


def _brute(t, zones, how):
    pts = t.filter(pc.equal(t["side"], 0)).to_pydict()
    pairs, matched = [], set()
    for c, k, x, y in zip(pts["cell"], pts["key"], pts["x"], pts["y"]):
        for zc, fid, x0, x1, y0, y1, ring in zones:
            if zc != c:
                continue
            if ring is None:
                hit = x0 <= x < x1 and y0 <= y < y1
            else:
                hit = _even_odd(x, y, ring)
            if hit:
                pairs.append((k, fid))
                matched.add(k)
    un = [(k, -1) for k in pts["key"] if k not in matched]
    return sorted(
        {
            "inner": pairs,
            "left": pairs + un,
            "semi": [(k, -1) for k in pts["key"] if k in matched],
            "anti": un,
        }[how]
    )


@pytest.mark.parametrize("how", HOWS)
def test_range_partitions_equal_brute_force(how):
    """The union rows, shuffled into two blocks, each block cut by
    :func:`_range_split` at boundaries from the points' cell histogram,
    and each range joined on its own by :func:`_join_range`: together
    exactly the brute-force rows, for every partition count."""
    rng = np.random.default_rng(7)
    t, zones = _hand_union(rng)
    cell, side = t["cell"].to_numpy(), t["side"].to_numpy()
    cells, n = np.unique(cell[(side == 0) & (cell != -1)], return_counts=True)
    shuffled = t.take(pa.array(rng.permutation(len(t))))
    blocks = [shuffled.slice(0, 40), shuffled.slice(40)]
    want = _brute(t, zones, how)
    for parts in (1, 3, 5):
        bounds = _range_bounds(cells, n, None, parts)
        split = [_range_split(b, bounds) for b in blocks]
        assert all(len(sp) == parts for sp in split)
        ranges = [[sp[i] for sp in split] for i in range(parts)]
        assert sum(any(p.num_rows for p in r) for r in ranges) >= min(parts, 2)
        outs = [_join_range(how, "x", "y", "pt_row", *r) for r in ranges]
        assert all(o.schema == PAIR_SCHEMA for o in outs)
        got = pa.concat_tables(outs)
        assert sorted(
            zip(got["pt_row"].to_pylist(), got["fid"].to_pylist())
        ) == want, parts
    if how == "inner":
        assert len(want) > 20


def test_join_range_with_no_rows_is_typed_empty():
    t, _ = _hand_union(np.random.default_rng(7))
    for how in HOWS:
        for parts in ((), (t.slice(0, 0), t.slice(3, 0))):
            out = _join_range(how, "x", "y", "pt_row", *parts)
            assert out.num_rows == 0 and out.schema == PAIR_SCHEMA


# ---------------------------------------------------------------------------
# cell histogram, salt plan and range boundaries
# ---------------------------------------------------------------------------


def _two_hot_spots(sf_dir):
    """The skew corpus plus a second, smaller hot spot, so a plan holds
    a capped and an uncapped cell."""
    skew = _skew_table(sf_dir)
    x, y = skew["x"].to_numpy().copy(), skew["y"].to_numpy().copy()
    second = skew["pt_row"].to_numpy() % 10 == 3
    x[second] = 25.0 + (x[second] - np.floor(x[second])) / 2
    y[second] = 25.0 + (y[second] - np.floor(y[second])) / 2
    return pa.table({"pt_row": skew["pt_row"], "x": x, "y": y})


def _naive_counts(pts):
    cell = cells_from_xy(pts["x"].to_numpy(), pts["y"].to_numpy(), 6)
    return np.unique(cell[cell != -1], return_counts=True)


def test_salt_plan_equals_naive_count(ray_session, sf_dir):
    import ray

    skew = _two_hot_spots(sf_dir)
    step = -(-skew.num_rows // 8)
    blocks = [ray.put(skew.slice(i, step)) for i in range(0, skew.num_rows, step)]
    cells, n = _cell_histogram(blocks, "x", "y", 6)
    u, c = _naive_counts(skew)
    assert cells.dtype == np.int64 and n.dtype == np.int64
    np.testing.assert_array_equal(cells, u)
    np.testing.assert_array_equal(n, c)
    threshold, max_salt = 100, 4
    hot = c > threshold
    assert hot.sum() == 2
    hcells, s = _salt_plan(cells, n, threshold, max_salt)
    assert hcells.dtype == np.int64 and s.dtype == np.int64
    np.testing.assert_array_equal(hcells, u[hot])
    np.testing.assert_array_equal(s, np.minimum(-(-c[hot] // threshold), max_salt))
    assert (s == max_salt).any() and (s < max_salt).any()
    assert _salt_plan(cells, n, None, max_salt) is None
    assert _salt_plan(cells, n, int(c.max()), max_salt) is None


def _naive_keys(cells, n, plan):
    """(join key, planned points) per key: a cell, or each salt of a hot
    cell with an even share of its points (the first n % s salts take
    one more)."""
    hot = {} if plan is None else dict(zip(plan[0].tolist(), plan[1].tolist()))
    keys, w = [], []
    for c, k in zip(cells.tolist(), n.tolist()):
        if plan is None:
            keys.append(c)
            w.append(k)
            continue
        s = hot.get(c, 1)
        salted = (np.full(s, c, dtype=np.int64) << _SALT_SHIFT) | np.arange(s)
        for j in range(s):
            keys.append(salted[j])
            w.append(k // s + (j < k % s))
    return np.array(keys, dtype=np.int64), np.array(w, dtype=np.int64)


@pytest.mark.parametrize("salt", [None, 200])
def test_range_bounds_keep_keys_whole_and_balance(sf_dir, salt):
    """Boundaries from the exact histogram: every key, point or zone,
    lands in exactly one range, and each range plans at most
    ceil(total / P) points plus the largest single key's; unsalted,
    that bound holds for the rows the split really produces."""
    skew = _two_hot_spots(sf_dir)
    zones = td.zones_from_part(sf_dir)
    cells, n = _naive_counts(skew)
    plan = _salt_plan(cells, n, salt, 64)
    assert (plan is None) == (salt is None)
    keys, w = _naive_keys(cells, n, plan)
    total = int(w.sum())
    half = skew.num_rows // 2
    for parts in (1, 2, 4, 7, 16):
        bounds = _range_bounds(cells, n, plan, parts)
        assert bounds.dtype == np.int64 and len(bounds) == parts - 1
        assert (np.diff(bounds) >= 0).all()
        planned = np.bincount(
            np.searchsorted(bounds, keys, "right"), weights=w, minlength=parts
        )
        assert planned.max() <= -(-total // parts) + w.max(), parts
        split = [
            _range_split(
                _prep_points(b, plan, 6, "x", "y", "pt_row", "inner"), bounds
            )
            for b in (skew.slice(0, half), skew.slice(half))
        ]
        split.append(_range_split(_prep_zones(zones, plan, 6, "x", "y"), bounds))
        per_range = [
            set(np.concatenate([sp[i]["cell"].to_numpy() for sp in split]).tolist())
            for i in range(parts)
        ]
        assert sum(map(len, per_range)) == len(set().union(*per_range)), parts
        if plan is None:
            real = [
                sum(int((sp[i]["side"].to_numpy() == 0).sum()) for sp in split[:2])
                for i in range(parts)
            ]
            assert sum(real) == total
            assert max(real) <= -(-total // parts) + int(n.max()), parts


def test_all_off_frame_points_build_no_plan(ray_session, sf_dir):
    import ray
    import ray.data

    n = 300
    pts = pa.table(
        {
            "pt_row": np.arange(n, dtype=np.int64),
            "x": np.full(n, -50.0),
            "y": np.linspace(-10.0, 10.0, n),
        }
    )
    assert (cells_from_xy(pts["x"].to_numpy(), pts["y"].to_numpy(), 6) == -1).all()
    cells, counts = _cell_histogram([ray.put(pts)], "x", "y", 6)
    assert len(cells) == 0 and _salt_plan(cells, counts, 1, 64) is None
    assert (_range_bounds(cells, counts, None, 4) == np.iinfo(np.int64).max).all()
    zones = td.zones_from_part(sf_dir)

    def run(how, salt):
        out = spatial_join_points_sortmerge(
            ray.data.from_arrow(pts).repartition(3), zones,
            key_col="pt_row", how=how, salt_threshold=salt,
        )
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
        return sorted(zip(got["pt_row"].to_pylist(), got["fid"].to_pylist()))

    for how in HOWS:
        assert run(how, 1) == run(how, None), how
    assert run("anti", 1) == [(i, -1) for i in range(n)]


# ---------------------------------------------------------------------------
# output blocks and plan shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("how", HOWS)
def test_output_blocks_carry_pair_schema(ray_session, sf_dir, how):
    """Every raw output block, one per range partition, is (pt_row
    int64, fid int64), so the blocks concatenate as-is — on the salted
    skew corpus, and on one whose points all share a cell, so all but
    one range is empty."""
    import ray
    import ray.data

    from rsgislib_ray.stages.spatial_join import _default_join_partitions

    skew = _skew_table(sf_dir)
    one_cell = skew.set_column(1, "x", pa.array(np.full(skew.num_rows, 50.5)))
    one_cell = one_cell.set_column(2, "y", pa.array(np.full(skew.num_rows, 50.5)))
    zones = td.zones_from_part(sf_dir)
    for pts, salt in ((skew, 200), (one_cell, None)):
        out = spatial_join_points_sortmerge(
            ray.data.from_arrow(pts).repartition(8), zones,
            level=6, key_col="pt_row", how=how, salt_threshold=salt,
        )
        blocks = ray.get(out.to_arrow_refs())
        assert len(blocks) == _default_join_partitions(None)
        assert all(b.schema == PAIR_SCHEMA for b in blocks)
        assert pa.concat_tables(blocks).num_rows == out.count()
    assert sum(b.num_rows > 0 for b in blocks) <= 1


def test_salted_join_output_blocks_are_deterministic(ray_session, sf_dir):
    """Two runs of the salted join on one input give equal output block
    lists: the same rows in the same order, split into the same blocks.
    The range boundaries come from the exact histogram, not from a
    random sample."""
    import ray
    import ray.data

    src = ray.data.from_arrow(_skew_table(sf_dir)).repartition(8).materialize()
    zones = td.zones_from_part(sf_dir)

    def blocks():
        out = spatial_join_points_sortmerge(
            src, zones, level=6, key_col="pt_row", salt_threshold=200
        )
        return ray.get(out.to_arrow_refs())

    a, b = blocks(), blocks()
    assert [t.num_rows for t in a] == [t.num_rows for t in b]
    assert sum(t.num_rows > 0 for t in a) > 1
    assert all(x.equals(y) for x, y in zip(a, b))


_OP = re.compile(r"^Operator \d+ (.+?): (.*)$")


def _executed_ops(stats: str) -> set[tuple[str, str]]:
    """(operator name, its remote wall-time lines) for each top-level
    operator of a ``Dataset.stats()`` text that ran in this execution
    (not ``[execution cached]``). The wall-time lines tell executions
    apart: one execution repeats verbatim in every downstream dataset's
    stats, while its throughput lines are recomputed."""
    out, cur = set(), None
    for line in stats.splitlines():
        m = _OP.match(line)
        if m:
            if cur is not None:
                out.add((cur[0], "\n".join(cur[1])))
            cur = None if "[execution cached]" in m.group(2) else (m.group(1), [])
        elif cur is not None and "Remote wall time" in line:
            cur[1].append(line)
    if cur is not None:
        out.add((cur[0], "\n".join(cur[1])))
    return out


def test_salted_sortmerge_runs_no_all_to_all(ray_session, sf_dir, monkeypatch):
    """Across the lazy input and every dataset the salted join builds,
    the one operator executed is the input's own map, once: the count
    pass, the range split and the join are plain Ray tasks, wrapped as
    ``FromArrow`` sources, so no ``Sort``, ``Repartition``,
    ``RandomShuffle``, ``Aggregate`` or ``MapGroups`` runs (read from
    ``Dataset.stats()``)."""
    import ray.data

    src = ray.data.from_arrow(_skew_table(sf_dir)).repartition(8).materialize()
    lazy = src.map_batches(_tag, batch_format="pyarrow")
    zones = td.zones_from_part(sf_dir)
    made = [lazy]
    orig_init = ray.data.Dataset.__init__

    def spy(self, *a, **k):
        orig_init(self, *a, **k)
        made.append(self)

    monkeypatch.setattr(ray.data.Dataset, "__init__", spy)
    out = spatial_join_points_sortmerge(
        lazy, zones, level=6, key_col="pt_row", salt_threshold=200
    )
    assert out.count() > 0
    monkeypatch.undo()
    ops = set().union(*(_executed_ops(ds.stats()) for ds in made))
    ops -= _executed_ops(src.stats())  # the input's own repartition
    names = sorted(name for name, _ in ops if name != "FromArrow")
    assert names == ["MapBatches(_tag)"], names


def _tag(batch: pa.Table) -> pa.Table:
    return batch
