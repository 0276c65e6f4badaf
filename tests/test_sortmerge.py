"""Sort-merge join internals: the run-join kernel over range
partitions, the exact cell histogram, the salt plan, rank keys and
range boundaries derived from it, one zone row per (zone, range)
listing only ranks of cells that hold points, deterministic output
blocks with the pair schema, a plan with no all-to-all and no
execution over inputs that hold their blocks, and a differential test
against the broadcast join and brute force over every cell level."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings, strategies as st

from rsgislib_ray.functions.cells import cells_from_xy
from rsgislib_ray.functions.geom import rect_ring
from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages import partition
from rsgislib_ray.stages.spatial_join import (
    _cell_histogram,
    _join_range,
    _prep_points,
    _range_bounds,
    _ranked,
    _salt_plan,
    _zone_rows,
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


def _hand_sides(rng):
    """A points table and a zone table in the range plan's two row
    layouts: lattice points (some off-frame, rank -1) as ``rank, key,
    x, y``, and integer rectangles plus triangles as ``fid, ring_xy,
    ranks``, each zone listing 1-2 ranks. Rank 2 is given most of the
    rows; both sides come in shuffled order, ranks interleaved."""
    ranks = np.array([0, 1, 2, 2, 2, 2, 2, 2, 3, 4, 5])
    gx, gy = np.meshgrid(np.arange(0, 4.01, 0.5), np.arange(0, 4.01, 0.5))
    px, py = gx.ravel(), gy.ravel()
    prank = rng.choice(ranks, len(px))
    prank[:4] = -1
    zones = []
    for fid in range(24):
        x0, y0 = rng.integers(0, 3, 2).astype(float)
        x1, y1 = x0 + rng.integers(1, 3), y0 + rng.integers(1, 3)
        ring = (
            np.array([x0, y0, x1, y0, x0, y1], dtype=np.float64)
            if fid % 3 == 0
            else None
        )
        for c in rng.choice(ranks, rng.integers(1, 3), replace=False):
            zones.append((int(c), fid, x0, x1, y0, y1, ring))
    pts = pa.table(
        {
            "rank": pa.array(prank, pa.int64()),
            "key": np.arange(100, 100 + len(px), dtype=np.int64),
            "x": px,
            "y": py,
        }
    )
    rings, ranks = {}, {}
    for c, fid, x0, x1, y0, y1, ring in zones:
        rings[fid] = rect_ring(x0, y0, x1, y1) if ring is None else ring
        ranks.setdefault(fid, []).append(c)
    ztbl = pa.table(
        {
            "fid": pa.array(list(rings), pa.int64()),
            "ring_xy": pa.ListArray.from_arrays(
                pa.array(np.cumsum([0] + [len(r) for r in rings.values()]), pa.int32()),
                pa.array(np.concatenate(list(rings.values()))),
            ),
            "ranks": pa.array(list(ranks.values()), pa.list_(pa.int64())),
        }
    )
    shuffle = lambda t: t.take(pa.array(rng.permutation(len(t))))  # noqa: E731
    return shuffle(pts), shuffle(ztbl), zones


def _brute(pts, zones, how):
    pts = pts.to_pydict()
    pairs, matched = [], set()
    for c, k, x, y in zip(pts["rank"], pts["key"], pts["x"], pts["y"]):
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


def _range_split(t: pa.Table, bounds: np.ndarray) -> list[pa.Table]:
    """``t`` grouped by the range plan, as one split task groups it."""
    return partition.group(*_ranked(lambda x: x, bounds, t), len(bounds) + 1)


def _zone_split(z: pa.Table, bounds: np.ndarray) -> list[pa.Table]:
    """Zone rows that list all their ranks, cut by the range plan as a
    split task cuts them: per range, one row per zone with a rank
    there, listing its ranks in that range."""
    out = [([], []) for _ in range(len(bounds) + 1)]
    for i, ranks in enumerate(z["ranks"].to_pylist()):
        by = {}
        for r in ranks:
            by.setdefault(int(np.searchsorted(bounds, r, "right")), []).append(r)
        for part, rs in by.items():
            out[part][0].append(i)
            out[part][1].append(rs)
    return [
        z.drop_columns(["ranks"])
        .take(pa.array(rows, pa.int64()))
        .append_column("ranks", pa.array(rs, pa.list_(pa.int64())))
        for rows, rs in out
    ]


@pytest.mark.parametrize("how", HOWS)
def test_range_partitions_equal_brute_force(how):
    """The point rows and the zone rows, each cut into two blocks, each
    block cut by the range plan at boundaries from the points' rank
    histogram, and each range joined on its own by :func:`_join_range`
    (point parts first): together exactly the brute-force rows, for
    every partition count, with no empty range."""
    rng = np.random.default_rng(7)
    pts, ztbl, zones = _hand_sides(rng)
    rank = pts["rank"].to_numpy()
    ranks, n = np.unique(rank[rank != -1], return_counts=True)
    np.testing.assert_array_equal(ranks, np.arange(6))
    blocks = [pts.slice(0, 40), pts.slice(40), ztbl.slice(0, 15), ztbl.slice(15)]
    want = _brute(pts, zones, how)
    for parts in (1, 3, 5):
        bounds = _range_bounds(n, np.ones_like(n), parts)
        assert len(bounds) < parts
        split = [_range_split(b, bounds) for b in blocks[:2]]
        split += [_zone_split(b, bounds) for b in blocks[2:]]
        assert all(len(sp) == len(bounds) + 1 for sp in split)
        ranges = [[sp[i] for sp in split] for i in range(len(bounds) + 1)]
        assert all(any(p.num_rows for p in r[:2]) for r in ranges)
        assert len(ranges) >= min(parts, 2)
        outs = [_join_range(how, "pt_row", 2, *r) for r in ranges]
        assert all(o.schema == PAIR_SCHEMA for o in outs)
        got = pa.concat_tables(outs)
        assert sorted(
            zip(got["pt_row"].to_pylist(), got["fid"].to_pylist())
        ) == want, parts
    if how == "inner":
        assert len(want) > 20


def test_join_range_with_no_rows_is_typed_empty():
    pts, ztbl, _ = _hand_sides(np.random.default_rng(7))
    for how in HOWS:
        for n_points, parts in (
            (0, ()),
            (1, (pts.slice(0, 0), ztbl.slice(3, 0))),
            (1, (pts.slice(0, 0), ztbl)),
            (0, (ztbl,)),
        ):
            out = _join_range(how, "pt_row", n_points, *parts)
            assert out.num_rows == 0 and out.schema == PAIR_SCHEMA


def test_sides_keep_their_own_columns(sf_dir):
    """The range plan ships two narrow row layouts and nothing else:
    point parts hold exactly ``rank, key, x, y``, zone parts exactly
    the layer's ``fid, ring_xy`` plus the list ``ranks``."""
    skew = _two_hot_spots(sf_dir)
    zones = td.zones_from_part(sf_dir)
    cells, n = _naive_counts(skew)
    per = _salt_plan(n, 100, 4)
    bounds = _range_bounds(n, per, 3)
    for how in HOWS:
        p = _prep_points(skew, (cells, per), 6, "x", "y", "pt_row", how)
        assert p.schema == pa.schema(
            [("rank", pa.int64()), ("key", pa.int64()),
             ("x", pa.float64()), ("y", pa.float64())]
        ), how
        assert all(part.schema == p.schema for part in _range_split(p, bounds))
    z, ids = _zone_rows(bounds, (cells, per), 6, zones)
    assert z.schema == pa.schema(
        [
            zones.schema.field("fid"),
            zones.schema.field("ring_xy"),
            ("ranks", pa.list_(pa.int64())),
        ]
    )
    assert all(
        part.schema == z.schema
        for part in partition.group(z, ids, len(bounds) + 1)
    )


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
    slices = [skew.slice(i, step) for i in range(0, skew.num_rows, step)]
    blocks = partition.held_blocks(ray.data.from_arrow(slices))[1]
    cells, n = _cell_histogram(blocks, "x", "y", 6)
    u, c = _naive_counts(skew)
    assert cells.dtype == np.int64 and n.dtype == np.int64
    np.testing.assert_array_equal(cells, u)
    np.testing.assert_array_equal(n, c)
    threshold, max_salt = 100, 4
    hot = c > threshold
    assert hot.sum() == 2
    per = _salt_plan(n, threshold, max_salt)
    assert per.dtype == np.int64 and len(per) == len(cells)
    np.testing.assert_array_equal(
        per[hot], np.minimum(-(-c[hot] // threshold), max_salt)
    )
    assert (per[~hot] == 1).all()
    assert (per == max_salt).any() and ((per > 1) & (per < max_salt)).any()
    assert (_salt_plan(n, None, max_salt) == 1).all()
    assert (_salt_plan(n, int(c.max()), max_salt) == 1).all()


def _naive_ranks(n, per):
    """(rank, planned points) per (cell, salt), counted cell by cell
    and salt by salt: each salt of a cell takes an even share of its
    points (the first n % s salts take one more)."""
    keys, w = [], []
    for k, s in zip(n.tolist(), per.tolist()):
        for j in range(s):
            keys.append(len(keys))
            w.append(k // s + (j < k % s))
    return np.array(keys, dtype=np.int64), np.array(w, dtype=np.int64)


@pytest.mark.parametrize("salt", [None, 200])
def test_range_bounds_keep_keys_whole_and_balance(sf_dir, salt):
    """Boundaries from the exact histogram: strictly ascending ranks
    below the last, so no range is empty; every rank, point or zone,
    lands in exactly one range, and each range plans at most
    ceil(total / P) points plus the largest single rank's; unsalted,
    that bound holds for the rows the split really produces."""
    skew = _two_hot_spots(sf_dir)
    zones = td.zones_from_part(sf_dir)
    cells, n = _naive_counts(skew)
    per = _salt_plan(n, salt, 64)
    assert (per > 1).any() == (salt is not None)
    keys, w = _naive_ranks(n, per)
    total = int(w.sum())
    half = skew.num_rows // 2
    for parts in (1, 2, 4, 7, 16):
        bounds = _range_bounds(n, per, parts)
        ranges = len(bounds) + 1
        assert bounds.dtype == np.int64 and ranges <= parts
        assert (np.diff(bounds) > 0).all() and (bounds < len(keys)).all()
        planned = np.bincount(
            np.searchsorted(bounds, keys, "right"), weights=w, minlength=ranges
        )
        assert (planned > 0).all() and len(planned) == ranges, parts
        assert planned.max() <= -(-total // parts) + w.max(), parts
        split = [
            _range_split(
                _prep_points(b, (cells, per), 6, "x", "y", "pt_row", "inner"),
                bounds,
            )
            for b in (skew.slice(0, half), skew.slice(half))
        ]
        zsplit = partition.group(*_zone_rows(bounds, (cells, per), 6, zones), ranges)
        for i, part in enumerate(zsplit):
            zr = pc.list_flatten(part["ranks"]).to_numpy()
            assert (np.searchsorted(bounds, zr, "right") == i).all(), parts
        per_range = [
            set(
                np.concatenate(
                    [sp[i]["rank"].to_numpy() for sp in split]
                    + [pc.list_flatten(zsplit[i]["ranks"]).to_numpy()]
                ).tolist()
            )
            for i in range(ranges)
        ]
        assert sum(map(len, per_range)) == len(set().union(*per_range)), parts
        if salt is None:
            real = [sum(sp[i].num_rows for sp in split[:2]) for i in range(ranges)]
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
    cells, counts = _cell_histogram(
        partition.held_blocks(ray.data.from_arrow(pts))[1], "x", "y", 6
    )
    per = _salt_plan(counts, 1, 64)
    assert len(cells) == 0 and len(per) == 0
    assert len(_range_bounds(counts, per, 4)) == 0
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
    # no points at all: one typed empty block for every how
    for how in HOWS:
        out = spatial_join_points_sortmerge(
            ray.data.from_arrow(pts.slice(0, 0)), zones,
            key_col="pt_row", how=how, salt_threshold=1,
        )
        blocks = ray.get(out.to_arrow_refs())
        assert [(b.num_rows, b.schema) for b in blocks] == [(0, PAIR_SCHEMA)], how


# ---------------------------------------------------------------------------
# output blocks and plan shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("how", HOWS)
def test_output_blocks_carry_pair_schema(ray_session, sf_dir, how, monkeypatch):
    """Every raw output block, one per range that yields rows, is
    (pt_row int64, fid int64), so the blocks concatenate as-is — on
    the salted skew corpus, and on one whose points all share a cell,
    so one range is left. A task is sized to a quarter of the corpus,
    so the partition rule gives 4 ranges on the 4 CPUs."""
    import ray
    import ray.data

    skew = _skew_table(sf_dir)
    monkeypatch.setattr(partition, "TASK_ROWS", -(-skew.num_rows // 4))
    assert partition.default_partitions(skew.num_rows) == 4
    one_cell = skew.set_column(1, "x", pa.array(np.full(skew.num_rows, 50.5)))
    one_cell = one_cell.set_column(2, "y", pa.array(np.full(skew.num_rows, 50.5)))
    zones = td.zones_from_part(sf_dir)
    for pts, salt in ((skew, 200), (one_cell, None)):
        out = spatial_join_points_sortmerge(
            ray.data.from_arrow(pts).repartition(8), zones,
            level=6, key_col="pt_row", how=how, salt_threshold=salt,
        )
        blocks = ray.get(out.to_arrow_refs())
        assert 1 <= len(blocks) <= partition.default_partitions(pts.num_rows)
        assert all(b.schema == PAIR_SCHEMA for b in blocks)
        assert pa.concat_tables(blocks).num_rows == out.count()
    assert len(blocks) == 1


def test_salted_join_output_blocks_are_deterministic(ray_session, sf_dir, monkeypatch):
    """Two runs of the salted join on one input give equal output block
    lists: the same rows in the same order, split into the same blocks.
    The range boundaries come from the exact histogram, not from a
    random sample. A task is sized to a quarter of the corpus, so the
    join has more than one range."""
    import ray
    import ray.data

    skew = _skew_table(sf_dir)
    monkeypatch.setattr(partition, "TASK_ROWS", -(-skew.num_rows // 4))
    src = ray.data.from_arrow(skew).repartition(8).materialize()
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


# ---------------------------------------------------------------------------
# live zone rows, held inputs, downstream schema
# ---------------------------------------------------------------------------


def test_zone_rows_ship_live_ranks_only(sf_dir):
    """:func:`_zone_rows` lists one rank per (zone, covering cell) whose
    cell holds points, times the cell's salts, the rank of each salt —
    and none for the covering cells without points, which this corpus
    has. With one range, each zone with a live rank is one row."""
    from rsgislib_ray.functions.cells import covering_cells_bboxes
    from rsgislib_ray.stages.spatial_join import ZoneSet

    zones = td.zones_from_part(sf_dir)
    cells, n = _naive_counts(_two_hot_spots(sf_dir))
    per = _salt_plan(n, 100, 4)
    got, ids = _zone_rows(np.empty(0, np.int64), (cells, per), 6, zones)
    assert (ids == 0).all()
    ranks = got["ranks"]
    fid = pc.take(got["fid"], pc.list_parent_indices(ranks))
    zs = ZoneSet.from_table(zones)
    src, cell = covering_cells_bboxes(*(zs.bounds[:, i] for i in range(4)), 6)
    salts = dict(zip(cells.tolist(), per.tolist()))
    base = dict(zip(cells.tolist(), (np.cumsum(per) - per).tolist()))
    want = sorted(
        (int(zs.fid[z]), base[c] + j)
        for z, c in zip(src.tolist(), cell.tolist())
        if c in salts
        for j in range(salts[c])
    )
    assert sorted(zip(fid.to_pylist(), pc.list_flatten(ranks).to_pylist())) == want
    assert (per > 1).any() and not np.isin(cell, cells).all()
    assert len(pc.list_flatten(ranks)) == sum(salts.get(c, 0) for c in cell.tolist())
    assert got.num_rows == len(set(src[np.isin(cell, cells)].tolist()))


@st.composite
def _zone_row_cases(draw):
    """(level, points, hot points, salt threshold, max salt, zones): at
    levels 1-8, points in quarter cells of a window of up to 4x4 cells,
    ``hot`` more points in one cell, and zones ``(x, y, w, h, kind)``
    in quarter cells from the window's corner, kind 0 a rectangle, 1 a
    triangle, 2 a pentagon. Zones may reach past the frame and lie
    where no point is, so some cover no cell that holds points."""
    level = draw(st.integers(1, 8))
    span = min(1 << level, 4)
    q = st.integers(0, 4 * span - 1)
    pts = draw(st.lists(st.tuples(q, q), min_size=1, max_size=30))
    hot = draw(st.integers(0, 40))
    threshold = draw(st.sampled_from([None, 1, 3, 10]))
    max_salt = draw(st.integers(1, 6))
    z = st.integers(-4, 4 * span + 8)
    zones = draw(
        st.lists(
            st.tuples(z, z, st.integers(1, 12), st.integers(1, 12), st.integers(0, 2)),
            max_size=12,
        )
    )
    return level, pts, hot, threshold, max_salt, zones


def _case_ring(x0, y0, x1, y1, kind):
    if kind == 0:
        return rect_ring(x0, y0, x1, y1)
    if kind == 1:
        return np.array([x0, y0, x1, y0, x0, y1])
    mx, my = (x0 + x1) / 2, (y0 + y1) / 2
    return np.array([x0, y0, mx, y0 - (y1 - y0) / 4, x1, y0, x1, my, x0, y1])


def _per_copy_zone_rows(tbl, hist, level, bounds):
    """The per-copy zone rows as ``(fid, rank, range)``: one per zone
    and covering cell that holds points, and per salt of that cell,
    each in the range of its rank. Covering cells are counted here one
    column and row at a time, from each ring's own bounding box."""
    cells, per = hist
    base = dict(zip(cells.tolist(), (np.cumsum(per) - per).tolist()))
    salts = dict(zip(cells.tolist(), per.tolist()))
    side = 1 << level
    cw = 100.0 / side
    out = []
    for fid, ring in zip(tbl["fid"].to_pylist(), tbl["ring_xy"].to_pylist()):
        xs, ys = ring[0::2], ring[1::2]
        lo = lambda v: max(int(np.floor(v / cw)), 0)  # noqa: E731
        hi = lambda v: min(int(np.floor(v / cw)), side - 1) + 1  # noqa: E731
        for col in range(lo(min(xs)), hi(max(xs))):
            for row in range(lo(min(ys)), hi(max(ys))):
                c = int(cells_from_xy([(col + 0.5) * cw], [(row + 0.5) * cw], level)[0])
                for j in range(salts.get(c, 0)):
                    r = base[c] + j
                    rid = partition.range_ids(np.array([r]), bounds)
                    out.append((fid, r, int(rid[0])))
    return sorted(out)


@settings(max_examples=40, deadline=None)
@example(case=(3, [(1, 1)], 0, None, 1, []))
@example(case=(6, [(1, 1)] * 3 + [(6, 6)], 20, 3, 4, [(0, 0, 12, 12, 2), (40, 40, 1, 1, 0)]))
@given(case=_zone_row_cases())
def test_zone_rows_equal_per_copy_reference(case):
    """:func:`_zone_rows` against the per-copy layout it replaces, at
    1, 3 and 5 planned ranges, over the case's zone block and an empty
    one: the ``(fid, rank, range)`` rows its ``ranks`` lists explode to
    are the per-copy rows, each (zone, range) is one row, each row's
    ``ring_xy`` is its source row's, and each row's range is the range
    of its ranks."""
    level, pts, hot, threshold, max_salt, zones = case
    cw = 100.0 / (1 << level)
    px = np.array([(a / 4 + 0.1) * cw for a, _ in pts] + [0.5 * cw] * hot)
    py = np.array([(b / 4 + 0.1) * cw for _, b in pts] + [0.5 * cw] * hot)
    cell = cells_from_xy(px, py, level)
    cells, n = np.unique(cell[cell != -1], return_counts=True)
    per = _salt_plan(n, threshold, max_salt)
    rings = [
        _case_ring(a * cw / 4, b * cw / 4, (a + w) * cw / 4, (b + h) * cw / 4, kind)
        for a, b, w, h, kind in zones
    ]
    tbl = pa.table(
        {
            "fid": pa.array(np.arange(7, 7 + len(rings)), pa.int64()),
            "ring_xy": pa.array([r.tolist() for r in rings], pa.list_(pa.float64())),
        }
    )
    src_ring = dict(zip(tbl["fid"].to_pylist(), tbl["ring_xy"].to_pylist()))
    for t in (tbl, tbl.slice(0, 0)):
        for parts in (1, 3, 5):
            bounds = _range_bounds(n, per, parts)
            got, ids = _zone_rows(bounds, (cells, per), level, t)
            assert len(ids) == got.num_rows
            assert got.column_names == ["fid", "ring_xy", "ranks"]
            rows = got.to_pylist()
            exploded = sorted(
                (r["fid"], k, int(i)) for r, i in zip(rows, ids) for k in r["ranks"]
            )
            want = _per_copy_zone_rows(t, (cells, per), level, bounds)
            assert exploded == want, parts
            assert all(r["ranks"] for r in rows)
            assert len({(r["fid"], int(i)) for r, i in zip(rows, ids)}) == len(rows)
            assert all(r["ring_xy"] == src_ring[r["fid"]] for r in rows)
    if threshold is not None and hot > threshold and max_salt > 1:
        assert (per > 1).any()


def test_join_range_builds_zones_once_per_split_group(ray_session, monkeypatch):
    """On a ``skew_sortmerge``-shaped input (4,000 lattice points, about
    30% of them in one level-6 cell, salted at 200 points, against
    1,000 overlapping rectangles, in four ranges), each range's reduce
    task builds its :class:`ZoneSet` from at most one row per (zone,
    zone split group), not from one copy per covering cell and salt
    (about 18k rows over the ranges)."""
    import ray
    import ray.data

    from rsgislib_ray.stages.spatial_join import ZoneSet

    rng = np.random.default_rng(2401)
    n = 4_000
    x = rng.integers(0, 10000, n) / 100.0 + 0.005
    y = rng.integers(0, 10000, n) / 100.0 + 0.005
    hot = rng.random(n) < 0.3
    x = np.where(hot, 50.0 + (x - np.floor(x)), x)
    y = np.where(hot, 50.0 + (y - np.floor(y)), y)
    points = pa.table({"pt_row": np.arange(n, dtype=np.int64), "x": x, "y": y})
    x0 = rng.integers(0, 88, 1_000).astype(np.float64)
    y0 = rng.integers(0, 88, 1_000).astype(np.float64)
    x1, y1 = x0 + 4 + rng.integers(0, 9, 1_000), y0 + 4 + rng.integers(0, 9, 1_000)
    ring = np.column_stack([x0, y0, x1, y0, x1, y1, x0, y1])
    zones = pa.table(
        {
            "fid": pa.array(np.arange(1_000, dtype=np.int64)),
            "ring_xy": pa.FixedSizeListArray.from_arrays(pa.array(ring.ravel()), 8),
        }
    )
    monkeypatch.setattr(partition, "TASK_ROWS", 1_000)
    seen, runs = [], []
    from_table = ZoneSet.from_table.__func__

    def spy(cls, tbl, *a, **k):
        seen.append(tbl)
        return from_table(cls, tbl, *a, **k)

    reduce = partition.reduce

    def reduce_here(fn, splits, parts):
        """Runs each range's ``_join_range`` once more in this process,
        on the same parts, with ``ZoneSet.from_table`` spied."""
        groups = len(splits) - fn.args[2]
        with monkeypatch.context() as m:
            m.setattr(ZoneSet, "from_table", classmethod(spy))
            for i in range(parts):
                fn(*ray.get([s[i] for s in splits]))
        runs.append((groups, parts))
        return reduce(fn, splits, parts)

    monkeypatch.setattr(partition, "reduce", reduce_here)
    half = n // 2
    out = spatial_join_points_sortmerge(
        ray.data.from_arrow([points.slice(0, half), points.slice(half)]), zones,
        level=6, key_col="pt_row", salt_threshold=200,
    )
    assert out.count() > 0
    [(groups, parts)] = runs
    assert parts == 4 and len(seen) == parts
    for tbl in seen:
        fid = tbl["fid"].to_numpy()
        assert np.bincount(fid).max() <= groups
    assert 1_000 <= sum(t.num_rows for t in seen) <= 1_000 * groups * parts


def test_held_inputs_start_no_execution(ray_session, sf_dir, monkeypatch):
    """The salted join over a ``from_arrow`` input, and the per-block
    cell counts (``map_blocks`` over a ``from_arrow`` input) with their
    ``combine``, start no Ray Data execution and call no
    ``materialize`` (a copy of the Dataset, and driver round trips):
    their blocks exist, so they are taken as they are.
    A lazy input executes, and materializes, exactly once."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from rsgislib_ray.stages import segsum
    from rsgislib_ray.stages.spatial_join import _cell_counts

    runs, mats = [], []

    def spy(log, fn):
        def wrapped(self, *a, **k):
            log.append(self)
            return fn(self, *a, **k)

        return wrapped

    skew = _skew_table(sf_dir)
    half = skew.num_rows // 2
    held = ray.data.from_arrow([skew.slice(0, half), skew.slice(half)])
    zones = td.zones_from_part(sf_dir)
    monkeypatch.setattr(
        StreamingExecutor, "execute", spy(runs, StreamingExecutor.execute)
    )
    monkeypatch.setattr(
        ray.data.Dataset, "materialize", spy(mats, ray.data.Dataset.materialize)
    )
    out = spatial_join_points_sortmerge(
        held, zones, level=6, key_col="pt_row", salt_threshold=200
    )
    assert out.count() > 0 and runs == [] and mats == []
    parts = partition.map_blocks(
        ray.data.from_arrow(skew), _cell_counts, x_col="x", y_col="y", level=6
    )
    hist = segsum.combine(parts, "cell", ["partial"])
    assert hist["partial"].to_numpy().sum() == skew.num_rows
    assert runs == [] and mats == []
    spatial_join_points_sortmerge(
        held.map_batches(_tag, batch_format="pyarrow"), zones,
        level=6, key_col="pt_row", salt_threshold=200,
    )
    assert len(runs) == 1 and len(mats) == 1


def test_sortmerge_builds_one_dataset(ray_session, sf_dir, monkeypatch):
    """A ``from_arrow`` input joined by the salted sort-merge join
    creates exactly one Dataset, its output: the histogram's count
    partials are summed as their tasks hold them."""
    import ray.data

    held = ray.data.from_arrow(_skew_table(sf_dir))
    zones = td.zones_from_part(sf_dir)
    made = []
    orig_init = ray.data.Dataset.__init__

    def spy(self, *a, **k):
        orig_init(self, *a, **k)
        made.append(self)

    monkeypatch.setattr(ray.data.Dataset, "__init__", spy)
    out = spatial_join_points_sortmerge(
        held, zones, level=6, key_col="pt_row", salt_threshold=200
    )
    monkeypatch.undo()
    assert made == [out]
    assert out.count() > 0


def test_sortmerge_query_blocks_keep_schema_downstream(
    ray_session, sf_dir, monkeypatch
):
    """The ``spatial_join_sortmerge`` query, then an identity
    ``map_batches``: every block carries the (pt_id, fid) schema. With
    8 ranges (the partition rule at one row a task on 8 CPUs), the
    last ones lie past the last cell of this corpus; an empty range
    block would come out of the query's map without a schema."""
    import ray

    from rsgislib_ray.pipelines.queries import q_spatial_join_sortmerge

    monkeypatch.setattr(partition, "TASK_ROWS", 1)
    monkeypatch.setattr(partition, "cluster_cpus", lambda: 8)

    out = q_spatial_join_sortmerge(sf_dir).map_batches(_tag, batch_format="pyarrow")
    blocks = ray.get(out.to_arrow_refs())
    schema = pa.schema([("pt_id", pa.int64()), ("fid", pa.int64())])
    assert blocks and all(b.schema == schema for b in blocks)
    assert sum(b.num_rows for b in blocks) > 0


# ---------------------------------------------------------------------------
# differential: sort-merge == broadcast == brute force at every level
# ---------------------------------------------------------------------------


@st.composite
def _join_cases(draw):
    """(level, anchor col, anchor row, points, zones) near one anchor
    cell anywhere in the level's grid. Points are (x, y) and zones
    (x, y, width, height, is_triangle) in quarter cells from the
    anchor's corner, so many points lie on zone and cell edges; zones
    may reach past the frame, points stay inside it."""
    level = draw(st.integers(0, 26))
    side = 1 << level
    span = min(side, 4)
    col0 = draw(st.integers(0, side - span))
    row0 = draw(st.integers(0, side - span))
    q = st.integers(0, 4 * span - 1)
    pts = draw(st.lists(st.tuples(q, q), min_size=1, max_size=30))
    zones = draw(
        st.lists(
            st.tuples(q, q, st.integers(1, 8), st.integers(1, 8), st.booleans()),
            min_size=1,
            max_size=8,
        )
    )
    return level, col0, row0, pts, zones


# Level-23 cells (col 5, row 7) and (col 5, row 7 + 2**22): one zone
# covers both. Their keys collided under the old salted key
# ``cell << 20 | salt``, which joined the zone twice to their points.
_COLLIDING = (
    23, 5, 7,
    [(2, 2), (3, 3), (2, 4 * 2**22 + 2)],
    [(1, 1, 2, 4 * 2**22 + 2, False)],
)


@settings(max_examples=12, deadline=None)
@example(case=_COLLIDING)
@given(case=_join_cases())
def test_rank_keyed_join_equals_broadcast_and_brute_force(ray_session, case):
    """At any level 0-26, for every ``how``, salted (every cell with two
    points is hot, salts capped at 2) and not: the sort-merge join,
    the broadcast join and brute-force even-odd PIP give the same
    rows. One out-of-frame point rides along for left / anti."""
    import ray
    import ray.data

    from rsgislib_ray.functions.geom import rect_ring
    from rsgislib_ray.stages.spatial_join import spatial_join_points

    level, col0, row0, pts, zones = case
    cw = 100.0 / (1 << level)
    px = np.array([(col0 + a / 4) * cw for a, _ in pts] + [-1.0])
    py = np.array([(row0 + b / 4) * cw for _, b in pts] + [-1.0])
    rings = []
    for a, b, w, h, tri in zones:
        x0, y0 = (col0 + a / 4) * cw, (row0 + b / 4) * cw
        x1, y1 = (col0 + (a + w) / 4) * cw, (row0 + (b + h) / 4) * cw
        rings.append(
            np.array([x0, y0, x1, y0, x0, y1]) if tri else rect_ring(x0, y0, x1, y1)
        )
    fids = np.arange(100, 100 + len(rings))
    tbl = pa.table(
        {
            "fid": pa.array(fids, pa.int64()),
            "ring_xy": pa.ListArray.from_arrays(
                pa.array(np.cumsum([0] + [len(r) for r in rings]), pa.int32()),
                pa.array(np.concatenate(rings)),
            ),
        }
    )
    key = np.arange(len(px), dtype=np.int64) * 3 + 1
    points = pa.table({"pt_row": key, "x": px, "y": py})
    hit = {
        k: [f for f, r in zip(fids.tolist(), rings) if _even_odd(x, y, r)]
        for k, x, y in zip(key.tolist(), px, py)
    }
    pairs = sorted((k, f) for k, fs in hit.items() for f in fs)
    un = [(k, -1) for k, fs in hit.items() if not fs]
    want = {
        "inner": pairs,
        "left": sorted(pairs + un),
        "semi": [(k, -1) for k, fs in hit.items() if fs],
        "anti": un,
    }

    def rows(t):
        """(pt_row, fid) rows; fid -1 where the join gives none."""
        if "fid" in t.column_names:
            fid = t["fid"].fill_null(-1).to_pylist()
        else:
            fid = [-1] * t.num_rows
        return sorted(zip(t["pt_row"].to_pylist(), fid))

    half = len(px) // 2
    src = ray.data.from_arrow([points.slice(0, half), points.slice(half)])
    for how in HOWS:
        bc = pa.concat_tables(
            ray.get(spatial_join_points(src, tbl, how=how).to_arrow_refs())
        )
        if how == "semi":
            bc = bc.filter(bc["in_zone"])
        assert rows(bc) == want[how], ("broadcast", how)
        for salt in (None, 1):
            out = spatial_join_points_sortmerge(
                src, tbl, level=level, key_col="pt_row", how=how,
                salt_threshold=salt, max_salt=2,
            )
            got = pa.concat_tables(ray.get(out.to_arrow_refs()))
            assert rows(got) == want[how], ("sortmerge", how, salt)
