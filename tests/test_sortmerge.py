"""Sort-merge join internals: the run-join kernel over interior and
boundary rows, the salt plan summed by the caller, the output block
schema and the single-shuffle plan shape."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rsgislib_ray.functions.cells import cells_from_xy
from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages.spatial_join import (
    _join_block,
    _join_boundary,
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


def _plan_spy(monkeypatch):
    """Capture the (hcells, s) salt plan handed to ray.put."""
    import ray

    captured = {}
    orig_put = ray.put

    def spy(obj, *a, **k):
        if (
            isinstance(obj, tuple)
            and len(obj) == 2
            and all(isinstance(o, np.ndarray) for o in obj)
        ):
            captured["plan"] = obj
        return orig_put(obj, *a, **k)

    monkeypatch.setattr(ray, "put", spy)
    return captured


# ---------------------------------------------------------------------------
# kernel: interior + boundary == brute force
# ---------------------------------------------------------------------------


def _hand_union(rng):
    """A cell-sorted union table in the sort-merge row layout: lattice
    points (some off-frame, cell -1) and integer rectangles plus
    triangles (ring rows), each zone copied into 1-2 cells. Cell 3 is
    given most of the rows so it can span three blocks."""
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
def test_interior_plus_boundary_equals_brute_force(how):
    t, zones = _hand_union(np.random.default_rng(7))
    cell = t["cell"].to_numpy()
    lo3, hi3 = np.searchsorted(cell, 3), np.searchsorted(cell, 3, "right")
    assert hi3 - lo3 >= 6
    cuts = [0, lo3 - 2, lo3 + 2, hi3 - 2, hi3 + 3, len(t)]
    blocks = [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    assert sum(3 in b["cell"].to_numpy() for b in blocks) == 3

    joined = [_join_block(how, "x", "y", "pt_row", b) for b in blocks]
    outs = [pairs for pairs, _ in joined]
    outs.append(_join_boundary(how, "x", "y", "pt_row", *[rows for _, rows in joined]))
    assert all(o.schema == PAIR_SCHEMA for o in outs)
    got = pa.concat_tables(outs)
    assert sorted(zip(got["pt_row"].to_pylist(), got["fid"].to_pylist())) == _brute(
        t, zones, how
    )
    if how == "inner":
        assert got.num_rows > 20


def test_join_boundary_with_no_blocks_is_typed_empty():
    for how in HOWS:
        out = _join_boundary(how, "x", "y", "pt_row")
        assert out.num_rows == 0 and out.schema == PAIR_SCHEMA


# ---------------------------------------------------------------------------
# salt plan
# ---------------------------------------------------------------------------


def test_salt_plan_equals_naive_count(ray_session, sf_dir, monkeypatch):
    import ray.data

    skew = _skew_table(sf_dir)
    # a second, smaller hot spot, so the plan holds a capped and an
    # uncapped cell
    x, y = skew["x"].to_numpy().copy(), skew["y"].to_numpy().copy()
    second = skew["pt_row"].to_numpy() % 10 == 3
    x[second] = 25.0 + (x[second] - np.floor(x[second])) / 2
    y[second] = 25.0 + (y[second] - np.floor(y[second])) / 2
    skew = pa.table({"pt_row": skew["pt_row"], "x": x, "y": y})
    captured = _plan_spy(monkeypatch)
    threshold, max_salt = 100, 4
    spatial_join_points_sortmerge(
        ray.data.from_arrow(skew).repartition(8), td.zones_from_part(sf_dir),
        level=6, key_col="pt_row", salt_threshold=threshold, max_salt=max_salt,
    ).count()
    cell = cells_from_xy(skew["x"].to_numpy(), skew["y"].to_numpy(), 6)
    u, c = np.unique(cell[cell != -1], return_counts=True)
    hot = c > threshold
    assert hot.sum() == 2
    hcells, s = captured["plan"]
    assert hcells.dtype == np.int64 and s.dtype == np.int64
    np.testing.assert_array_equal(hcells, u[hot])
    np.testing.assert_array_equal(s, np.minimum(-(-c[hot] // threshold), max_salt))
    assert (s == max_salt).any() and (s < max_salt).any()


def test_all_off_frame_points_build_no_plan(ray_session, sf_dir, monkeypatch):
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
    zones = td.zones_from_part(sf_dir)
    captured = _plan_spy(monkeypatch)

    def run(how, salt):
        out = spatial_join_points_sortmerge(
            ray.data.from_arrow(pts).repartition(3), zones,
            key_col="pt_row", how=how, salt_threshold=salt,
        )
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
        return sorted(zip(got["pt_row"].to_pylist(), got["fid"].to_pylist()))

    for how in HOWS:
        assert run(how, 1) == run(how, None), how
    assert "plan" not in captured
    assert run("anti", 1) == [(i, -1) for i in range(n)]


# ---------------------------------------------------------------------------
# output blocks and plan shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("how", HOWS)
def test_output_blocks_carry_pair_schema(ray_session, sf_dir, how):
    """Every raw output block is (pt_row int64, fid int64), so the
    blocks concatenate as-is — on the salted skew corpus, and on one
    whose points all share a cell, so most sorted blocks are empty."""
    import ray
    import ray.data

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
        assert all(b.schema == PAIR_SCHEMA for b in blocks)
        assert pa.concat_tables(blocks).num_rows == out.count()


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


def test_salted_sortmerge_runs_one_shuffle(ray_session, sf_dir, monkeypatch):
    """Across every dataset the salted join builds, the executed
    operators hold exactly one all-to-all, the range ``Sort``, and no
    ``Aggregate`` or ``MapGroups``, and are exactly those of the count
    pass and the shuffle (read from ``Dataset.stats()``)."""
    import ray.data

    src = ray.data.from_arrow(_skew_table(sf_dir)).repartition(8).materialize()
    zones = td.zones_from_part(sf_dir)
    made = []
    orig_init = ray.data.Dataset.__init__

    def spy(self, *a, **k):
        orig_init(self, *a, **k)
        made.append(self)

    monkeypatch.setattr(ray.data.Dataset, "__init__", spy)
    out = spatial_join_points_sortmerge(
        src, zones, level=6, key_col="pt_row", salt_threshold=200
    )
    assert out.count() > 0
    monkeypatch.undo()
    ops = set().union(*(_executed_ops(ds.stats()) for ds in made))
    ops -= _executed_ops(src.stats())  # the input's own repartition
    names = sorted(name for name, _ in ops)
    # two executions: the count pass, then prep + union + Sort; the
    # sorted blocks are joined by plain tasks, with no third execution
    union = [n for n in names if n.startswith("Union")]
    assert union and [n for n in names if n not in union] == [
        "MapBatches(cnt_partial)",
        "MapBatches(prep_points)",
        "MapBatches(prep_zones)",
        "Sort",
    ], names
    # the result keeps the range shuffle in its stats lineage
    stats = out.stats()
    assert "SortMap" in stats and "SortReduce" in stats
    assert not any("Aggregate" in n or "MapGroups" in n for n in names), names
    all_to_all = [n for n in names if n in ("Sort", "Repartition", "RandomShuffle")]
    assert all_to_all == ["Sort"], names
