"""``partition.map_blocks``: a function once per block, as plain tasks
over blocks that are already held and fused into one execution over a
lazy plan; and the combines built on it (``segsum.combine`` and
``combine_dataset`` take its held blocks, and ``zonal_stats`` over held
cells starts no Ray Data execution)."""

import os
import uuid

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data
from ray.data import DataContext
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages import partition, segsum
from rsgislib_ray.stages.zonal import zonal_stats
from rsgislib_ray.state.broadcast import cached


def _blocks(n_blocks: int = 3, rows: int = 5) -> list[pa.Table]:
    return [
        pa.table({"k": np.arange(i * rows, (i + 1) * rows, dtype=np.int64)})
        for i in range(n_blocks)
    ]


def _double(block: pa.Table, scale: int = 2) -> pa.Table:
    return pa.table({"k": block["k"], "d": block["k"].to_numpy() * scale})


def _collect(held: list) -> pa.Table:
    return pa.concat_tables(ray.get([ref for ref, _ in held]))


def _executions(monkeypatch) -> list:
    """A log that gets one entry per Ray Data execution started."""
    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **k):
        runs.append(1)
        return execute(self, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return runs


def test_held_and_lazy_branches_agree_in_block_order(ray_session, monkeypatch):
    """Over held blocks, one output block per group of adjacent input
    blocks of at most ``TASK_ROWS`` rows, in order, with its metadata:
    the three 5-row blocks run as one task, and as three at 5 rows a
    task. The lazy branch (a plan over the same blocks) returns the
    same rows."""
    blocks = _blocks()
    held_ds = ray.data.from_arrow(blocks)
    held = partition.map_blocks(held_ds, _double, scale=3)
    assert [m.num_rows for _, m in held] == [15]
    assert ray.get(held[0][0]).equals(_double(pa.concat_tables(blocks), 3))
    with monkeypatch.context() as mp:
        mp.setattr(partition, "TASK_ROWS", 5)
        one_each = partition.map_blocks(held_ds, _double, scale=3)
    assert [m.num_rows for _, m in one_each] == [5, 5, 5]
    for (ref, _), b in zip(one_each, blocks):
        assert ray.get(ref).equals(_double(b, 3))
    monkeypatch.setattr(
        DataContext.get_current().execution_options, "preserve_order", True
    )
    lazy_ds = held_ds.map_batches(lambda b: b, batch_format="pyarrow")
    lazy = partition.map_blocks(lazy_ds, _double, scale=3)
    assert _collect(lazy).equals(_collect(held))


def _ref_probe(block: pa.Table, ref=None) -> pa.Table:
    """The worker's pid, whether ``ref`` arrived as a ref, and the token
    ``cached`` built for it in this process."""
    token = cached(ref, build=lambda _: uuid.uuid4().hex)
    n = block.num_rows
    return pa.table(
        {
            "pid": np.full(n, os.getpid(), dtype=np.int64),
            "is_ref": np.full(n, isinstance(ref, ray.ObjectRef)),
            "token": [token] * n,
        }
    )


def test_objectref_kwarg_reaches_fn_unresolved(ray_session):
    """A ref bound as a kwarg is not resolved by the task: ``fn`` sees
    the ref, so ``cached`` keys on it and a later call in the same
    worker process reuses what the first one built."""
    ref = ray.put(np.arange(10))
    ds = ray.data.from_arrow(_blocks(n_blocks=2, rows=1))
    tokens: dict[int, set] = {}
    calls: dict[int, int] = {}
    for _ in range(4):
        out = _collect(partition.map_blocks(ds, _ref_probe, ref=ref))
        assert all(out["is_ref"].to_pylist())
        for pid, tok in zip(out["pid"].to_pylist(), out["token"].to_pylist()):
            tokens.setdefault(pid, set()).add(tok)
            calls[pid] = calls.get(pid, 0) + 1
    # every worker process built the value once, however often it ran
    assert all(len(t) == 1 for t in tokens.values()), tokens
    assert max(calls.values()) > 1, calls


def test_zero_row_blocks_and_all_empty_input_stay_typed(ray_session):
    """Zero-row blocks start no task; an input whose blocks are all
    empty still runs ``fn`` once, so the result has its schema."""
    t = _blocks(n_blocks=1)[0]
    ds = ray.data.from_arrow([t.slice(0, 0), t, t.slice(0, 0)])
    held = partition.map_blocks(ds, _double)
    assert len(held) == 1
    assert _collect(held).equals(_double(t))
    empty = partition.map_blocks(
        ray.data.from_arrow([t.slice(0, 0), t.slice(0, 0)]), _double
    )
    assert len(empty) == 1 and empty[0][1].num_rows == 0
    assert _collect(empty).schema == _double(t).schema


def test_held_input_starts_no_execution(ray_session, monkeypatch):
    """Over ``from_arrow`` blocks no Ray Data execution starts; over a
    lazy plan exactly one does."""
    runs = _executions(monkeypatch)
    ds = ray.data.from_arrow(_blocks())
    partition.map_blocks(ds, _double)
    assert runs == []
    lazy = ds.map_batches(lambda b: b, batch_format="pyarrow")
    partition.map_blocks(lazy, _double)
    assert len(runs) == 1


@pytest.mark.parametrize("fn", [segsum.combine, segsum.combine_dataset])
def test_combines_reject_a_dataset(ray_session, fn):
    """The combines take held partial blocks; a Dataset is a TypeError
    that names the primitive which builds them."""
    ds = ray.data.from_arrow(pa.table({"k": [1, 2], "v": [3, 4]}))
    with pytest.raises(TypeError, match="map_blocks"):
        fn(ds, "k", ["v"])


def test_combine_over_map_blocks_equals_driver_kernel(ray_session):
    """``combine(map_blocks(...))`` sums partials of every block."""
    blocks = _blocks(n_blocks=4, rows=6)
    ds = ray.data.from_arrow(blocks)

    def partial(b: pa.Table) -> pa.Table:
        k = b["k"].to_numpy()
        return segsum.combine_arrays({"g": k % 3}, {"n": np.ones(len(k), np.int64)})

    got = segsum.combine(partition.map_blocks(ds, partial), "g", ["n"])
    k = pa.concat_tables(blocks)["k"].to_numpy()
    assert got.equals(
        segsum.combine_arrays({"g": k % 3}, {"n": np.ones(len(k), np.int64)})
    )


def test_zonal_stats_executes_cells_at_most_once(ray_session, sf_dir, monkeypatch):
    """Moment and order stats together read the cells once: a lazy
    ``cells`` is one Ray Data execution, and cells that hold their
    blocks start none. Both give the same table."""
    zones = td.zones_from_part(sf_dir)
    cells = pa.concat_tables(ray.get(td.cells_from_lineitem(sf_dir).to_arrow_refs()))
    half = cells.num_rows // 2
    held = ray.data.from_arrow([cells.slice(0, half), cells.slice(half)])
    lazy = held.map_batches(lambda b: b, batch_format="pyarrow")
    stats = ("count", "mean", "median")
    runs = _executions(monkeypatch)
    got_lazy = zonal_stats(lazy, zones, "val_cents", stats=stats)
    assert len(runs) == 1
    got_held = zonal_stats(held, zones, "val_cents", stats=stats)
    assert len(runs) == 1
    assert got_held.equals(got_lazy)
    assert got_held["count"].to_numpy().sum() > 0


def _input_runs(monkeypatch, marker) -> list:
    """A log that gets one entry per Ray Data execution whose plan runs
    the function ``marker`` (so executes the lazy input it maps)."""
    runs = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *a, **k):
        todo, names = [dag], []
        while todo:
            op = todo.pop()
            names.append(op.name)
            todo.extend(op.input_dependencies)
        if any(marker.__name__ in n for n in names):
            runs.append(names)
        return execute(self, dag, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return runs


def _lazy_input(tbl: pa.Table) -> ray.data.Dataset:
    return ray.data.from_arrow(
        [tbl.slice(0, tbl.num_rows // 2), tbl.slice(tbl.num_rows // 2)]
    ).map_batches(_lazy_input_marker, batch_format="pyarrow")


def _lazy_input_marker(block: pa.Table) -> pa.Table:
    return block


def _same_rows(a, b, key: str) -> bool:
    return a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True)
    )


def test_thin_and_slic_execute_a_lazy_input_once(ray_session, sf_dir, monkeypatch):
    """``thin_by_cell`` (winners combine, then the filter) and
    ``slic_superpixels`` (seed pass, one combine per iteration, then
    the label map) hold a lazy input at entry: it executes once, with
    their results consumed, and the results equal those over held
    blocks."""
    from rsgislib_ray.pipelines.queries import _SLIC_K, _SLIC_N, _slic_src_tbl
    from rsgislib_ray.stages.sampling import thin_by_cell
    from rsgislib_ray.stages.slic import slic_superpixels

    pts = pa.concat_tables(ray.get(td.points_from_orders(sf_dir).to_arrow_refs()))
    raster = _slic_src_tbl()
    want_thin = thin_by_cell(ray.data.from_arrow(pts), "pt_id", level=5).to_pandas()
    want_slic, want_ctr = slic_superpixels(ray.data.from_arrow(raster), _SLIC_N, _SLIC_K)
    want_slic = want_slic.to_pandas()
    runs = _input_runs(monkeypatch, _lazy_input_marker)
    thin = thin_by_cell(_lazy_input(pts), "pt_id", level=5).to_pandas()
    assert len(runs) == 1, runs
    runs.clear()
    slic, ctr = slic_superpixels(_lazy_input(raster), _SLIC_N, _SLIC_K)
    slic = slic.to_pandas()
    assert len(runs) == 1, runs
    assert len(thin) > 0 and _same_rows(thin, want_thin, "pt_id")
    assert _same_rows(slic, want_slic, "pixel_id") and np.array_equal(ctr, want_ctr)
