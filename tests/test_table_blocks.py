"""``partition.table_blocks`` and ``testdata.read_blocks``: a table the
driver holds is cut into held blocks where it is, with the blocks
Ray's split ``.repartition(n)`` gives, and no module under
``rsgislib_ray/`` calls ``.repartition(`` (fixture and in-memory inputs
enter the engine already cut, so no Ray Data all-to-all shapes them)."""

import ast
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rsgislib_ray.sources import testdata as td
from rsgislib_ray.stages import partition

PKG = Path(__file__).resolve().parents[1] / "rsgislib_ray"


def _table(rows: int) -> pa.Table:
    k = np.arange(rows, dtype=np.int64)
    return pa.table({"k": k, "s": pa.array([f"r{i}" for i in k], pa.string())})


def _tables(ds: ray.data.Dataset) -> list[pa.Table]:
    return ray.get([ref for ref, _ in partition.held_blocks(ds)[1]])


def _check_against_repartition(t: pa.Table, n: int, ours: ray.data.Dataset) -> None:
    assert partition._held(ours) is not None
    got = _tables(ours)
    want = [b for b in _tables(ray.data.from_arrow(t).repartition(n)) if b.num_rows]
    assert pa.concat_tables(got).equals(t)
    if t.num_rows:
        assert all(b.num_rows for b in got)
        assert len(got) == len(want)
        assert all(g.equals(w) for g, w in zip(got, want))
    else:
        assert len(got) == 1 and got[0].schema.equals(t.schema)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(rows=st.integers(0, 300), n=st.integers(1, 70))
@example(rows=0, n=5)
@example(rows=10, n=32)
@example(rows=300, n=1)
@example(rows=7, n=7)
def test_blocks_match_split_repartition(ray_session, rows, n):
    """Every non-empty block holds the rows Ray's split repartition
    gives it, in order (its float-accumulated cuts), also with fewer
    rows than blocks; no zero-row block is kept unless the table has
    no rows, and then one typed block is; the result holds its
    blocks."""
    t = _table(rows)
    _check_against_repartition(t, n, partition.table_blocks(t, n))


@pytest.mark.parametrize(
    "name,n,columns",
    [
        ("supplier", 32, ["s_suppkey"]),
        ("lineitem", 64, ["l_orderkey", "l_linenumber", "l_extendedprice"]),
        ("orders", 16, None),
    ],
)
def test_read_blocks_match_read_and_repartition(ray_session, sf_dir, name, n, columns):
    """A fixture read by ``read_blocks`` has the blocks, column types and
    stripped schema metadata of ``read_parquet_clean(...).repartition(n)``."""
    path = f"{sf_dir}/{name}.parquet"
    ours = td.read_blocks(path, n, columns=columns)
    t = td.read_parquet_clean(path, columns=columns).to_arrow_refs()
    t = pa.concat_tables(ray.get(t))
    assert ours.schema().base_schema.metadata is None
    assert ours.schema().base_schema.equals(t.schema)
    _check_against_repartition(t, n, ours)


def _repartition_calls(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "repartition"
    ]


def test_no_repartition_in_package():
    """Inputs are cut into blocks where they are read or held
    (``testdata.read_blocks``, ``partition.table_blocks``), not by a Ray
    Data ``Repartition``."""
    bad = {
        str(p.relative_to(PKG)): lines
        for p in sorted(PKG.rglob("*.py"))
        if (lines := _repartition_calls(ast.parse(p.read_text(), str(p))))
    }
    assert bad == {}, f".repartition( calls; use read_blocks or table_blocks: {bad}"
