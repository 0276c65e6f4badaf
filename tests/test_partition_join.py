"""``partition.join``, the engine's one equi-join: a differential test
against ``pandas.merge``, its key check, a guard that no Ray
``Dataset.join`` (or what only it needed) comes back into the package,
and ``components.attach_roots``' join route against its broadcast
route."""

import ast
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rsgislib_ray.stages import partition

PKG = Path(__file__).resolve().parents[1] / "rsgislib_ray"

I64 = np.iinfo(np.int64)
KEYS = st.sampled_from([I64.min, I64.min + 1, -3, 0, 1, 2, 7, I64.max - 1, I64.max])


def _side(blocks: list[list[tuple[int, int]]], key: str, val: str) -> ray.data.Dataset:
    """One ``from_arrow`` block per list, zero-row ones included."""
    return ray.data.from_arrow(
        [
            pa.table(
                {
                    key: pa.array([k for k, _ in rows], pa.int64()),
                    val: pa.array([v for _, v in rows], pa.int64()),
                }
            )
            for rows in blocks
        ]
    )


def _rows(df: pd.DataFrame) -> list[tuple]:
    return sorted(
        tuple(None if pd.isna(v) else int(v) for v in row)
        for row in df.itertuples(index=False)
    )


SIDE = st.lists(
    st.lists(st.tuples(KEYS, st.integers(-50, 50)), max_size=6), min_size=1, max_size=4
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    left=SIDE,
    right=SIDE,
    how=st.sampled_from(["inner", "left_outer"]),
    right_on=st.sampled_from([None, "rk"]),
)
def test_join_equals_pandas_merge(ray_session, left, right, how, right_on):
    """Every row pair of equal key, for keys repeated on both sides, on
    one side only, at the int64 bounds, over zero-row blocks and sides
    with no rows; ``left_outer`` keeps each unmatched left row once with
    a null right column. Columns: the left ones, then the right
    non-key ones, typed even when no row is left."""
    rkey = right_on or "k"
    out = partition.join(
        _side(left, "k", "a"), _side(right, rkey, "b"), "k", how, right_on=right_on
    )
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert got.column_names == ["k", "a", "b"]
    assert got.schema.field("b").type == pa.int64()
    ldf = pd.DataFrame([r for b in left for r in b], columns=["k", "a"], dtype=np.int64)
    rdf = pd.DataFrame([r for b in right for r in b], columns=[rkey, "b"], dtype=np.int64)
    want = ldf.merge(
        rdf,
        left_on="k",
        right_on=rkey,
        how="inner" if how == "inner" else "left",
        suffixes=("", "_r"),
    )[["k", "a", "b"]]
    assert _rows(got.to_pandas()) == _rows(want)


def test_join_rejects_a_non_integer_key(ray_session):
    """A float key is a ValueError that names the column."""
    left = ray.data.from_arrow(pa.table({"k": [1, 2], "a": [3, 4]}))
    right = ray.data.from_arrow(pa.table({"rk": [1.0, 2.0], "b": [5, 6]}))
    with pytest.raises(ValueError, match="'rk'"):
        partition.join(left, right, "k", right_on="rk")
    with pytest.raises(ValueError, match="inner or left_outer"):
        partition.join(left, left, "k", "outer")


def _ray_join_leftovers(tree: ast.AST) -> list[str]:
    gone = {"measured_join_partitions", "drop_empty_blocks", "drop_empty_blocks_counted"}
    bad = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and any(k.arg == "join_type" for k in node.keywords)
        ):
            bad.append(f"line {node.lineno}: .join(join_type=...)")
        name = (
            getattr(node, "id", None)
            or (node.attr if isinstance(node, ast.Attribute) else None)
            or (node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
        )
        if name in gone:
            bad.append(f"line {node.lineno}: {name}")
    return bad


def test_no_ray_dataset_join():
    """Every equi-join runs on ``partition.join``: no module under
    ``rsgislib_ray/`` calls Ray's ``Dataset.join`` (a ``.join`` call
    with ``join_type=``) or names what only it needed."""
    bad = {
        str(p.relative_to(PKG)): found
        for p in sorted(PKG.rglob("*.py"))
        if (found := _ray_join_leftovers(ast.parse(p.read_text(), str(p))))
    }
    assert bad == {}, f"use partition.join: {bad}"


def test_attach_roots_join_route_equals_broadcast(ray_session, monkeypatch):
    """With ``ROOTS_BROADCAST_MAX`` at 0, ``attach_roots`` takes its
    ``partition.join`` route, and returns the broadcast route's rows:
    a member's root, and its own id for a row outside every
    component."""
    from rsgislib_ray.stages import components

    ids = np.arange(40, dtype=np.int64)
    base = ray.data.from_arrow(
        [pa.table({"id": ids[:25], "x": ids[:25] * 3}), pa.table({"id": ids[25:], "x": ids[25:] * 3})]
    )
    roots = ray.data.from_arrow(
        pa.table({"id": np.array([3, 4, 9, 30, 31]), "__root": np.array([1, 1, 2, 5, 5])})
    )

    def rows(ds):
        t = pa.concat_tables(ray.get(ds.materialize().to_arrow_refs()))
        return sorted(zip(*[t[c].to_pylist() for c in ("id", "x", "__rep")]))

    joins = []
    real = partition.join

    def spy(*a, **k):
        joins.append(a[3])
        return real(*a, **k)

    monkeypatch.setattr(partition, "join", spy)
    broadcast = rows(components.attach_roots(base, "id", roots))
    assert joins == []
    monkeypatch.setattr(components, "ROOTS_BROADCAST_MAX", 0)
    joined = rows(components.attach_roots(base, "id", roots))
    assert joins == ["left_outer"]
    assert joined == broadcast
    rep = dict((i, r) for i, _, r in joined)
    assert rep[3] == 1 and rep[31] == 5 and rep[0] == 0 and rep[39] == 39
