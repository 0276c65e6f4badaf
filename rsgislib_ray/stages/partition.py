"""Engine-owned shuffles: held blocks split by a partition id in plain
Ray tasks, one plain Ray task reducing each partition, and no Ray Data
all-to-all. :func:`split` starts one task per group of adjacent blocks;
a caller's ``rows`` function gives the group's rows and each row's
partition id, from one of two plans:

- :func:`range_ids`, ranges between ascending boundaries: the
  sort-merge spatial join's exact-histogram rank ranges;
- :func:`hash_ids`, ``splitmix64`` folded over int64 key columns
  ``% parts``: ``segsum.segment_sum``, where every row of a key lands
  in one partition, which is then reduced whole.

:func:`reduce` runs one task per partition over its parts, in block
order, and wraps the results as one materialized Dataset;
:func:`hash_reduce` is the hash plan end to end, and :func:`group_apply`
runs a function once per key on it (``raster.halo_tiles``' tile
groups, ``overlay.overlay_union``'s tiles). :func:`join` is the
engine's equi-join (inner or left outer on one integer key): both
sides split on the hash plan, each partition joined by one reduce
task.

:func:`map_blocks` runs a function over the blocks, ahead of a shuffle
or a ``segsum`` combine: over blocks that are already held, as one
plain task per group of adjacent blocks, so no Ray Data execution
starts; over a lazy plan, fused into its one materializing execution.

Task size comes from held metadata, with no data pulled to decide:
:func:`bundles` groups adjacent held blocks, in order, up to
:data:`TASK_ROWS` rows, and :func:`map_blocks`, :func:`map_refs` and
:func:`split` run one task per group on its blocks concatenated. A
shuffle over ``rows`` input rows takes :func:`default_partitions`
``(rows) = clamp(ceil(rows / TASK_ROWS), 1, cpus)`` partitions.

:func:`table_blocks` cuts a table the driver holds into blocks where it
is, with no shuffle: a fixture or an in-memory input enters the engine
already held.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.block import BlockMetadataWithSchema

from rsgislib_ray.functions.arrayops import expand
from rsgislib_ray.functions.arrowize import arrowize
from rsgislib_ray.functions.hashing import hash_combine, splitmix64


def _held(ds: ray.data.Dataset) -> list | None:
    """The ``(block ref, BlockMetadata)`` of each block of ``ds``, in
    order, when its blocks exist already (a ``from_arrow`` source, an
    executed plan), read off the plan; ``None`` for a lazy plan."""
    from ray.data._internal.logical.interfaces import SourceOperator

    if ds._plan.has_computed_output():
        return list(ds._plan._snapshot_bundle.blocks)
    dag = ds._logical_plan.dag
    if isinstance(dag, SourceOperator) and dag.output_data() is not None:
        return [bm for bundle in dag.output_data() for bm in bundle.blocks]
    return None


def held_blocks(ds: ray.data.Dataset) -> tuple[ray.data.Dataset, list]:
    """``ds`` and the ``(block ref, BlockMetadata)`` of each of its
    blocks, in order. Blocks that exist already are taken as they are,
    with no Ray Data execution and no ``materialize`` copy; a lazy plan
    is materialized once, and that Dataset is returned in place of
    ``ds``."""
    blocks = _held(ds)
    if blocks is None:
        ds = ds.materialize()
        blocks = _held(ds)
    return ds, blocks


def held_rows(ds: ray.data.Dataset) -> tuple[ray.data.Dataset, int]:
    """``ds`` held (:func:`held_blocks`) and its row count, read off
    its blocks' metadata: no block is fetched."""
    ds, blocks = held_blocks(ds)
    return ds, sum(m.num_rows for _, m in blocks)


#: Rows one engine task is sized to. Adjacent held blocks share one task
#: up to this many rows (:func:`bundles`), and a shuffle takes one
#: partition per this many input rows, up to the CPU count
#: (:func:`default_partitions`). It is the row count at which a task's
#: fixed cost equals the kernel cost of its rows: one more plain task in
#: a round costs 1.85 ms (median; 1.42 ms min), and the range plan's
#: split kernel (cell rank, range id, group) 255-301 ns a row at 2k-4k
#: rows, so 1.85 ms buys 6,100-7,300 rows (BASELINE.md "Task size from
#: held metadata", ``ray.init(num_cpus=1)`` on one core).
TASK_ROWS = 6_000


def bundles(blocks: list) -> list[list]:
    """The refs of the non-empty held ``(ref, BlockMetadata)`` ``blocks``
    cut, in order, into one group per task: a block joins the group
    before it while the group stays at most :data:`TASK_ROWS` rows, so
    a larger block is a group alone. Read off the metadata: no block is
    fetched."""
    groups, rows = [], TASK_ROWS
    for ref, m in blocks:
        if m.num_rows:
            if rows + m.num_rows > TASK_ROWS:
                groups.append([])
                rows = 0
            groups[-1].append(ref)
            rows += m.num_rows
    return groups


def _concat(tables: tuple) -> pa.Table:
    """A task's group of blocks as one table, in order."""
    if len(tables) == 1:
        return tables[0]
    return pa.concat_tables(tables, promote_options="default")


@ray.remote(num_returns=2)
def _map_task(fn: Callable, *blocks: pa.Table):
    out = fn(_concat(blocks))
    return out, BlockMetadataWithSchema.from_block(out)


def map_blocks(ds: ray.data.Dataset, fn: Callable, **kwargs) -> list:
    """``fn(table, **kwargs)`` over the blocks of ``ds``, as held
    ``(table ref, BlockMetadata)`` blocks in block order. ``fn`` takes
    and returns a ``pa.Table``. ``kwargs`` are bound to ``fn``, not
    passed as task arguments, so an ObjectRef among them reaches ``fn``
    as a ref (``state/broadcast.cached`` keys on it), as
    ``map_batches``' ``fn_kwargs`` do.

    - ``ds`` holds its blocks: ``fn`` runs once per group of adjacent
      blocks (:func:`bundles`), in block order, on the group's blocks
      concatenated, one plain task per group with its metadata returned
      beside its table (:func:`map_refs`); no Ray Data execution runs.
      ``fn`` must not depend on where blocks begin: every caller's
      result is a per-row map or an exact integer partial that
      ``segsum`` combines.
    - ``ds`` is lazy: ``fn`` is one ``map_batches`` with a batch per
      block, fused into the plan's one materializing execution; over a
      :func:`table_blocks` source that runs one task per group of
      blocks."""
    fn = functools.partial(fn, **kwargs) if kwargs else fn
    blocks = _held(ds)
    if blocks is None:
        mapped = ds.map_batches(fn, batch_format="pyarrow", batch_size=None)
        return held_blocks(mapped)[1]
    return map_refs(blocks, fn)


def map_refs(blocks: list, fn: Callable) -> list:
    """``fn`` once per group (:func:`bundles`) of the held ``(ref,
    BlockMetadata)`` ``blocks``, on its blocks concatenated in order,
    one plain task each (:func:`map_blocks`' branch over held blocks),
    as held ``(table ref, BlockMetadata)`` blocks. When no block holds
    a row, ``fn`` runs on the first, so the result stays typed."""
    groups = bundles(blocks) or [[ref] for ref, _ in blocks[:1]]
    outs = [_map_task.remote(fn, *g) for g in groups]
    metas = ray.get([m for _, m in outs])
    return [(t, m) for (t, _), m in zip(outs, metas)]


def cluster_cpus() -> int:
    """The Ray cluster's CPU count."""
    return int(ray.cluster_resources().get("CPU", 1))


def default_partitions(rows: int) -> int:
    """The partition count of a shuffle over ``rows`` input rows, read
    off held metadata: one partition per :data:`TASK_ROWS` rows, rounded
    up, at least 1 and at most the cluster's CPU count. It never falls
    as ``rows`` grow."""
    return max(1, min(-(-rows // TASK_ROWS), cluster_cpus()))


def range_ids(key: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The range plan: the range of each ``key`` between the ascending
    ``bounds``, ``len(bounds) + 1`` ranges in all."""
    return np.searchsorted(bounds, key, "right")


def hash_ids(cols: list[np.ndarray], parts: int) -> np.ndarray:
    """The hash plan: ``splitmix64`` folded over the int64 key columns
    ``cols``, ``% parts``; rows with equal keys share a partition."""
    h = splitmix64(cols[0].view(np.uint64))
    for c in cols[1:]:
        h = hash_combine(h, c.view(np.uint64))
    return (h % np.uint64(parts)).astype(np.int64)


def hashed(keys: list[str], parts: int, block: pa.Table):
    """The hash plan's rows: ``block``, each row to the partition of
    its integer ``keys`` columns."""
    cols = [block[k].to_numpy().astype(np.int64, copy=False) for k in keys]
    return block, hash_ids(cols, parts)


def group(t: pa.Table, ids: np.ndarray, parts: int) -> list[pa.Table]:
    """The rows of ``t`` grouped stably by partition id ``ids``, as
    ``parts`` tables (zero-row ones keep the schema)."""
    order = np.argsort(ids, kind="stable")
    cut = np.searchsorted(ids[order], np.arange(parts + 1), "left")
    t = t.take(pa.array(order))
    return [t.slice(a, b - a) for a, b in zip(cut[:-1], cut[1:])]


@ray.remote
def _split_task(rows: Callable, parts: int, n: int, *args):
    """One group's ``rows(*args[n:], table)``, ``table`` being its
    ``n`` blocks (the first ``n`` args) concatenated, grouped into its
    ``parts``; started with ``num_returns=parts``, so one partition
    returns its part alone."""
    out = group(*rows(*args[n:], _concat(args[:n])), parts)
    return tuple(out) if parts > 1 else out[0]


def split(rows: Callable, parts: int, blocks: list, *args) -> list[list]:
    """One split task per group (:func:`bundles`) of the held ``(ref,
    BlockMetadata)`` ``blocks``: ``rows(*args, table)``, ``table``
    being the group's blocks concatenated in order, gives ``(table,
    partition id of each row)``. Returns each task's ``parts`` table
    refs, in block order; no task for blocks without rows. ``args`` are
    passed to the tasks as they are, so a ref among them is resolved
    there."""
    out = []
    for g in bundles(blocks):
        task = _split_task.options(num_returns=parts)
        refs = task.remote(rows, parts, len(g), *g, *args)
        out.append(list(refs) if parts > 1 else [refs])
    return out


# The reduce tasks hand back each block's metadata with it, so the
# result Dataset is built without a metadata task per block.
@ray.remote(num_returns=2)
def _reduce_task(fn: Callable, *parts):
    out = fn(*parts)
    return out, BlockMetadataWithSchema.from_block(out)


def reduce(fn: Callable, splits: list[list], parts: int) -> ray.data.Dataset:
    """One task per partition ``i``: ``fn(*[s[i] for s in splits])``,
    the partition's parts in split order, to one table. The tables, as
    one materialized Dataset in partition order (:func:`arrow_dataset`)."""
    return arrow_dataset(
        [_reduce_task.remote(fn, *[s[i] for s in splits]) for i in range(parts)]
    )


def hash_reduce(blocks: list, keys: list[str], fn: Callable) -> ray.data.Dataset:
    """The held ``(ref, metadata)`` ``blocks`` hash-split by ``keys``
    into the :func:`default_partitions` of their rows, each reduced by
    ``fn`` (:func:`reduce`): every row of a key reaches the same ``fn``
    call."""
    parts = default_partitions(sum(m.num_rows for _, m in blocks))
    return reduce(fn, split(hashed, parts, blocks, keys, parts), parts)


def _check_key(t: pa.Table, col: str) -> None:
    """ValueError naming the join key ``col`` unless it is a null-free
    integer column of ``t``: keys are hashed and matched as int64."""
    typ = t.schema.field(col).type
    if not pa.types.is_integer(typ) or t[col].null_count:
        raise ValueError(
            f"partition.join: key {col!r} is {typ}, not a null-free integer type"
        )


def _join_rows(key: str, parts: int, block: pa.Table):
    """The hash plan's rows (:func:`hashed`) of one join side's block,
    its ``key`` checked first."""
    _check_key(block, key)
    return hashed([key], parts, block)


def side(parts: tuple) -> pa.Table:
    """One join side's parts of a partition as one table; zero-column
    parts (an empty block Ray built without a schema) are left out."""
    parts = [p for p in parts if p.num_columns]
    return pa.concat_tables(parts, promote_options="default") if parts else pa.table({})


def _join_partition(on: str, right_on: str, how: str, n_left: int, *parts) -> pa.Table:
    """One hash partition joined: the left rows (the first ``n_left``
    parts) each repeated over the right rows of equal key, found by
    ``searchsorted`` on the right side stable-sorted by key. Unmatched
    left rows are dropped (``inner``) or kept once with null right
    columns (``left_outer``)."""
    left, right = side(parts[:n_left]), side(parts[n_left:])
    if not left.num_columns:
        return left
    if not right.num_columns:
        right = pa.table({right_on: pa.array([], pa.int64())})
    _check_key(left, on)
    _check_key(right, right_on)
    rk = right[right_on].to_numpy().astype(np.int64, copy=False)
    order = np.argsort(rk, kind="stable")
    rk = rk[order]
    lk = left[on].to_numpy().astype(np.int64, copy=False)
    lo = np.searchsorted(rk, lk, "left")
    n = np.searchsorted(rk, lk, "right") - lo
    li, within = expand(np.maximum(n, 1) if how == "left_outer" else n)
    hit = n[li] > 0
    ri = np.zeros(len(li), dtype=np.int64)
    ri[hit] = order[(lo[li] + within)[hit]]
    out = left.take(pa.array(li))
    taken = right.drop_columns([right_on]).take(pa.array(ri, mask=~hit))
    for field, col in zip(taken.schema, taken.columns):
        out = out.append_column(field, col)
    return out


def join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    how: str = "inner",
    right_on: str | None = None,
) -> ray.data.Dataset:
    """Equi-join of ``left`` and ``right`` on one integer key column:
    ``on`` on the left, ``right_on`` (default ``on``) on the right.
    ``how`` is ``"inner"`` or ``"left_outer"`` (an unmatched left row
    once, with null right columns). Output columns: the left ones, then
    the right side's non-key ones.

    Both sides are taken once (:func:`held_blocks`); their rows, read
    off the blocks' metadata, give the partition count
    (:func:`default_partitions`). Each side's blocks are hash-split on
    its key (:func:`split`; a side with no rows passes its first block
    to every partition, so the result stays typed), and one reduce task
    joins each partition (:func:`reduce`, materialized, zero-row blocks
    left out). A key column that is not a null-free integer raises
    ``ValueError`` naming it."""
    if how not in ("inner", "left_outer"):
        raise ValueError(f"partition.join: how must be inner or left_outer, got {how!r}")
    right_on = on if right_on is None else right_on
    lblocks, rblocks = held_blocks(left)[1], held_blocks(right)[1]
    parts = default_partitions(sum(m.num_rows for _, m in lblocks + rblocks))

    def sides(blocks: list, key: str) -> list:
        splits = split(_join_rows, parts, blocks, key, parts)
        return splits or [[ref] * parts for ref, _ in blocks[:1]]

    lsplits, rsplits = sides(lblocks, on), sides(rblocks, right_on)
    fn = functools.partial(_join_partition, on, right_on, how, len(lsplits))
    return reduce(fn, lsplits + rsplits, parts)


def _apply_groups(key: str, fn: Callable, *parts: pa.Table) -> pa.Table:
    """One hash partition: ``fn`` once per ``key`` value, on that key's
    rows in (part, row) order. Zero-row outputs are left out, except
    the first when all are."""
    if not sum(p.num_rows for p in parts):
        return pa.table({})
    t = pa.concat_tables(parts, promote_options="default")
    k = t[key].to_numpy()
    order = np.argsort(k, kind="stable")
    t, k = t.take(pa.array(order)), k[order]
    cut = np.r_[0, np.flatnonzero(k[1:] != k[:-1]) + 1, len(k)]
    fn = arrowize(fn)
    outs = [fn(t.slice(a, b - a)) for a, b in zip(cut[:-1], cut[1:])]
    outs = [o for o in outs if o.num_rows] or outs[:1]
    return pa.concat_tables(outs, promote_options="default")


def group_apply(ds: ray.data.Dataset, key: str, fn: Callable) -> ray.data.Dataset:
    """``fn`` once per value of the int64 column ``key``, on every row
    of that value in input (block, row) order, as one materialized
    Dataset: the hash plan (:func:`hash_reduce`) with each reduce task
    stable-sorting its rows by ``key``. ``fn`` returns a ``pa.Table``
    or a DataFrame (converted by ``arrowize``)."""
    apply = functools.partial(_apply_groups, key, fn)
    return hash_reduce(held_blocks(ds)[1], [key], apply)


def arrow_dataset(parts: list) -> ray.data.MaterializedDataset:
    """The ``(table ref, BlockMetadataWithSchema ref)`` ``parts`` as one
    materialized Dataset, in order, as ``ray.data.from_arrow_refs``
    builds it minus its metadata task per block. Zero-row parts are
    left out (a downstream ``map_batches`` would pass them on without a
    schema), except the first when all are, so the result stays
    typed."""
    metas = ray.get([m for _, m in parts])
    keep = [i for i, m in enumerate(metas) if m.num_rows]
    if not keep and parts:
        keep = [0]
    return _held_dataset([[(parts[i][0], metas[i])] for i in keep])


def table_blocks(tbl: pa.Table, n: int) -> ray.data.MaterializedDataset:
    """``tbl`` cut into ``n`` contiguous row ranges, as one materialized
    Dataset that holds its blocks (no Ray Data execution starts over
    it). The cuts are those of Ray's split repartition (``cur += rows /
    n``, a cut at each ``int(cur)``), so every non-empty block holds
    the rows ``.repartition(n)`` gives it. Zero-row ranges are left
    out, except the first when all are, so the result stays typed.

    A Ray Data map over the result runs one task per group of adjacent
    blocks (:func:`bundles`), each block still its own batch under
    ``batch_size=None``: the blocks keep their rows, and small ones do
    not each cost a task."""
    cuts, cur = [0], 0.0
    for _ in range(n - 1):
        cur += tbl.num_rows / n
        cuts.append(int(cur))
    cuts.append(tbl.num_rows)
    slices = [tbl.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    slices = [s for s in slices if s.num_rows] or slices[:1]
    blocks = put_blocks(slices)
    # group the (ref, metadata) pairs themselves
    return _held_dataset(bundles([(b, b[1]) for b in blocks]) or [blocks])


def put_blocks(tables: list[pa.Table]) -> list:
    """``tables`` put in the object store as held ``(table ref,
    BlockMetadata)`` blocks, in order, with no Dataset built."""
    return [(ray.put(t), BlockMetadataWithSchema.from_block(t)) for t in tables]


def _held_dataset(groups: list[list]) -> ray.data.MaterializedDataset:
    """The held ``(table ref, BlockMetadataWithSchema)`` blocks of
    ``groups`` as one materialized Dataset, in order. Each group is one
    bundle of its source, so a Ray Data map over the Dataset runs one
    task per group; a group's blocks share one schema."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    refs = [ref for g in groups for ref, _ in g]
    metas = [m for g in groups for _, m in g]
    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": metas}, parent=None),
        DataContext.get_current().copy(),
    )
    source = FromArrow(refs, metas)
    source._input_data = [
        RefBundle(g, owns_blocks=False, schema=g[0][1].schema) for g in groups
    ]
    out = MaterializedDataset(plan, LogicalPlan(source, plan._context))
    # marks the plan executed, without an executor (its source holds the
    # blocks), so iterating the result starts no execution
    out._plan.execute()
    return out
