"""User-extension surface (SURVEY §2.11): the engine's analog of the
reference's plug-in visitors — ``RSGISCalcImageValue`` subclasses
(/root/reference/src/img/RSGISCalcImageValue.h, driver
RSGISCalcImage.h:57-97), ``RSGISRATCalcValue``
(src/rastergis/RSGISRATCalcValue.h) and the Python
``RSGISAbstractFilter`` plug-ins (imagefilter/tiledfilter.py:48-88).

Two protocols:

- :class:`BatchOp` — ``fn(batch: pa.Table, ctx: OpContext) -> pa.Table``
  run by :func:`apply_op` as a zero-copy ``map_batches`` stage; ``ctx``
  resolves broadcast side-state once per worker process (the
  build-once-per-worker contract of RSGISCalcImage's visitor setup).
- :class:`Aggregator` — ``partial(batch) -> pa.Table`` (one pre-reduced
  row per key, integer columns combined per ``combine`` spec) + ``final
  (combined) -> pa.Table``; :func:`apply_aggregator` wires the partials
  through :func:`rsgislib_ray.stages.segsum.combine`, the same partial
  combine as the built-in zonal stats (§2.5).
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.functions.arrowize import arrowize
from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine


class OpContext:
    """Per-worker context handed to a BatchOp: lazily resolves
    broadcast refs through the per-process cache."""

    def __init__(self, refs: dict | None = None):
        self._refs = refs or {}

    def state(self, name: str, build: Callable | None = None) -> Any:
        from rsgislib_ray.state.broadcast import cached

        return cached(self._refs[name], build)


@runtime_checkable
class BatchOp(Protocol):
    def __call__(self, batch: pa.Table, ctx: OpContext) -> pa.Table: ...


def apply_op(
    ds: ray.data.Dataset,
    op: Callable[[pa.Table, OpContext], pa.Table],
    broadcast: dict | None = None,
    batch_size: int | None = None,
    **map_kwargs,
) -> ray.data.Dataset:
    """Run a user BatchOp over the dataset. Values in ``broadcast`` are
    ``ray.put`` once here; the op reads them via ``ctx.state(name)``
    (fetched + memoized once per worker process)."""
    refs = {
        k: (v if isinstance(v, ray.ObjectRef) else ray.put(v))
        for k, v in (broadcast or {}).items()
    }

    def run(batch: pa.Table, _refs=None) -> pa.Table:
        return op(batch, OpContext(_refs))

    return ds.map_batches(
        run,
        fn_kwargs={"_refs": refs},
        batch_format="pyarrow",
        batch_size=batch_size,
        **map_kwargs,
    )


@runtime_checkable
class Aggregator(Protocol):
    key_col: str
    combine: dict  # partial column -> "sum" | "min" | "max"

    def partial(self, batch: pa.Table) -> pa.Table: ...

    def final(self, combined: pa.Table) -> pa.Table: ...


def apply_aggregator(ds: ray.data.Dataset, agg) -> pa.Table:
    """partial (once per block, pre-reduced per key) -> per-key combine
    of each partial column by its ``combine`` spec (sum/min/max) ->
    final. ``partial`` returns a ``pa.Table`` or a DataFrame. The key
    and partial columns must be integer (a float column raises
    ``ValueError``); ``final`` receives one combined row per key, sorted
    by key."""
    cols, hows = list(agg.combine), list(agg.combine.values())
    for col, how in agg.combine.items():
        if how not in ("sum", "min", "max"):
            raise ValueError(f"unknown combine {how!r} for {col!r}")
    partials = map_blocks(ds, arrowize(agg.partial))
    return agg.final(combine(partials, agg.key_col, cols, hows))
