"""Grid-tiling stages — tile assignment, per-tile partitioned output.

The reference materializes tiles as files and fans multiprocessing over
them (create_tiles /root/reference/python/src/imageutils.cpp:2061;
create_tiles_multi_core imageutils/__init__.py:2813-2914; grid layout
tools/geometrytools.py:478-538). Here a tile is just a key: assignment
is a stateless vectorized ``map_batches`` (no shuffle), and a tile-
partitioned sink is ``write_parquet(partition_cols=["tile_id"])`` so a
resumed run can skip finished tile directories.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.functions.cells import cells_from_xy
from rsgislib_ray.functions.grid import TileSpec
from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine


def assign_tiles(
    ds: ray.data.Dataset,
    spec: TileSpec,
    x_col: str = "x",
    y_col: str = "y",
    out_col: str = "tile_id",
) -> ray.data.Dataset:
    """Append the reference-layout tile id (-1 outside the bbox)."""

    def tag(batch: pa.Table) -> pa.Table:
        tid = spec.assign(batch[x_col].to_numpy(), batch[y_col].to_numpy())
        return batch.append_column(out_col, pa.array(tid, type=pa.int64()))

    return ds.map_batches(tag, batch_format="pyarrow")


def assign_cells(
    ds: ray.data.Dataset,
    level: int,
    x_col: str = "x",
    y_col: str = "y",
    out_col: str = "cell_id",
) -> ray.data.Dataset:
    """Append the quadkey cell id at ``level`` (-1 outside the frame)."""

    def tag(batch: pa.Table) -> pa.Table:
        cid = cells_from_xy(batch[x_col].to_numpy(), batch[y_col].to_numpy(), level)
        return batch.append_column(out_col, pa.array(cid, type=pa.int64()))

    return ds.map_batches(tag, batch_format="pyarrow")


def tile_counts(
    ds: ray.data.Dataset,
    spec: TileSpec,
    x_col: str = "x",
    y_col: str = "y",
) -> pa.Table:
    """Rows-per-tile histogram (``tile_id``, ``n_rows``; tile -1 counts
    rows outside the bbox), sorted by tile — the skew probe (SURVEY.md
    §4 skew row). Each block counts its tiles; the per-block counts
    are summed by :func:`rsgislib_ray.stages.segsum.combine`."""

    def partial(batch: pa.Table) -> pa.Table:
        tid = spec.assign(batch[x_col].to_numpy(), batch[y_col].to_numpy())
        u, c = np.unique(tid, return_counts=True)
        return pa.table({"tile_id": u, "partial": c.astype(np.int64)})

    return combine(map_blocks(ds, partial), "tile_id", ["partial"]).rename_columns(
        ["tile_id", "n_rows"]
    )


def write_tiled(
    ds: ray.data.Dataset,
    out_dir: str,
    spec: TileSpec,
    x_col: str = "x",
    y_col: str = "y",
) -> None:
    """Tile-partitioned parquet sink (one directory per tile)."""
    tagged = assign_tiles(ds, spec, x_col, y_col)
    tagged.write_parquet(out_dir, partition_cols=["tile_id"])
