"""Flagship pipeline: spatial-join + tile-assignment over the
interleaved document table — the north-rule headline workload
(BASELINE.json: "spatial-join + tile-assignment throughput (docs/sec)
on interleaved Lance table").

Stages (all streaming, single broadcast, zero shuffles):
  read/synthesize docs -> parse geom spans (Arrow kernels) ->
  assign cell_id + tile_id (vectorized arithmetic) ->
  PIP spatial join vs the zone layer (broadcast index, stateless tasks) ->
  optional per-tile checkpointed sink / per-zone counts.

The ``spans`` column rides along untouched end-to-end (span-sequence
invariant); the join duplicates doc rows per matched zone like the
reference's sjoin (vectorattrs/__init__.py:1229-1307).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.sources.testdata import read_parquet_clean as _read_clean

from rsgislib_ray.functions.geom import rect_ring
from rsgislib_ray.functions.grid import TileSpec
from rsgislib_ray.sources.synth import synth_docs_dataset
from rsgislib_ray.stages.spans import parse_geom_spans
from rsgislib_ray.stages.spatial_join import spatial_join_points
from rsgislib_ray.stages.tiling import assign_cells, assign_tiles

DEFAULT_TILESPEC = TileSpec((0.0, 100.0, 0.0, 100.0), 30.0, 30.0)
CELL_LEVEL = 10


def synth_zone_table(n_zones: int = 64, seed: int = 99) -> pa.Table:
    """Deterministic zone layer over the frame (rect rings; integer-ish
    corners; overlapping pairs included by construction)."""
    from rsgislib_ray.functions.hashing import splitmix64

    k = np.arange(n_zones, dtype=np.uint64)
    h = splitmix64(k + np.uint64(seed))
    xmin = (splitmix64(h ^ np.uint64(1)) % np.uint64(88)).astype(np.float64)
    ymin = (splitmix64(h ^ np.uint64(2)) % np.uint64(88)).astype(np.float64)
    w = 4.0 + (splitmix64(h ^ np.uint64(3)) % np.uint64(9)).astype(np.float64)
    hh = 4.0 + (splitmix64(h ^ np.uint64(4)) % np.uint64(9)).astype(np.float64)
    rings = np.concatenate(
        [
            rect_ring(xmin[i], ymin[i], xmin[i] + w[i], ymin[i] + hh[i])
            for i in range(n_zones)
        ]
    )
    return pa.table(
        {
            "fid": pa.array(np.arange(n_zones, dtype=np.int64)),
            "zone_name": pa.array([f"zone_{i}" for i in range(n_zones)]),
            "category": pa.array(
                (k % np.uint64(5)).astype(np.int32)
            ),
            "ring_xy": pa.FixedSizeListArray.from_arrays(rings, 8),
        }
    )


def docs_from_documents_table(sf_dir: str) -> ray.data.Dataset:
    """Interleaved docs table derived deterministically from the
    driver's documents.parquet: each row becomes a doc whose spans
    interleave its text, a media ref and a derived geometry span —
    deterministic per doc_id, partition-independent."""
    from rsgislib_ray.sources.synth import synth_docs_batch

    ds = _read_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        return synth_docs_batch(batch["doc_id"].to_numpy().astype(np.uint64))

    return ds.map_batches(gen, batch_format="pyarrow")


def flagship(
    docs: ray.data.Dataset,
    zones: pa.Table | None = None,
    tilespec: TileSpec = DEFAULT_TILESPEC,
    cell_level: int = CELL_LEVEL,
    how: str = "inner",
) -> ray.data.Dataset:
    """docs (doc_id, spans) -> parsed + cell/tile-tagged + zone-joined."""
    if zones is None:
        zones = synth_zone_table()
    parsed = docs.map_batches(parse_geom_spans, batch_format="pyarrow")
    tagged = assign_cells(parsed, cell_level)
    tagged = assign_tiles(tagged, tilespec)
    joined = spatial_join_points(
        tagged,
        zones,
        how=how,
        attr_cols=["category"],
        zone_prefix="zone_",
    )
    return joined


def flagship_synth(
    n_docs: int,
    zones: pa.Table | None = None,
    how: str = "inner",
    override_num_blocks: int | None = None,
) -> ray.data.Dataset:
    return flagship(
        synth_docs_dataset(n_docs, override_num_blocks=override_num_blocks),
        zones,
        how=how,
    )
