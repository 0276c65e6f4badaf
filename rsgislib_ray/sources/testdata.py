"""Deterministic geometry derivations over the driver's parquet tables.

The driver's correctness gate runs each ``queries()[name](sf_dir)`` Ray
pipeline side-by-side with an ``oracle_sql()[name]`` DuckDB query over
the same tables (region nation customer supplier part orders lineitem
events documents embeddings). Those tables carry no geometry, so the
spatial inputs are DERIVED from integer keys with pure-integer
arithmetic followed by exact binary-representable float steps — the
same closed-form expression evaluated by numpy here and by DuckDB in
the oracle CTEs below produces bit-identical doubles, which is what the
driver's value-hash comparison needs.

Design rules (why these formulas):
- ``((key * A) % 10000) / 100.0 + 0.005`` spreads keys pseudo-randomly
  over [0.005, 100.005) with a 2-decimal lattice shifted by 1/200 so a
  coordinate can never equal an integer zone/tile boundary (boundary
  ties would otherwise make PIP/tile membership float-sensitive).
- zone rectangles have INTEGER corners -> closed-form SQL membership.
- value columns are converted to integer cents
  (``CAST(ROUND(v * 100) AS BIGINT)``) so distributed partial sums are
  exact integers: integer addition is associative, so the 8-CPU and
  32-CPU runs and the single-threaded DuckDB oracle all agree exactly.

Coordinate frame: the engine's default CellFrame [0,100)^2; derived
x is in [0.005, 100.005) so ~0.1% of points fall outside the frame at
x >= 100 — deliberate: they exercise the out-of-extent path
(tile_id/cell -1, excluded from joins), mirroring the reference's
out-of-image handling (/root/reference/python/rsgislib/zonalstats/__init__.py:1562-1586).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.stages import partition

# Multipliers for the coordinate lattice. Shared verbatim with the SQL.
AX, AY = 7919, 104729
def read_parquet_clean(path, columns=None, **kwargs) -> ray.data.Dataset:
    """``ray.data.read_parquet`` with the parquet writer's ``pandas``
    schema metadata stripped at the source (a stripped ``schema=`` is
    passed to the reader, so even a fused ReadParquet->SplitBlocks
    operator emits clean blocks). That metadata makes ``pa.Schema``
    unhashable (hashing the embedded dict raises), which defeats Ray
    Data's schema dedup: every operator that unifies the schemas of
    raw read blocks logs a "Failed to hash the schemas" warning and
    re-unifies them."""
    if "schema" not in kwargs:
        try:
            import pyarrow.dataset as pds

            sch = pds.dataset(path).schema.remove_metadata()
            if columns is not None:
                sch = pa.schema([sch.field(c) for c in columns])
            kwargs["schema"] = sch
        except Exception:
            # unknown layout: fall back to a zero-copy strip map
            return ray.data.read_parquet(
                path, columns=columns, **kwargs
            ).map_batches(
                lambda t: t.replace_schema_metadata(None),
                batch_format="pyarrow",
            )
    return ray.data.read_parquet(path, columns=columns, **kwargs)


def read_blocks(path, n: int, columns=None) -> ray.data.Dataset:
    """The parquet file ``path`` (its ``columns``) read on the driver,
    its schema metadata stripped (as :func:`read_parquet_clean` does),
    and cut into ``n`` held blocks (``partition.table_blocks``). The
    driver tables are single-file, single-row-group parquet, so a Ray
    read of one is one block; cut here, the per-block stages after it
    run in parallel with no shuffle."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(path, columns=columns).replace_schema_metadata(None)
    return partition.table_blocks(tbl, n)


BX, BY = 131, 521
CX, CY = 7919, 104729

SQL_PTS = (
    "SELECT o_orderkey AS pt_id, "
    f"((o_orderkey * {AX}) % 10000) / 100.0 + 0.005 AS x, "
    f"((o_orderkey * {AY}) % 10000) / 100.0 + 0.005 AS y "
    "FROM orders"
)

SQL_ZONES = (
    "SELECT p_partkey AS fid, "
    "CAST((p_partkey * 31) % 88 AS DOUBLE) AS xmin, "
    "CAST((p_partkey * 31) % 88 + 4 + p_partkey % 9 AS DOUBLE) AS xmax, "
    "CAST((p_partkey * 57) % 88 AS DOUBLE) AS ymin, "
    "CAST((p_partkey * 57) % 88 + 4 + (p_partkey * 3) % 9 AS DOUBLE) AS ymax, "
    "CAST(p_partkey % 5 AS INTEGER) AS category "
    "FROM part"
)

SQL_CELLS = (
    "SELECT l_orderkey * 10 + l_linenumber AS cell_key, "
    f"((l_orderkey * {BX} + l_linenumber * {CX}) % 10000) / 100.0 + 0.005 AS x, "
    f"((l_orderkey * {BY} + l_linenumber * {CY}) % 10000) / 100.0 + 0.005 AS y, "
    "CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS val_cents, "
    "CAST(l_quantity AS BIGINT) AS qty "
    "FROM lineitem"
)

SQL_TARGETS = (
    "SELECT s_suppkey AS target_id, "
    f"((s_suppkey * 4967 + 17) % 10000) / 100.0 + 0.005 AS x, "
    f"((s_suppkey * 6823 + 29) % 10000) / 100.0 + 0.005 AS y, "
    "s_name AS label FROM supplier"
)

SQL_BASE_PTS = (
    "SELECT c_custkey AS base_id, "
    "((c_custkey * 3571) % 10000) / 100.0 + 0.005 AS x, "
    "((c_custkey * 9901) % 10000) / 100.0 + 0.005 AS y "
    "FROM customer"
)


def points_from_orders(sf_dir: str) -> ray.data.Dataset:
    """Point layer derived from orders (one point per order)."""
    ds = read_blocks(f"{sf_dir}/orders.parquet", 32, columns=["o_orderkey"])

    def derive(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy()
        return pa.table(
            {
                "pt_id": k,
                "x": (k * AX % 10000) / 100.0 + 0.005,
                "y": (k * AY % 10000) / 100.0 + 0.005,
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow")


def zones_from_part(sf_dir: str) -> pa.Table:
    """Rectangular zone layer derived from part — a SMALL side table
    (|part| ~ sf * 200k) read eagerly on the driver and broadcast into
    join actors. Columns mirror FIXTURES.md F2 incl. a CCW ring."""
    import pyarrow.parquet as pq

    k = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey"])[
        "p_partkey"
    ].to_numpy()
    xmin = (k * 31 % 88).astype(np.float64)
    xmax = (k * 31 % 88 + 4 + k % 9).astype(np.float64)
    ymin = (k * 57 % 88).astype(np.float64)
    ymax = (k * 57 % 88 + 4 + (k * 3) % 9).astype(np.float64)
    n = len(k)
    ring_xy = np.empty((n, 8), dtype=np.float64)
    ring_xy[:, 0], ring_xy[:, 1] = xmin, ymin
    ring_xy[:, 2], ring_xy[:, 3] = xmax, ymin
    ring_xy[:, 4], ring_xy[:, 5] = xmax, ymax
    ring_xy[:, 6], ring_xy[:, 7] = xmin, ymax
    return pa.table(
        {
            "fid": pa.array(k, type=pa.int64()),
            "xmin": xmin,
            "xmax": xmax,
            "ymin": ymin,
            "ymax": ymax,
            "category": pa.array((k % 5).astype(np.int32)),
            "ring_xy": pa.FixedSizeListArray.from_arrays(ring_xy.ravel(), 8),
        }
    )


def cells_from_lineitem(sf_dir: str) -> ray.data.Dataset:
    """Value-cell layer (raster stand-in) derived from lineitem: one
    weighted sample point per line item with exact integer value cols."""
    ds = read_blocks(
        f"{sf_dir}/lineitem.parquet",
        64,
        columns=["l_orderkey", "l_linenumber", "l_extendedprice", "l_quantity"],
    )

    def derive(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy()
        ln = batch["l_linenumber"].to_numpy().astype(np.int64)
        price = batch["l_extendedprice"].to_numpy()
        qty = batch["l_quantity"].to_numpy()
        return pa.table(
            {
                "cell_key": ok * 10 + ln,
                "x": ((ok * BX + ln * CX) % 10000) / 100.0 + 0.005,
                "y": ((ok * BY + ln * CY) % 10000) / 100.0 + 0.005,
                "val_cents": np.rint(price * 100).astype(np.int64),
                "qty": qty.astype(np.int64),
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow")


def targets_from_supplier(sf_dir: str) -> pa.Table:
    """Small kNN target layer from supplier (broadcast side)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    k = t["s_suppkey"].to_numpy()
    return pa.table(
        {
            "target_id": k,
            "x": ((k * 4967 + 17) % 10000) / 100.0 + 0.005,
            "y": ((k * 6823 + 29) % 10000) / 100.0 + 0.005,
            "label": t["s_name"],
        }
    )


def base_points_from_customer(sf_dir: str) -> ray.data.Dataset:
    """kNN base point layer from customer."""
    ds = read_blocks(f"{sf_dir}/customer.parquet", 16, columns=["c_custkey"])

    def derive(batch: pa.Table) -> pa.Table:
        k = batch["c_custkey"].to_numpy()
        return pa.table(
            {
                "base_id": k,
                "x": (k * 3571 % 10000) / 100.0 + 0.005,
                "y": (k * 9901 % 10000) / 100.0 + 0.005,
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow")


def zones_dataset(sf_dir: str) -> ray.data.Dataset:
    """Streaming Dataset variant of :func:`zones_from_part` (no ring
    column) for per-zone geometry transforms (buffer/simplify)."""
    ds = read_blocks(f"{sf_dir}/part.parquet", 16, columns=["p_partkey"])

    def derive(batch: pa.Table) -> pa.Table:
        k = batch["p_partkey"].to_numpy()
        return pa.table(
            {
                "fid": pa.array(k, type=pa.int64()),
                "xmin": (k * 31 % 88).astype(np.float64),
                "xmax": (k * 31 % 88 + 4 + k % 9).astype(np.float64),
                "ymin": (k * 57 % 88).astype(np.float64),
                "ymax": (k * 57 % 88 + 4 + (k * 3) % 9).astype(np.float64),
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow")
