"""Independent DuckDB oracles for the benchmark's workloads.

Each oracle recomputes a workload's expected output in SQL over the
same generated inputs, without calling engine code. Results are
compared by row count plus an order-insensitive value hash.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# Side of the grid squares the point-in-zone oracle joins on.
BUCKET = 4.0
# Columns of a joined doc row that the docs oracles check.
DOC_COLS = ["doc_id", "x", "y", "cell_id", "tile_id", "zone_fid", "zone_category"]


def value_hash(df: pd.DataFrame) -> int:
    """Order-insensitive digest: the wrapping sum of per-row hashes over
    columns in sorted order, with ints and floats normalized to 64 bits.
    A sum, not a xor, so duplicated rows do not cancel."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_bool_dtype(df[c]) or pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64)
    rows = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return int(rows.sum(dtype=np.uint64)) ^ len(df)


def digest(df: pd.DataFrame) -> tuple[int, int]:
    return len(df), value_hash(df)


def zone_bounds(zones: pa.Table) -> pa.Table:
    """fid, category (if present) and the envelope of each ring."""
    ring = zones["ring_xy"].combine_chunks()
    xy = ring.flatten().to_numpy().reshape(len(zones), -1)
    cols = {
        "fid": zones["fid"],
        "xmin": xy[:, 0::2].min(axis=1),
        "xmax": xy[:, 0::2].max(axis=1),
        "ymin": xy[:, 1::2].min(axis=1),
        "ymax": xy[:, 1::2].max(axis=1),
    }
    if "category" in zones.column_names:
        cols["category"] = zones["category"]
    return pa.table(cols)


def _connect(zones: pa.Table, **tables) -> duckdb.DuckDBPyConnection:
    """A one-thread connection with ``tables`` and the zone envelopes
    registered, plus table ``zb``: each zone repeated for every
    ``BUCKET``-wide grid square (gx, gy) its envelope touches."""
    con = duckdb.connect()
    con.execute("SET threads TO 1")
    zb = zone_bounds(zones)
    con.register("zones", zb)
    for name, tbl in tables.items():
        con.register(name, tbl)
    lo = int(min(pc.min(zb["xmin"]).as_py(), pc.min(zb["ymin"]).as_py()) // BUCKET)
    hi = int(max(pc.max(zb["xmax"]).as_py(), pc.max(zb["ymax"]).as_py()) // BUCKET) + 1
    con.execute(
        f"""
        CREATE TEMP TABLE zb AS
        SELECT z.*, gx.range AS gx, gy.range AS gy FROM zones z
        JOIN range({lo}, {hi}) gx ON gx.range BETWEEN floor(z.xmin / {BUCKET}) AND floor(z.xmax / {BUCKET})
        JOIN range({lo}, {hi}) gy ON gy.range BETWEEN floor(z.ymin / {BUCKET}) AND floor(z.ymax / {BUCKET})
        """
    )
    return con


def _hits(points: str, cols: str) -> str:
    """CTE ``hits``: the rows of ``points`` (x, y) joined to every zone
    whose half-open envelope holds them, by an equi-join on the point's
    grid square refined by the exact envelope test."""
    return f"""
    hits AS (
      SELECT {cols}
      FROM (SELECT *, CAST(floor(x / {BUCKET}) AS BIGINT) AS gx,
                      CAST(floor(y / {BUCKET}) AS BIGINT) AS gy
            FROM {points}) p
      JOIN zb z ON p.gx = z.gx AND p.gy = z.gy
      WHERE p.x >= z.xmin AND p.x < z.xmax AND p.y >= z.ymin AND p.y < z.ymax
    )"""


def _morton(level: int) -> str:
    """SQL for the quadkey cell id of BIGINT ``col``/``row`` at ``level``:
    bits of col at even and of row at odd positions, level in bits 52+."""
    terms = [
        f"(((col >> {b}) & 1) << {2 * b}) + (((row >> {b}) & 1) << {2 * b + 1})"
        for b in range(level)
    ]
    return " + ".join(terms) + f" + {level << 52}"


def docs_join(docs_glob: str, zones: pa.Table, level: int, frame_w: float, spec) -> pd.DataFrame:
    """Expected rows of ``flagship()``: each doc's geometry span parsed
    in SQL (point coordinates, or the envelope centre of a polygon),
    tagged with its level-``level`` cell and tile, inner-joined to the
    zones whose half-open envelope holds it."""
    n = 1 << level
    cw = frame_w / n
    bx0, bx1, by0, by1 = spec.bbox
    con = _connect(zones)
    # materialized: DuckDB 1.0 runs an unnest feeding later operators slowly
    con.execute(
        f"""
        CREATE TEMP TABLE g AS
        SELECT doc_id, sp.kind AS kind, sp.text AS text
        FROM (SELECT doc_id, unnest(spans) AS sp FROM read_parquet('{docs_glob}'))
        WHERE sp.kind IN ('point', 'poly')
        """
    )
    sql = f"""
    WITH v AS (
      SELECT doc_id, kind,
        list_transform(string_split(replace(text, ',', ' '), ' '),
                       s -> CAST(s AS DOUBLE)) AS v
      FROM g
    ),
    p AS (
      SELECT doc_id,
        CASE WHEN kind = 'point' THEN v[1] ELSE
          (list_min(list_slice(v, 1, len(v), 2)) + list_max(list_slice(v, 1, len(v), 2))) * 0.5
        END AS x,
        CASE WHEN kind = 'point' THEN v[2] ELSE
          (list_min(list_slice(v, 2, len(v), 2)) + list_max(list_slice(v, 2, len(v), 2))) * 0.5
        END AS y
      FROM v
    ),
    c AS (
      SELECT doc_id, x, y,
        CAST(floor(x / CAST({cw!r} AS DOUBLE)) AS BIGINT) AS col,
        CAST(floor(y / CAST({cw!r} AS DOUBLE)) AS BIGINT) AS row,
        CAST(floor((x - CAST({bx0!r} AS DOUBLE)) / CAST({spec.x_size!r} AS DOUBLE)) AS BIGINT) AS tcol,
        CAST(floor((y - CAST({by0!r} AS DOUBLE)) / CAST({spec.y_size!r} AS DOUBLE)) AS BIGINT) AS trow
      FROM p
    ),
    t AS (
      SELECT doc_id, x, y,
        CASE WHEN col >= 0 AND col < {n} AND row >= 0 AND row < {n}
             THEN {_morton(level)} ELSE -1 END AS cell_id,
        CASE WHEN x >= {bx0!r} AND x < {bx1!r} AND y >= {by0!r} AND y < {by1!r}
             THEN least(greatest(trow, 0), {spec.n_rows - 1}) * {spec.n_cols}
                  + least(greatest(tcol, 0), {spec.n_cols - 1})
             ELSE -1 END AS tile_id
      FROM c
    ),
    {_hits("t", "p.doc_id, p.x, p.y, p.cell_id, p.tile_id, "
                "z.fid AS zone_fid, z.category AS zone_category")}
    SELECT * FROM hits
    """
    return con.execute(sql).fetch_df()


def zonal_moments(cells: pa.Table, zones: pa.Table, no_data: float = -9999.0) -> pd.DataFrame:
    """Expected ``zonal_stats`` moments per zone (population stddev;
    zones without cells, and a stddev whose variance rounds below zero,
    read ``no_data``)."""
    sql = f"""
    WITH {_hits("cells", "z.fid, p.val")},
    a AS (
      SELECT fid, COUNT(*) AS cnt, CAST(SUM(val) AS DOUBLE) AS s,
             CAST(SUM(val * val) AS DOUBLE) AS q,
             CAST(MIN(val) AS DOUBLE) AS mn, CAST(MAX(val) AS DOUBLE) AS mx
      FROM hits GROUP BY fid
    ),
    m AS (
      SELECT fid, cnt, s, mn, mx, s / cnt AS mean,
             q / cnt - (s / cnt) * (s / cnt) AS var
      FROM a
    )
    SELECT z.fid,
      COALESCE(m.cnt, {int(no_data)}) AS count,
      COALESCE(m.s, {no_data}) AS sum,
      COALESCE(m.mn, {no_data}) AS min,
      COALESCE(m.mx, {no_data}) AS max,
      COALESCE(m.mean, {no_data}) AS mean,
      COALESCE(CASE WHEN m.var < 0 THEN NULL ELSE sqrt(m.var) END, {no_data}) AS stddev
    FROM zones z LEFT JOIN m ON z.fid = m.fid
    """
    return _connect(zones, cells=cells).execute(sql).fetch_df()


def point_pairs(points: pa.Table, zones: pa.Table) -> pd.DataFrame:
    """Expected (pt_row, fid) pairs of an inner point-in-zone join."""
    sql = f"WITH {_hits('points', 'p.pt_row, z.fid')} SELECT * FROM hits"
    return _connect(zones, points=points).execute(sql).fetch_df()
