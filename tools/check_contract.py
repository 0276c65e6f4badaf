"""Local harness mimicking the driver's correctness gate.

Runs every queries() entry at the given sf and compares against
oracle_sql() via DuckDB: row count, sorted-column schema, and an
order-insensitive value hash. Usage:

    python tools/check_contract.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

# the checkout this script lives in, whatever its path
REPO_ROOT = Path(__file__).resolve().parent.parent

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalized(df: pd.DataFrame) -> pd.DataFrame:
    """``df`` with sorted columns, bools and ints as int64, floats as
    float64: the form :func:`value_hash` hashes."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64)
    return df


def row_hashes(df: pd.DataFrame) -> np.ndarray:
    return pd.util.hash_pandas_object(normalized(df), index=False).to_numpy()


def value_hash(df: pd.DataFrame) -> int:
    return int(np.bitwise_xor.reduce(row_hashes(df))) ^ len(df)


def report_one_sided_rows(name: str, got: pd.DataFrame, want: pd.DataFrame) -> None:
    """Print to stderr up to 10 rows found only in the engine's result
    and up to 10 found only in the oracle's, compared by row hash, so a
    mismatch shows which side holds what."""
    hg, hw = row_hashes(got), row_hashes(want)
    for label, df, mine, other in (
        ("engine", got, hg, hw),
        ("oracle", want, hw, hg),
    ):
        only = normalized(df)[~np.isin(mine, other)]
        print(
            f"{name}: {len(only)} rows only in the {label} result"
            + (f":\n{only.head(10).to_string(index=False)}" if len(only) else ""),
            file=sys.stderr,
        )


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # Ray workers import the engine from this process's working
    # directory, so run from this checkout: this process and its
    # workers then load the same rsgislib_ray.
    sf_dir = os.path.abspath(sf_dir)
    os.chdir(REPO_ROOT)
    sys.path.insert(0, str(REPO_ROOT))

    import ray

    ray.init(
        address="local",
        num_cpus=8,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = []
    ran = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        ran += 1
        import time

        t0 = time.time()
        try:
            got = to_df(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok(rows-only) {name}: {len(got)} rows  [{dt:.1f}s]")
            continue
        try:
            want = con.execute(oracles[name]).fetch_df()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name}: oracle raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            problems.append(
                f"schema {sorted(got.columns)} != {sorted(want.columns)}"
            )
        if not problems and value_hash(got) != value_hash(want):
            problems.append("value-hash mismatch")
            report_one_sided_rows(name, got, want)
            g = got.sort_values(sorted(got.columns)).reset_index(drop=True)
            w = want.sort_values(sorted(want.columns)).reset_index(drop=True)
            for c in sorted(got.columns):
                if not np.array_equal(
                    g[c].to_numpy(), w[c].to_numpy()
                ):
                    diffs = (
                        (g[c].to_numpy() != w[c].to_numpy()).sum()
                        if len(g) == len(w)
                        else "?"
                    )
                    problems.append(f"  col {c}: {diffs} differing values")
        if problems:
            print(f"FAIL  {name}: {'; '.join(problems)}  [{dt:.1f}s]")
            failures.append(name)
        else:
            print(f"ok    {name}: {len(got)} rows match oracle  [{dt:.1f}s]")

    ray.shutdown()
    print(
        f"\n{ran - len(failures)}/{ran} queries pass"
        + (f"; FAILURES: {failures}" if failures else "")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
