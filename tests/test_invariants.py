"""North-rule invariants: span-sequence preservation through every
pipeline, partition-count independence, and parallelism-level equality
of results.
"""

import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from rsgislib_ray.pipelines.flagship import flagship, synth_zone_table
from rsgislib_ray.sources.synth import synth_docs_batch, synth_docs_dataset
from rsgislib_ray.stages.spans import parse_geom_spans, span_signature


def test_span_invariant_through_flagship(ray_session):
    docs = synth_docs_dataset(3000, override_num_blocks=5)
    before = {}
    for batch in docs.iter_batches(batch_size=1024, batch_format="pyarrow"):
        sigs = span_signature(batch)
        for d, s in zip(batch["doc_id"].to_pylist(), sigs):
            before[d] = int(s)

    joined = flagship(docs, how="left")  # left keeps every doc
    seen = {}
    for batch in joined.iter_batches(batch_size=1024, batch_format="pyarrow"):
        sigs = span_signature(batch)
        for d, s in zip(batch["doc_id"].to_pylist(), sigs):
            seen.setdefault(d, set()).add(int(s))

    assert set(seen) == set(before)
    for d, sigset in seen.items():
        assert sigset == {before[d]}, f"span sequence changed for {d}"


def test_generation_partition_independent(ray_session):
    a = (
        synth_docs_dataset(2000, override_num_blocks=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        synth_docs_dataset(2000, override_num_blocks=13)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert a["spans"].map(str).tolist() == b["spans"].map(str).tolist()


def test_join_results_partition_independent(ray_session):
    zones = synth_zone_table(32)
    outs = []
    for blocks in (3, 11):
        docs = synth_docs_dataset(4000, override_num_blocks=blocks)
        j = flagship(docs, zones=zones).to_pandas()
        outs.append(
            sorted(zip(j["doc_id"], j["zone_fid"]))
        )
    assert outs[0] == outs[1]


PARALLEL_SNIPPET = """
import json, sys
import ray
ray.init(address="local", num_cpus={ncpu}, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, "/root/repo")
from rsgislib_ray.pipelines.flagship import flagship, synth_zone_table
from rsgislib_ray.sources.synth import synth_docs_dataset
docs = synth_docs_dataset(5000)
j = flagship(docs, zones=synth_zone_table(32)).to_pandas()
pairs = sorted(zip(j["doc_id"], j["zone_fid"]))
import hashlib
print(hashlib.sha256(str(pairs).encode()).hexdigest())
ray.shutdown()
"""


@pytest.mark.slow
def test_parallelism_level_equality():
    """The 2-CPU and 8-CPU runs (fresh processes) produce identical
    join results — the sandbox stand-in for N vs 4N cluster equality."""
    digests = []
    for ncpu in (2, 8):
        out = subprocess.run(
            [sys.executable, "-c", PARALLEL_SNIPPET.format(ncpu=ncpu)],
            capture_output=True,
            text=True,
            check=True,
            cwd="/root/repo",
        ).stdout.strip().splitlines()[-1]
        digests.append(out)
    assert digests[0] == digests[1]


def test_sortmerge_and_events_partition_independent(ray_session, sf_dir):
    """The sort-based operators (sort-merge join, event lag/sessions)
    must give identical results under different input partitionings —
    block-boundary handling is exactly what varies."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from rsgislib_ray.sources import testdata as td
    from rsgislib_ray.stages.events import event_lag, event_sessions
    from rsgislib_ray.stages.spatial_join import spatial_join_points_sortmerge

    zones = td.zones_from_part(sf_dir)

    def join_at(nparts):
        pts = td.points_from_orders(sf_dir).map_batches(
            lambda t: t.append_column("pt_row", t["pt_id"]),
            batch_format="pyarrow",
        ).repartition(nparts)
        out = spatial_join_points_sortmerge(pts, zones, key_col="pt_row")
        return sorted(zip(*[out.to_pandas()[c] for c in ("pt_row", "fid")]))

    assert join_at(2) == join_at(13)

    ev = f"{sf_dir}/events.parquet"

    def lag_at(nparts):
        ds = ray.data.read_parquet(
            ev, columns=["event_id", "user_id", "ts", "value"]
        ).repartition(nparts)
        df = event_lag(ds).to_pandas().sort_values("event_id")
        return df["prev_cents"].to_numpy()

    a, b = lag_at(2), lag_at(11)
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    np.testing.assert_array_equal(a[~np.isnan(a)], b[~np.isnan(b)])

    def sess_at(nparts):
        ds = ray.data.read_parquet(
            ev, columns=["event_id", "user_id", "ts"]
        ).repartition(nparts)
        df = event_sessions(ds).to_pandas().sort_values("event_id")
        return df["session_id"].to_numpy()

    np.testing.assert_array_equal(sess_at(2), sess_at(11))


def test_event_funnel_native_combine_identical(ray_session, sf_dir):
    """VERDICT r3 #1: the funnel's combine="native" path (hash-join
    per-step minima + distributed segment-min — the 10^9-user shape)
    is bit-identical to the default driver combine."""
    from rsgislib_ray.sources import testdata as td
    from rsgislib_ray.stages.events import event_funnel

    ds = td.read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    ).repartition(8)
    drv = (
        event_funnel(ds)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    nat = (
        event_funnel(ds, combine="native")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)[drv.columns]
    )
    assert list(drv.columns) == list(nat.columns)
    assert (drv.fillna(-1).to_numpy() == nat.fillna(-1).to_numpy()).all()


def test_event_funnel_auto_routes_native(ray_session, sf_dir, monkeypatch):
    """combine="auto" (now the funnel default) routes by the MEASURED
    step-1 partial row count: a 1-row threshold must flip the default
    onto the native path (Dataset, not pa.Table) with identical
    values — so the 100x-scale route doesn't rely on the caller
    knowing the flag (VERDICT r3 #5 pattern)."""
    import ray

    from rsgislib_ray.sources import testdata as td
    from rsgislib_ray.stages import segsum
    from rsgislib_ray.stages.events import event_funnel

    ds = td.read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    ).repartition(8)
    drv = (
        event_funnel(ds, combine="driver")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 1)
    auto = event_funnel(ds, combine="auto")
    assert isinstance(auto, ray.data.Dataset)  # proves native routing
    auto = (
        auto.to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)[drv.columns]
    )
    assert (drv.fillna(-1).to_numpy() == auto.fillna(-1).to_numpy()).all()


def test_stratified_sample_partition_independent(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from rsgislib_ray.stages.sampling import stratified_hash_sample

    ids = np.arange(30000, dtype=np.int64)
    tbl = pa.table({"grp": ids % 13, "id": ids})

    def sample_at(nparts):
        ds = ray.data.from_arrow(tbl).repartition(nparts)
        out = stratified_hash_sample(ds, "grp", "id", 15).to_pandas()
        return sorted(zip(out["grp"], out["id"]))

    a = sample_at(2)
    assert len(a) == 13 * 15
    assert a == sample_at(17)


def test_asof_and_interval_join_partition_independent(ray_session, sf_dir):
    import numpy as np
    import ray.data

    from rsgislib_ray.stages.events import (
        asof_join_broadcast,
        interval_join_broadcast,
    )

    base_us = np.datetime64("2024-01-01", "us").astype(np.int64)
    v = np.arange(25, dtype=np.int64)
    ref_ts = base_us + v * 7 * 3_600_000_000

    def asof_at(nparts):
        ds = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
        ).repartition(nparts)
        out = asof_join_broadcast(
            ds, ref_ts, {"rate": (v * 3 + 1).astype(np.float64)}
        ).to_pandas().sort_values("event_id")
        return out["rate"].to_numpy()

    a, b = asof_at(2), asof_at(11)
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    np.testing.assert_array_equal(a[~np.isnan(a)], b[~np.isnan(b)])

    from rsgislib_ray.sources import testdata as td

    g = np.arange(60, dtype=np.int64)
    lo = (g * 7 % 90).astype(np.float64)
    hi = lo + 3 + (g % 11)

    def iv_at(nparts):
        pts = td.points_from_orders(sf_dir).repartition(nparts)
        out = interval_join_broadcast(pts, lo, hi, g, "x").to_pandas()
        return sorted(zip(out["pt_id"], out["interval_id"]))

    assert iv_at(2) == iv_at(9)
