"""Per-partition checkpoint/resume + lineage manifests.

The reference has no checkpointing; its tiled pipelines are manually
resumable only because each stage leaves files + a JSON manifest behind
(/root/reference/python/rsgislib/segmentation/tiledsegsingle.py:543-706).
Here resume is a first-class contract (north rule: "resumable from
per-partition checkpoints with lineage and metrics"):

- output is partitioned by a key column (tile_id / cell range); a
  partition is a directory of immutable parquet fragments, at most one
  per input block, written without a shuffle;
- a partition becomes visible only through the manifest: its fragments
  are renamed into one directory, the directory is renamed into place,
  and only then is a manifest row (partition, rows, span_sig
  fingerprint) appended. Nothing is fsync'd, so this does not promise
  durability across a power loss; it promises that a killed process
  leaves nothing half-committed (readers follow the manifest, and a
  torn last manifest line counts as not committed);
- a rerun consults the manifest and :func:`resume_filter` drops
  finished partitions from the stream it is applied to, so they are
  not written again. Work upstream of that point is redone: ``cli
  flagship --resume`` filters the joined stream, so every doc is still
  read, parsed and joined;
- the manifest carries the lineage chain (op names + params) so a
  partition written by a different pipeline version is not silently
  reused.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

MANIFEST = "_MANIFEST.jsonl"
# Per-run directory under ``out_dir`` that holds uncommitted fragments.
STAGING_PREFIX = "_staging-"


def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, MANIFEST)


def finished_partitions(out_dir: str, lineage_id: str) -> set:
    """Partition keys already committed for this lineage."""
    done = set()
    path = _manifest_path(out_dir)
    if not os.path.exists(path):
        return done
    with open(path) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write of the final line -> partition not committed
            if rec.get("lineage_id") == lineage_id:
                done.add(rec["partition"])
    return done


def lineage_fingerprint(lineage: list[dict]) -> str:
    """Stable id of the op chain so stale outputs are never reused."""
    import hashlib

    return hashlib.sha256(
        json.dumps(lineage, sort_keys=True).encode()
    ).hexdigest()[:16]


def _remove_stale_staging(out_dir: str) -> None:
    """Delete what a killed earlier run left uncommitted: staging roots
    and the per-partition ``*.tmp-*`` dirs of the older writer."""
    for d in glob.glob(os.path.join(out_dir, STAGING_PREFIX + "*")) + glob.glob(
        os.path.join(out_dir, "*.tmp-*")
    ):
        shutil.rmtree(d, ignore_errors=True)


def _fragment_writer(staging: str, partition_col: str):
    """Block -> one parquet fragment per partition key in ``staging``,
    returning one row per fragment: (partition, rows, path, span_xor)."""
    from rsgislib_ray.stages.spans import span_signature

    def write_fragments(batch: pa.Table) -> pa.Table:
        batch = batch.take(pc.sort_indices(batch[partition_col]))
        runs = pc.value_counts(batch[partition_col])  # sorted, so in key order
        counts = runs.field("counts").to_numpy()
        starts = np.cumsum(counts) - counts
        # one signature pass per block; rows are independent, so a
        # fragment's XOR is a segment reduce over the sorted block
        sigs = (
            np.bitwise_xor.reduceat(span_signature(batch), starts).tolist()
            if "spans" in batch.column_names
            else [None] * len(starts)
        )
        paths = []
        for start, n in zip(starts.tolist(), counts.tolist()):
            path = os.path.join(staging, f"{uuid.uuid4().hex}.parquet")
            pq.write_table(batch.slice(start, n), path)
            paths.append(path)
        return pa.table(
            {
                "partition": runs.field("values"),
                "rows": pa.array(counts, type=pa.int64()),
                "path": pa.array(paths, type=pa.string()),
                "span_xor": pa.array(sigs, type=pa.uint64()),
            }
        )

    return write_fragments


def _commit_partition(
    out_dir: str,
    staging: str,
    partition_col: str,
    key,
    fragments: list[tuple[str, int, int | None]],
    lineage_id: str,
) -> int:
    """Atomically publish one partition from ``fragments`` (path, rows,
    span_xor), the fragments successful writer tasks returned; any other
    file in ``staging`` is left there. Returns the partition's rows."""
    name = f"{partition_col}={key}"
    tmp = os.path.join(staging, name)
    os.makedirs(tmp)
    for i, (path, _, _) in enumerate(sorted(fragments)):
        os.rename(path, os.path.join(tmp, f"part-{i}.parquet"))
    pdir = os.path.join(out_dir, name)
    if os.path.exists(pdir):  # an uncommitted leftover or another lineage's
        shutil.rmtree(pdir)
    os.rename(tmp, pdir)
    rows = sum(n for _, n, _ in fragments)
    rec = {"partition": key, "rows": rows, "lineage_id": lineage_id, "ts": time.time()}
    if fragments[0][2] is not None:
        # span-sequence integrity fingerprint (north-rule invariant):
        # XOR of every row's span signature, then of the row count, so
        # a reread partition can be checked against the manifest
        rec["span_sig"] = rows
        for _, _, sig in fragments:
            rec["span_sig"] ^= sig
    with open(_manifest_path(out_dir), "a") as f:
        f.write(json.dumps(rec) + "\n")
    return rows


def checkpointed_write(
    ds: ray.data.Dataset,
    out_dir: str,
    partition_col: str,
    lineage: list[dict],
) -> dict:
    """Write ``ds`` partitioned by ``partition_col`` with atomic commit
    + manifest append per partition. Returns a summary dict.

    One ``map_batches`` stage, fused into the upstream operator, splits
    each block by key and writes one parquet fragment per (block,
    partition) into a per-run staging dir under ``out_dir``; no shuffle,
    so a partition holds at most as many files as ``ds`` has blocks.
    The driver then commits each partition (:func:`_commit_partition`)
    from the fragment paths that successful tasks returned and deletes
    the staging dir with whatever failed attempts left in it. A killed
    run resumes by pruning its input with :func:`resume_filter`.

    ``out_dir`` must have one writer at a time: a write starts by
    deleting every staging dir found there.
    """
    os.makedirs(out_dir, exist_ok=True)
    _remove_stale_staging(out_dir)
    lid = lineage_fingerprint(lineage)
    staging = os.path.join(out_dir, STAGING_PREFIX + uuid.uuid4().hex[:8])
    os.makedirs(staging)
    try:
        # materialized once: the writer has side effects and must run once
        written = ds.map_batches(
            _fragment_writer(staging, partition_col),
            batch_size=None,
            batch_format="pyarrow",
        ).materialize()
        fragments: dict = {}
        for t in ray.get(written.to_arrow_refs()):
            if t.num_rows == 0:  # an empty block can pass through untouched
                continue
            for key, n, path, sig in zip(
                *(t[c].to_pylist() for c in ("partition", "rows", "path", "span_xor"))
            ):
                fragments.setdefault(key, []).append((path, n, sig))
        rows = sum(
            _commit_partition(out_dir, staging, partition_col, key, frags, lid)
            for key, frags in fragments.items()
        )
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    meta = {
        "out_dir": out_dir,
        "lineage_id": lid,
        "lineage": lineage,
        "partitions_written": len(fragments),
        "rows_written": rows,
    }
    with open(os.path.join(out_dir, "_LINEAGE.json"), "w") as f:
        json.dump(meta, f, indent=1)
    return meta


def resume_filter(
    ds: ray.data.Dataset,
    out_dir: str,
    partition_col: str,
    partition_fn,
    lineage: list[dict],
) -> tuple[ray.data.Dataset, set]:
    """Prune rows of already-committed partitions from the INPUT stream
    (``partition_fn(batch) -> int64 array`` computes the partition key
    per row). Returns (filtered ds, finished set)."""
    lid = lineage_fingerprint(lineage)
    done = finished_partitions(out_dir, lid)
    if not done:
        return ds, done
    done_arr = np.array(sorted(done), dtype=np.int64)

    def prune(batch: pa.Table) -> pa.Table:
        keys = partition_fn(batch)
        keep = ~np.isin(keys, done_arr)
        return batch.filter(pa.array(keep))

    return ds.map_batches(prune, batch_format="pyarrow"), done


def read_checkpointed(
    out_dir: str, lineage_id: str | None = None
) -> ray.data.Dataset:
    """Read back only COMMITTED partitions (manifest-listed dirs) of ONE
    pipeline version. ``lineage_id`` defaults to the id recorded by the
    most recent :func:`checkpointed_write` (``_LINEAGE.json``), so a
    rerun with changed lineage into the same ``out_dir`` never mixes
    partitions from two versions; pass ``lineage_id=""`` to read every
    manifest record regardless of version."""
    if lineage_id is None:
        lj = os.path.join(out_dir, "_LINEAGE.json")
        if os.path.exists(lj):
            with open(lj) as f:
                lineage_id = json.load(f).get("lineage_id")
    path = _manifest_path(out_dir)
    parts = []
    seen = set()
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if lineage_id and rec.get("lineage_id") != lineage_id:
                    continue
                if rec["partition"] in seen:
                    continue
                seen.add(rec["partition"])
                parts.append(os.path.join(out_dir, f"*={rec['partition']}"))
    files = []
    for pat in parts:
        for d in glob.glob(pat):
            files.extend(glob.glob(os.path.join(d, "*.parquet")))
    if not files:
        raise ValueError(
            f"no committed partitions in {out_dir!r} for lineage_id {lineage_id!r}"
        )
    return ray.data.read_parquet(files)
