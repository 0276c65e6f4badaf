"""Deduplication stages for the documents table.

The reference's dedup surface is exact attribute dedup
(``rm_feat_att_duplicates`` — pandas drop_duplicates on a column
subset, /root/reference/python/rsgislib/vectorutils/__init__.py:3443;
join-dedup vectorattrs/__init__.py:1216) and spatial thinning
(vectorgeoms/__init__.py:3621). A 100 TB training-data pipeline needs
the near-dup family too, so this module adds MinHash+LSH, SimHash and
n-gram-Jaccard verification as first-class Ray Data stages.

Scale shapes:
- exact: content-hash in ``map_batches`` (vectorized stable SipHash) ->
  ``segsum.segment_sum(min)`` per hash -> first-wins (min doc_id) — one
  shuffle of (hash, id) partials only.
- minhash-lsh: per-batch signature matrix (segmented-min over shingle
  hashes — no per-doc loop), explode to (bucket, doc_id) band rows,
  the engine's hash plan keyed on the bucket pairs each bucket whole
  (``partition.hash_reduce``), exact-Jaccard verify on the same plan
  keyed on the pair id, then min-label clustering. Candidate volume is
  bounded by the band structure, not O(n^2).
- simhash: 64-bit signature per doc; near-dup candidates via 4x16-bit
  band buckets (Hamming radius <= 3 guaranteed candidate recall) on
  the same hash plan, each pair kept from its lowest shared band.
- k-gram: distinct window hashes per doc on the hash plan keyed on the
  gram, shared windows counted by ``segsum.combine_dataset``.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from rsgislib_ray.functions.arrayops import expand
from rsgislib_ray.functions.hashing import (
    hash_combine,
    hash_strings,
    polyhash_strings,
    splitmix64,
)
from rsgislib_ray.functions.textstats import word_shingles

from rsgislib_ray.functions.arrowize import arrowize
from rsgislib_ray.stages import partition, segsum
from rsgislib_ray.stages.partition import held_blocks

_U = np.uint64
_MERSENNE = (1 << 61) - 1


def add_content_hash(
    ds: ray.data.Dataset, cols: list[str], out_col: str = "content_hash"
) -> ray.data.Dataset:
    """Stable combined hash of the listed columns (order-sensitive)."""

    def tag(batch: pa.Table) -> pa.Table:
        h = np.zeros(len(batch), dtype=np.uint64)
        for c in cols:
            vals = batch[c].cast(pa.string()).to_numpy(zero_copy_only=False)
            h = splitmix64(h ^ hash_strings(vals))
        return batch.append_column(out_col, pa.array(h.astype(np.int64)))

    return ds.map_batches(tag, batch_format="pyarrow")


def exact_dedup(
    ds: ray.data.Dataset,
    cols: list[str],
    id_col: str = "doc_id",
    strategy: str = "auto",
) -> ray.data.Dataset:
    """First-wins exact dedup on a column subset
    (rm_feat_att_duplicates semantics: keep the lowest-id row of each
    duplicate group). Returns the surviving rows.

    Shape: per-batch partial (hash, min_id) pre-reduce -> distributed
    ``segment_sum(min)`` winner selection (hash partitions, each
    reduced in one task; the combine never runs on the driver) ->
    winner filter:

    - ``strategy="broadcast"``: the winner blocks stay in the object
      store (``to_arrow_refs``); each worker process fetches + sorts
      them once (``cached_multi``) and filters its batches with a
      vectorized searchsorted. Right when the distinct-hash set fits a
      worker heap; the wide rows never shuffle.
    - ``strategy="join"``: the engine's hash join (``partition.join``,
      left outer) on content_hash + ``id == win_id`` filter — the
      100 TB path when the distinct-hash set itself is too large to
      broadcast. One shuffle of the wide rows, no driver
      materialization anywhere.
    - ``strategy="auto"`` (default): routes by the MEASURED dup-group
      count — the exact table the broadcast would ship (the
      :func:`segsum.route` pattern): ``"join"`` above
      :data:`segsum.AUTO_NATIVE_ROWS` dup groups, else broadcast.
      The measuring pass reduces each winner block to one count row,
      so no winner data reaches the driver.
    """
    hashed = add_content_hash(ds, cols)

    def partial(batch: pa.Table) -> pa.Table:
        h = batch["content_hash"].to_numpy()
        i = batch[id_col].to_numpy()
        order = np.lexsort((i, h))
        h2, i2 = h[order], i[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(h2)) + 1])
        ends = np.concatenate([starts[1:], [len(h2)]])
        return pa.table(
            {
                "content_hash": h2[starts],
                "min_id": i2[starts],
                "cnt": (ends - starts).astype(np.int64),
            }
        )

    winners = segsum.segment_sum(
        hashed.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "content_hash",
        ["min_id", "cnt"],
        aggs=["min", "sum"],
    )  # columns: content_hash, min_id, cnt; materialized

    if strategy == "auto":

        def count_dups(b: pa.Table) -> pa.Table:
            return pa.table(
                {"n": [int((b["cnt"].to_numpy() >= 2).sum())]}
            )

        ndup = sum(
            r["n"]
            for r in winners.map_batches(
                count_dups, batch_format="pyarrow"
            ).take_all()
        )
        strategy = (
            "join" if ndup > segsum.AUTO_NATIVE_ROWS else "broadcast"
        )

    if strategy == "join":
        # only hashes seen >= 2 times need adjudication — a unique
        # hash's single row is its own winner. Filtering the right side
        # to DUP GROUPS (the rare case on a real crawl) shrinks the
        # join's build side from |distinct| to |dup groups|; the
        # left_outer join keeps unique rows (null win_id) untouched.
        def rename(b: pa.Table) -> pa.Table:
            dup = pa.compute.greater_equal(b["cnt"], 2)
            b = b.filter(dup)
            return pa.table(
                {"content_hash": b["content_hash"], "win_id": b["min_id"]}
            )

        w, n_dup = partition.held_rows(
            winners.map_batches(rename, batch_format="pyarrow")
        )
        if not n_dup:  # no duplicate hashes at all

            def strip(b: pa.Table) -> pa.Table:
                return b.drop_columns(["content_hash"])

            return hashed.map_batches(strip, batch_format="pyarrow")
        joined = partition.join(hashed, w, "content_hash", "left_outer")

        def keep_join(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            ok = pc.or_kleene(
                pc.is_null(b["win_id"]), pc.equal(b[id_col], b["win_id"])
            )
            return b.filter(ok).drop_columns(["content_hash", "win_id"])

        return joined.map_batches(keep_join, batch_format="pyarrow")

    blocks = winners.to_arrow_refs()  # result lives in the object store

    def build_winner_arrays(tables: list) -> tuple:
        nonempty = [tb for tb in tables if tb.num_rows]
        if not nonempty:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        t = pa.concat_tables(nonempty)
        # broadcast only the DUP-GROUP winners (cnt >= 2): unique
        # hashes pass the filter implicitly, so the broadcast table
        # shrinks from |distinct| to |dup groups|
        dup = t["cnt"].to_numpy() >= 2
        wh = t["content_hash"].to_numpy()[dup]
        wi = t["min_id"].to_numpy()[dup]
        order = np.argsort(wh, kind="stable")
        return wh[order], wi[order]

    def keep(batch: pa.Table, _blocks=None) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached_multi

        kh, ki = cached_multi(_blocks, build_winner_arrays)
        if len(batch) == 0:
            return batch.drop_columns(["content_hash"])
        if len(kh) == 0:  # no duplicate hashes: everything survives
            return batch.drop_columns(["content_hash"])
        h = batch["content_hash"].to_numpy()
        i = batch[id_col].to_numpy()
        pos = np.minimum(np.searchsorted(kh, h), len(kh) - 1)
        present = kh[pos] == h
        ok = ~present | (ki[pos] == i)
        return batch.filter(pa.array(ok)).drop_columns(["content_hash"])

    return hashed.map_batches(
        keep, fn_kwargs={"_blocks": blocks}, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _minhash_params(n_perm: int, seed: int = 7):
    h = splitmix64(np.arange(2 * n_perm, dtype=np.uint64) + _U(seed))
    a = (h[:n_perm] | _U(1)) % _U(_MERSENNE)
    b = h[n_perm:] % _U(_MERSENNE)
    return a, b


def minhash_signatures(
    texts, n_perm: int = 128, shingle_k: int = 3, seed: int = 7
) -> np.ndarray:
    """(n_docs, n_perm) uint64 MinHash signature matrix, computed with
    one exploded shingle-hash array + ``np.minimum.reduceat`` per
    permutation — vectorized across ALL docs in the batch."""
    a, b = _minhash_params(n_perm, seed)
    tok_lists = [
        word_shingles(t.split(" "), shingle_k) if t else [] for t in texts
    ]
    counts = np.array([max(len(t), 1) for t in tok_lists], dtype=np.int64)
    flat = [s for lst in tok_lists for s in (lst if lst else [""])]
    sh = polyhash_strings(flat) % _U(_MERSENNE)  # SQL-mirrorable
    starts = np.cumsum(counts) - counts
    sig = np.empty((len(texts), n_perm), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for p in range(n_perm):
            hp = (a[p] * sh + b[p]) % _U(_MERSENNE)
            sig[:, p] = np.minimum.reduceat(hp, starts)
    return sig


def _band_rows(
    ids: np.ndarray, sig: np.ndarray, n_bands: int
) -> pa.Table:
    n, n_perm = sig.shape
    rows_per_band = n_perm // n_bands
    band_id = []
    band_hash = []
    doc = []
    for bnd in range(n_bands):
        seg = sig[:, bnd * rows_per_band : (bnd + 1) * rows_per_band]
        h = np.zeros(n, dtype=np.uint64)
        for j in range(rows_per_band):
            h = splitmix64(h ^ seg[:, j])
        band_id.append(np.full(n, bnd, dtype=np.int64))
        band_hash.append(h.astype(np.int64))
        doc.append(ids)
    return pa.table(
        {
            "band_id": np.concatenate(band_id),
            "band_hash": np.concatenate(band_hash),
            "doc_id": np.concatenate(doc),
        }
    )


def jaccard(a: str, b: str, shingle_k: int = 3) -> float:
    sa = set(word_shingles(a.split(" "), shingle_k))
    sb = set(word_shingles(b.split(" "), shingle_k))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(len(sa | sb), 1)


_MAX_RUN_ALLPAIRS = 512  # buckets beyond this emit linear chain pairs


def _run_pairs(ids: np.ndarray):
    """All (i<j) pairs for a sorted-by-id bucket run, falling back to a
    linear CHAIN (consecutive ids) for degenerate giant buckets so the
    pair count stays O(m) — connectivity under union-find is identical
    when chained pairs verify, and giant buckets are near-identical docs
    by construction."""
    m = len(ids)
    if m < 2:
        return np.empty(0, ids.dtype), np.empty(0, ids.dtype)
    if m <= _MAX_RUN_ALLPAIRS:
        ii, jj = np.triu_indices(m, k=1)
        return ids[ii], ids[jj]
    return ids[:-1], ids[1:]


def _bucket_runs(parts: tuple, key: str, doc: str, *cols: str):
    """One hash partition's rows (``parts``) sorted by ``(key, doc)``:
    the ``key``, ``doc`` and ``cols`` columns as int64 arrays, and the
    ``(start, end)`` of each run of one ``key`` value holding two rows
    or more. The hash plan brings every row of a key to one partition
    (``partition.hash_reduce``), so each run is a whole bucket."""
    t = partition.side(parts)
    names = (key, doc, *cols)
    if not t.num_rows:
        return [np.empty(0, np.int64) for _ in names], []
    arrs = [t[c].to_numpy().astype(np.int64, copy=False) for c in names]
    order = np.lexsort((arrs[1], arrs[0]))
    arrs = [c[order] for c in arrs]
    k = arrs[0]
    cut = np.r_[0, np.flatnonzero(k[1:] != k[:-1]) + 1, len(k)]
    multi = np.flatnonzero(np.diff(cut) >= 2)
    return arrs, list(zip(cut[multi], cut[multi + 1]))


def _bucket_pairs(key: str, doc: str, *parts: pa.Table) -> pa.Table:
    """:func:`_run_pairs` of every bucket of one hash partition, as
    ``(doc_a, doc_b)`` rows."""
    (_, d), runs = _bucket_runs(parts, key, doc)
    a, b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for st, en in runs:
        ra, rb = _run_pairs(d[st:en])
        a.append(ra)
        b.append(rb)
    return pa.table({"doc_a": np.concatenate(a), "doc_b": np.concatenate(b)})


def minhash_lsh_candidates(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_perm: int = 128,
    n_bands: int = 16,
    shingle_k: int = 3,
) -> ray.data.Dataset:
    """Candidate near-dup pairs (doc_a < doc_b, ALL pairs per bucket up
    to :data:`_MAX_RUN_ALLPAIRS` members, a chain beyond) from banded
    MinHash, as a materialized Dataset; a pair shared by several bands
    comes once per band.

    Band rows ``(bucket, doc_id)`` go through the engine's hash plan
    keyed on the bucket (``partition.hash_reduce``), so one reduce task
    holds each bucket whole and pairs it with :func:`_run_pairs`. All
    pairs (vs star pairs to the run minimum) keep two bucket members
    a, b with jaccard(a, b) >= threshold linked even when their pairs
    with a third member fail verification."""

    def to_bands(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy()
        sig = minhash_signatures(texts, n_perm, shingle_k)
        t = _band_rows(ids, sig, n_bands)
        key = hash_combine(
            t["band_id"].to_numpy().astype(np.uint64),
            t["band_hash"].to_numpy().astype(np.uint64),
        ).astype(np.int64)
        return pa.table({"bucket": key, "doc_id": t["doc_id"]})

    bands = ds.map_batches(to_bands, batch_format="pyarrow", batch_size=4096)
    return partition.hash_reduce(
        held_blocks(bands)[1],
        ["bucket"],
        functools.partial(_bucket_pairs, "bucket", "doc_id"),
    )


def _shingle_hash_arrays(texts, shingle_k: int) -> list:
    """Per-doc sorted-unique uint64 shingle-hash arrays (one hashing
    pass over the exploded shingle list, then per-doc unique)."""
    tok_lists = [
        word_shingles(t.split(" "), shingle_k) if t else [""] for t in texts
    ]
    counts = np.array([max(len(t), 1) for t in tok_lists], dtype=np.int64)
    flat = [s for lst in tok_lists for s in (lst if lst else [""])]
    sh = polyhash_strings(flat)
    starts = np.concatenate([[0], np.cumsum(counts)])
    return [
        np.unique(sh[starts[i] : starts[i + 1]]) for i in range(len(texts))
    ]


def verify_pairs_jaccard(
    docs: ray.data.Dataset,
    pairs: pd.DataFrame,
    threshold: float,
    shingle_k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Pandas-pairs convenience wrapper over
    :func:`verify_pairs_jaccard_ds` (small, driver-resident pair lists
    — tests and notebooks)."""
    if len(pairs) == 0:
        return pd.DataFrame({"doc_a": [], "doc_b": [], "jaccard": []})
    pairs_ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pairs["doc_a"].to_numpy().astype(np.int64),
                "doc_b": pairs["doc_b"].to_numpy().astype(np.int64),
            }
        )
    )
    return verify_pairs_jaccard_ds(
        docs, pairs_ds, threshold, shingle_k, id_col, text_col
    ).to_pandas()


def _build_pair_adjacency(tables: list) -> tuple:
    """``cached_multi`` build fn over the held candidate-pair blocks:
    dedup pairs deterministically (lexsort on (a, b)) and lay out the
    (sorted doc_id -> (pair_id, side)) adjacency arrays for the explode
    stage plus the (a, b) pair arrays the verify stage uses to emit
    surviving rows. Built once per worker process from block refs — the
    pair list never lands on the driver."""
    e8 = np.empty(0, np.int8)
    e = np.empty(0, np.int64)
    nonempty = [t for t in tables if t.num_rows]
    if not nonempty:
        return e, e, e, e, e8
    t = pa.concat_tables(nonempty)
    a = t["doc_a"].to_numpy().astype(np.int64)
    b = t["doc_b"].to_numpy().astype(np.int64)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
    a, b = a[keep], b[keep]
    n = len(a)
    pid = np.arange(n, dtype=np.int64)
    doc_ids = np.concatenate([a, b])
    pid2 = np.concatenate([pid, pid])
    side2 = np.concatenate(
        [np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)]
    )
    o = np.argsort(doc_ids, kind="stable")
    return a, b, doc_ids[o], pid2[o], side2[o]


def _verify_partition(refs: list, threshold: float, *parts: pa.Table) -> pa.Table:
    """One hash partition of ``(pair_id, side, sh)`` rows: every pair
    whose two sides both arrived (a partner doc absent from the corpus
    has none), kept when the Jaccard of its sides' sorted shingle-hash
    arrays reaches ``threshold``; ``(doc_a, doc_b, jaccard)`` rows."""
    from rsgislib_ray.state.broadcast import cached_multi

    a_arr, b_arr, _d, _p, _s = cached_multi(refs, _build_pair_adjacency)
    t = partition.side(parts)
    ok_pids, sims = [], []
    if t.num_rows:
        t = t.take(np.lexsort((t["side"].to_numpy(), t["pair_id"].to_numpy())))
        pid, side = t["pair_id"].to_numpy(), t["side"].to_numpy()
        sh = t["sh"].combine_chunks()
        off = sh.offsets.to_numpy()
        vals = sh.flatten().to_numpy()
        off = off - off[0]
        # side 0 then side 1 of one pair sit next to each other
        both = np.flatnonzero(
            (pid[1:] == pid[:-1]) & (side[:-1] == 0) & (side[1:] == 1)
        )
        for i in both:
            sa, sb = vals[off[i] : off[i + 1]], vals[off[i + 1] : off[i + 2]]
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            sim = 1.0 if union == 0 else inter / union
            if sim >= threshold:
                ok_pids.append(pid[i])
                sims.append(sim)
    ok = np.array(ok_pids, dtype=np.int64)
    return pa.table(
        {
            "doc_a": pa.array(a_arr[ok], pa.int64()),
            "doc_b": pa.array(b_arr[ok], pa.int64()),
            "jaccard": pa.array(sims, pa.float64()),
        }
    )


def verify_pairs_jaccard_ds(
    docs: ray.data.Dataset,
    pairs: ray.data.Dataset,
    threshold: float,
    shingle_k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Exact-Jaccard verification of candidate pairs, DISTRIBUTED end
    to end: the candidate pair blocks are held in the OBJECT STORE and
    each worker builds the dedup-sorted adjacency once
    (``cached_multi`` — the driver only ever holds block refs); the
    corpus streams through a map_batches that emits one row per
    (pair, side) with that doc's sorted shingle-hash array; those rows
    go through the engine's hash plan keyed on ``pair_id``
    (``partition.hash_reduce``), so one reduce task holds both sides of
    each pair and verifies it with sorted-array intersection
    (np.intersect1d). No document text OR PAIR ROW ever lands on the
    driver. Shingle sets are compared by 64-bit hash — collision
    probability is negligible and deterministic.

    Returns a materialized Dataset of surviving (doc_a, doc_b, jaccard)."""
    blocks = held_blocks(pairs)[1]
    refs = [ref for ref, m in blocks if m.num_rows]
    if not refs:
        return ray.data.from_arrow(_verify_partition([], threshold))

    def explode(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached_multi

        _a, _b, dsrt, psrt, ssrt = cached_multi(refs, _build_pair_adjacency)
        ids = batch[id_col].to_numpy()
        lo = np.searchsorted(dsrt, ids, side="left")
        hi = np.searchsorted(dsrt, ids, side="right")
        cnt = hi - lo
        sel = np.flatnonzero(cnt > 0)
        if len(sel) == 0:
            return pa.table(
                {
                    "pair_id": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int8()),
                    "sh": pa.array([], pa.list_(pa.uint64())),
                }
            )
        texts = batch[text_col].to_numpy(zero_copy_only=False)[sel]
        sh_arrays = _shingle_hash_arrays(texts, shingle_k)
        # one output row per (doc, membership)
        doc_pos, within = expand(cnt[sel])
        srcpos = lo[sel][doc_pos] + within
        lens = np.array([len(sh_arrays[i]) for i in doc_pos], dtype=np.int32)
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
        values = (
            np.concatenate([sh_arrays[i] for i in doc_pos])
            if len(doc_pos)
            else np.empty(0, dtype=np.uint64)
        )
        sh_list = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(values, pa.uint64())
        )
        return pa.table(
            {
                "pair_id": pa.array(psrt[srcpos], pa.int64()),
                "side": pa.array(ssrt[srcpos], pa.int8()),
                "sh": sh_list,
            }
        )

    exploded = docs.map_batches(explode, batch_format="pyarrow", batch_size=4096)
    return partition.hash_reduce(
        held_blocks(exploded)[1],
        ["pair_id"],
        functools.partial(_verify_partition, refs, threshold),
    )


def minhash_dedup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.7,
    n_perm: int = 128,
    n_bands: int = 16,
    shingle_k: int = 3,
    labels: str = "auto",
) -> ray.data.Dataset:
    """Near-dup clustering: LSH candidates -> distributed exact-Jaccard
    verify -> connected components over the contracted verified-pair
    graph -> label sweep over the corpus.

    Returns a Dataset of (doc_id, cluster_id, keep). NOTHING lands on
    the driver at any stage: candidate and verified pair blocks live in
    the object store (workers build the adjacency / union-find state
    once per process from block refs), and labeling is either a
    broadcast searchsorted sweep (``labels="driver"`` — the misnomer
    means "one worker heap holds the root map") or fully distributed
    min-label propagation (``labels="native"``, the 100 TB path);
    ``"auto"`` picks by verified-edge count. See
    :mod:`rsgislib_ray.stages.components`.
    """
    # held once: the corpus read and the maps before it run once, for
    # all three consumers
    texts_needed = held_blocks(ds.select_columns([id_col, text_col]))[0]
    pairs_ds = minhash_lsh_candidates(
        texts_needed, text_col, id_col, n_perm, n_bands, shingle_k
    )
    verified = verify_pairs_jaccard_ds(
        texts_needed, pairs_ds, threshold, shingle_k, id_col, text_col
    )
    from rsgislib_ray.stages.components import components_label_ids

    return components_label_ids(
        texts_needed.select_columns([id_col]),
        id_col,
        verified,
        u_col="doc_a",
        v_col="doc_b",
        strategy=labels,
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_signatures(texts) -> np.ndarray:
    """64-bit SimHash over whitespace tokens (unit weights) — bit b of
    the signature is 1 iff the sum of (+-1) votes of token-hash bit b
    is positive. Vectorized: explode tokens, bit-unpack, segment-sum."""
    tok_lists = [t.split(" ") if t else [""] for t in texts]
    counts = np.array([len(t) for t in tok_lists], dtype=np.int64)
    flat = [w for lst in tok_lists for w in lst]
    th = polyhash_strings(flat)  # SQL-mirrorable (see dedup_simhash oracle)
    bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & _U(1)).astype(
        np.int64
    )
    votes = bits * 2 - 1
    starts = np.cumsum(counts) - counts
    seg = np.add.reduceat(votes, starts, axis=0)
    sig = (seg > 0).astype(np.uint64)
    out = np.zeros(len(texts), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in range(64):
            out |= sig[:, b] << _U(b)
    return out


def add_simhash(
    ds: ray.data.Dataset, text_col: str = "text", out_col: str = "simhash"
) -> ray.data.Dataset:
    def tag(batch: pa.Table) -> pa.Table:
        sig = simhash_signatures(batch[text_col].to_numpy(zero_copy_only=False))
        return batch.append_column(out_col, pa.array(sig.astype(np.int64)))

    return ds.map_batches(tag, batch_format="pyarrow", batch_size=4096)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = a.astype(np.uint64) ^ b.astype(np.uint64)
    cnt = np.zeros(x.shape, dtype=np.int64)
    for _ in range(64):
        cnt += (x & _U(1)).astype(np.int64)
        x >>= _U(1)
    return cnt


def _simhash_pairs(max_hamming: int, *parts: pa.Table) -> pa.Table:
    """Every pair of each band bucket of one hash partition within
    ``max_hamming`` bits, kept only from the lowest band its two
    signatures share, so each pair comes once: ``(doc_a, doc_b,
    hamming)`` rows."""
    (key, d, s), runs = _bucket_runs(parts, "bucket", "doc_id", "simhash")
    ii, jj = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for st, en in runs:
        i, j = np.triu_indices(en - st, k=1)
        ii.append(i + st)
        jj.append(j + st)
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    hd = hamming64(s[ii], s[jj])
    x = s[ii].view(_U) ^ s[jj].view(_U)
    same = [((x >> _U(16 * b)) & _U(0xFFFF)) == 0 for b in range(4)]
    lowest = np.argmax(np.stack(same, axis=1), axis=1)
    ok = (hd <= max_hamming) & (lowest == key[ii] >> 16)
    return pa.table({"doc_a": d[ii[ok]], "doc_b": d[jj[ok]], "hamming": hd[ok]})


def simhash_near_dup_pairs(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
) -> ray.data.Dataset:
    """Near-dup pairs by SimHash: 4 x 16-bit band buckets guarantee any
    pair within Hamming distance 3 shares >= 1 band (pigeonhole), then
    exact Hamming verification per bucket. Band rows ``(bucket,
    doc_id, simhash)``, keyed by the exact ``band_id << 16 | band_val``,
    go through the engine's hash plan (``partition.hash_reduce``), so
    one reduce task holds each bucket whole; both signatures are in the
    row, so a pair is kept only from its lowest shared band and comes
    once. No pair or member row lands on the driver. Returns a
    materialized Dataset of (doc_a, doc_b, hamming)."""
    with_sig = add_simhash(ds.select_columns([id_col, text_col]), text_col)

    def to_bands(batch: pa.Table) -> pa.Table:
        sig = batch["simhash"].to_numpy().astype(np.uint64)
        ids = batch[id_col].to_numpy()
        bucket = [
            (bnd << 16) | ((sig >> _U(16 * bnd)) & _U(0xFFFF)).astype(np.int64)
            for bnd in range(4)
        ]
        return pa.table(
            {
                "bucket": np.concatenate(bucket),
                "doc_id": np.tile(ids, 4),
                "simhash": np.tile(sig.astype(np.int64), 4),
            }
        )

    bands = with_sig.map_batches(to_bands, batch_format="pyarrow")
    return partition.hash_reduce(
        held_blocks(bands)[1],
        ["bucket"],
        functools.partial(_simhash_pairs, max_hamming),
    )


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    block_col: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.5,
    shingle_k: int = 3,
) -> ray.data.Dataset:
    """All-pairs n-gram Jaccard within a blocking key (e.g. lang or an
    LSH bucket) — the verify-everything variant for modest blocks."""

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_a": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "jaccard": pd.Series([], dtype="float64"),
            }
        )
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy()
        m = len(ids)
        if m < 2:
            return empty
        # sorted-hash co-occurrence counting instead of O(m^2) Python
        # set intersections: explode (shingle_hash, doc) rows, sort by
        # hash, emit doc pairs per shared-hash run, count per pair
        sets = _shingle_hash_arrays(np.asarray(g[text_col]), shingle_k)
        lens = np.array([len(s) for s in sets], dtype=np.int64)
        flat = np.concatenate(sets)
        dix = np.repeat(np.arange(m, dtype=np.int64), lens)
        order = np.argsort(flat, kind="stable")  # ties keep doc order
        fh, fd = flat[order], dix[order]
        starts = np.concatenate([[0], np.flatnonzero(fh[1:] != fh[:-1]) + 1])
        ends = np.concatenate([starts[1:], [len(fh)]])
        L = ends - starts
        shared = np.flatnonzero(L >= 2)
        if len(shared) == 0:
            return empty
        # fully vectorized within-run pair enumeration (no Python
        # loop over runs): docs within a run are ascending (stable
        # sort over per-doc-unique hashes), so position pairs
        # (gi < gj) give doc_a < doc_b directly
        Lr, sr = L[shared], starts[shared]
        run_of_i, local_i = expand(Lr - 1)  # "left" slots per run
        cnt = Lr[run_of_i] - 1 - local_i  # partners right of slot i
        slot_of_pair, off = expand(cnt)
        gi = sr[run_of_i][slot_of_pair] + local_i[slot_of_pair]
        gj = gi + 1 + off
        upairs, inter = np.unique(fd[gi] * m + fd[gj], return_counts=True)
        a, b = upairs // m, upairs % m
        sim = inter / (lens[a] + lens[b] - inter)
        ok = sim >= threshold
        return pd.DataFrame(
            {
                "doc_a": pd.Series(ids[a[ok]], dtype="int64"),
                "doc_b": pd.Series(ids[b[ok]], dtype="int64"),
                "jaccard": pd.Series(sim[ok], dtype="float64"),
            }
        )

    return ds.select_columns([id_col, text_col, block_col]).groupby(
        block_col
    ).map_groups(arrowize(emit), batch_format="pandas")


def _shared_window_partials(*parts: pa.Table) -> pa.Table:
    """:func:`_bucket_pairs` of one hash partition's gram runs, counted
    per ``(doc_a, doc_b)`` as ``shared_windows`` partials."""
    t = _bucket_pairs("g", "doc", *parts)
    return segsum.combine_arrays(
        {"doc_a": t["doc_a"].to_numpy(), "doc_b": t["doc_b"].to_numpy()},
        {"shared_windows": np.ones(t.num_rows, np.int64)},
    )


def kgram_duplicate_pairs(
    ds: ray.data.Dataset,
    k: int = 8,
    min_shared: int = 1,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Cross-document substring duplication: pairs of docs sharing at
    least ``min_shared`` distinct k-word windows (the train-data
    "duplicated substring" detector — catches copied passages that
    whole-doc dedup misses).

    Scale shape: per-doc DISTINCT window hashes in ``map_batches``
    (polyhash — SQL-mirrorable) as ``(g, doc)`` rows, through the
    engine's hash plan keyed on the gram (``partition.hash_reduce``):
    one reduce task holds each gram's docs whole, pairs them with
    :func:`_run_pairs` and counts its pairs; ``segsum.combine_dataset``
    on ``(doc_a, doc_b)`` sums the counts across tasks. Pair volume is
    bounded by real duplication, not O(n^2)."""
    def explode(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy()
        lists = [
            word_shingles(t.split(" "), k) if t else [""] for t in texts
        ]
        counts = np.array([max(len(t), 1) for t in lists], dtype=np.int64)
        flat = [s for lst in lists for s in (lst if lst else [""])]
        h = polyhash_strings(flat)
        starts = np.concatenate([[0], np.cumsum(counts)])
        out_g, out_d = [], []
        for i in range(len(ids)):
            u = np.unique(h[starts[i] : starts[i + 1]])
            out_g.append(u)
            out_d.append(np.full(len(u), ids[i], dtype=ids.dtype))
        return pa.table(
            {
                "g": np.concatenate(out_g).astype(np.int64),
                "doc": np.concatenate(out_d),
            }
        )

    grams = ds.map_batches(explode, batch_format="pyarrow", batch_size=4096)
    counted = partition.hash_reduce(
        held_blocks(grams)[1], ["g"], _shared_window_partials
    )

    def finish(t: pa.Table) -> pa.Table:
        keep = t["shared_windows"].to_numpy() >= min_shared
        return t.filter(pa.array(keep))

    return segsum.combine_dataset(
        held_blocks(counted)[1],
        ["doc_a", "doc_b"],
        ["shared_windows"],
        finish=finish,
    )


def decontaminate(
    ds: ray.data.Dataset,
    benchmark_texts,
    k: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Benchmark decontamination: count, per corpus doc, its k-word
    windows that appear in ANY benchmark text (the n-gram-overlap
    contamination check run before training). The benchmark gram-hash
    set is tiny next to the corpus — built once on the driver,
    broadcast via ``ray.put``, probed per batch with one vectorized
    searchsorted. No shuffle at all."""
    bench_lists = [
        word_shingles(t.split(" "), k) if t else [] for t in benchmark_texts
    ]
    flat = [s for lst in bench_lists for s in lst]
    bench = (
        np.unique(polyhash_strings(flat))
        if flat
        else np.empty(0, dtype=np.uint64)
    )
    ref = ray.put(bench)

    def probe(batch: pa.Table, _ref=None) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached

        bset = cached(_ref)
        texts = batch[text_col].to_numpy(zero_copy_only=False)
        lists = [
            word_shingles(t.split(" "), k) if t else [] for t in texts
        ]
        counts = np.array([len(t) for t in lists], dtype=np.int64)
        flat_g = [s for lst in lists for s in lst]
        n_bad = np.zeros(len(texts), dtype=np.int64)
        if flat_g and len(bset):
            h = polyhash_strings(flat_g)  # hash the batch ONCE
            parent = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
            # distinct (doc, gram): sort by (parent, hash), drop runs
            order = np.lexsort((h, parent))
            p2, h2 = parent[order], h[order]
            first = np.concatenate(
                [[True], (p2[1:] != p2[:-1]) | (h2[1:] != h2[:-1])]
            )
            p2, h2 = p2[first], h2[first]
            pos = np.minimum(np.searchsorted(bset, h2), len(bset) - 1)
            hit = bset[pos] == h2
            np.add.at(n_bad, p2[hit], 1)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_contaminated": pa.array(n_bad),
                "contaminated": pa.array(n_bad > 0),
            }
        )

    return ds.map_batches(
        probe, fn_kwargs={"_ref": ref}, batch_format="pyarrow",
        batch_size=4096,
    )


def _explode_paragraphs(
    batch: pa.Table,
    para_words: int,
    text_col: str,
    id_col: str,
    with_text: bool,
) -> tuple:
    """Per-batch paragraph explode: split each doc's words into
    consecutive ``para_words``-word paragraphs (last one truncated).
    Returns (doc_ids_int, para_idx, enc, para_hash[, para_text_array]),
    all vectorized — the paragraph strings are built with ONE
    ``pc.binary_join`` over a ListArray, no per-paragraph Python."""
    import pyarrow.compute as pc

    from rsgislib_ray.stages.text import _flat_words

    flat, parent, counts = _flat_words(batch[text_col])
    did = batch[id_col].cast(pa.int64()).to_numpy()
    n_words = len(flat)
    if n_words == 0:
        empty = np.empty(0, np.int64)
        return (empty, empty, empty, empty, pa.array([], pa.string()))
    doc_starts = np.cumsum(counts) - counts
    pos_in_doc = np.arange(n_words, dtype=np.int64) - doc_starts[parent]
    para = pos_in_doc // para_words
    # paragraph runs are contiguous in (parent, para) order
    new_run = np.empty(n_words, dtype=bool)
    new_run[0] = True
    new_run[1:] = (parent[1:] != parent[:-1]) | (para[1:] != para[:-1])
    run_starts = np.flatnonzero(new_run)
    offsets = np.concatenate([run_starts, [n_words]]).astype(np.int32)
    texts = pc.binary_join(
        pa.ListArray.from_arrays(offsets, pa.array(flat, pa.string())), " "
    )
    run_doc = parent[run_starts]
    run_para = para[run_starts]
    # enc packs (doc_id, para_idx) into one int64 — guard the bounds
    # the packing relies on so overflow never silently corrupts the
    # min(enc) winner selection
    if run_para.size and int(run_para.max()) >= 1 << 20:
        raise ValueError(
            "paragraph_dedup: a document has >= 2^20 paragraphs; "
            "widen enc to a two-column (doc_id, para_idx) min"
        )
    if did.size and (int(did.max()) >= 1 << 43 or int(did.min()) < 0):
        raise ValueError(
            "paragraph_dedup: doc ids must be in [0, 2^43) for the "
            "packed (doc_id, para_idx) encoding"
        )
    enc = did[run_doc] * np.int64(1 << 20) + run_para
    ph = polyhash_strings(texts.to_numpy(zero_copy_only=False)).astype(
        np.int64
    )
    return (did[run_doc], run_para, enc, ph, texts if with_text else None)


def paragraph_dedup(
    ds: ray.data.Dataset,
    para_words: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Corpus-wide paragraph-level exact dedup with document
    reassembly — the RefinedWeb/CCNet "remove duplicated paragraphs,
    keep the first occurrence" stage (Penedo et al. 2023
    arXiv:2306.01116 §3; reference's closest surface is
    rm_feat_att_duplicates at
    /root/reference/python/rsgislib/vectorutils/__init__.py:3443,
    lifted from whole-row to within-document granularity). Paragraphs
    here are consecutive ``para_words``-word windows (the synthetic
    corpus has no newlines); first occurrence = minimum
    (doc_id, para_idx).

    Scale shape: pass 1 explodes NARROW (para_hash, enc) rows only
    (16 B/paragraph — the text stays put) into a native
    ``groupby(para_hash).min(enc)``; the winner table (one row per
    DISTINCT paragraph) is broadcast via block refs and each batch of
    pass 2 re-explodes its own docs locally, keeps winning paragraphs
    with a vectorized searchsorted, and reassembles documents
    IN-BATCH (paragraph rows never leave their batch, so no
    reassembly shuffle exists at all). When the distinct-paragraph
    table outgrows worker heaps, swap the broadcast for the
    hash-join (``partition.join``) winner filter exactly as in
    :func:`exact_dedup` (strategy="join") plus a
    ``sorted_user_apply`` reassembly — same trade documented there.

    Output: (doc_id BIGINT, text, n_paras) — docs whose every
    paragraph was seen earlier vanish (their text would be empty).
    """
    import pyarrow.compute as pc

    def narrow(batch: pa.Table) -> pa.Table:
        _did, _pi, enc, ph, _t = _explode_paragraphs(
            batch, para_words, text_col, id_col, False
        )
        return pa.table({"para_hash": ph, "enc": enc})

    winners = (
        ds.map_batches(narrow, batch_format="pyarrow")
        .groupby("para_hash")
        .min("enc")
    )
    blocks = winners.to_arrow_refs()

    def build(tables: list) -> tuple:
        good = [t for t in tables if t.num_rows]
        if not good:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        t = pa.concat_tables(good)
        h = t["para_hash"].to_numpy()
        e = t["min(enc)"].to_numpy()
        order = np.argsort(h, kind="stable")
        return h[order], e[order]

    def rebuild(batch: pa.Table, _blocks=None) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached_multi

        wh, we = cached_multi(_blocks, build)
        did, pi, enc, ph, texts = _explode_paragraphs(
            batch, para_words, text_col, id_col, True
        )
        if len(enc) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    text_col: pa.array([], pa.string()),
                    "n_paras": pa.array([], pa.int64()),
                }
            )
        pos = np.searchsorted(wh, ph)
        keep = we[pos] == enc  # this row IS the first global occurrence
        did_k, texts_k = did[keep], texts.filter(pa.array(keep))
        nk = len(did_k)
        if nk == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    text_col: pa.array([], pa.string()),
                    "n_paras": pa.array([], pa.int64()),
                }
            )
        new_doc = np.empty(nk, dtype=bool)
        new_doc[0] = True
        new_doc[1:] = did_k[1:] != did_k[:-1]
        starts = np.flatnonzero(new_doc)
        offsets = np.concatenate([starts, [nk]]).astype(np.int32)
        joined = pc.binary_join(
            pa.ListArray.from_arrays(offsets, texts_k), " "
        )
        return pa.table(
            {
                id_col: did_k[starts],
                text_col: joined,
                "n_paras": np.diff(offsets).astype(np.int64),
            }
        )

    return ds.map_batches(
        rebuild, fn_kwargs={"_blocks": blocks}, batch_format="pyarrow"
    )
