"""Connected-components labeling over a contracted edge-list Dataset.

The near-dup dedup family (minhash, simhash, semantic) reduces a
corpus to a CONTRACTED graph of verified duplicate pairs and needs
every node labeled with its component's MINIMUM member id (the
RefinedWeb/SemDeDup "keep the first occurrence" rule; the reference's
whole-row analogue is rm_feat_att_duplicates at
/root/reference/python/rsgislib/vectorutils/__init__.py:3443, lifted
to the transitive-closure setting). Two physical strategies:

- ``"driver"`` (a misnomer: nothing is pulled to the driver): the
  edge blocks are MATERIALIZED
  TO THE OBJECT STORE and every worker process builds the root map
  once via the vectorized min-hooking + pointer-jumping union-find
  (:func:`edge_components_minlabel` — numpy, no per-edge Python).
  The driver only ever holds block refs; labeling the corpus is a
  broadcast searchsorted sweep. Right while the contracted edge list
  fits one worker heap (hundreds of millions of edges).
- ``"native"``: fully distributed hash-to-min label propagation —
  ``label(n) <- min(label(n), min over neighbours m of label(m))``
  iterated to fixpoint through :func:`segment_sum` min-reductions and
  one engine hash join (``partition.join``) per round. The 100 TB path when
  even the contracted graph outgrows a single heap. Rounds =
  O(component diameter); near-dup components are band-connected
  near-cliques, so 1-2 rounds in practice. Convergence is detected by
  the EXACT total label sum (labels only ever decrease, so an
  unchanged sum is a fixpoint), computed overflow-proof as three
  22-bit slice aggregates recombined in Python big-int — one cheap
  aggregate per round, no driver data pull, no 2^64 wrap window.
  Node ids must be non-negative int64.
- ``"auto"``: hold the edge Dataset once (``partition.held_rows``) and
  pick by its edge count, read off the blocks' metadata.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages import partition

#: above this many verified edges, ``strategy="auto"`` switches from the
#: per-worker union-find to distributed label propagation
DRIVER_MAX_EDGES = 5_000_000

#: at or below this many root rows, :func:`attach_roots` broadcasts
#: the materialized root map (one object-store read per worker process)
#: instead of hash-joining the whole corpus against it — |roots| =
#: |non-self dup nodes|, usually tiny next to the corpus
ROOTS_BROADCAST_MAX = 5_000_000


def edge_components_minlabel(ea: np.ndarray, eb: np.ndarray):
    """Vectorized union-find (min-hooking + pointer jumping) over an
    edge list of int64 labels. Returns (labels, root_label) arrays where
    root_label is the component's MINIMUM label — O(E log V) numpy, no
    per-edge Python loop."""
    if len(ea) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    labels = np.unique(np.concatenate([ea, eb]))
    ia = np.searchsorted(labels, ea)
    ib = np.searchsorted(labels, eb)
    parent = np.arange(len(labels), dtype=np.int64)
    while True:
        while True:  # full path compression by pointer jumping
            gp = parent[parent]
            if np.array_equal(gp, parent):
                break
            parent = gp
        ra, rb = parent[ia], parent[ib]
        if np.all(ra == rb):
            break
        lo = np.minimum(ra, rb)
        hi = np.maximum(ra, rb)
        np.minimum.at(parent, hi, lo)
    return labels, labels[parent]


def build_root_arrays(tables: list, u_col: str, v_col: str):
    """``cached_multi`` build fn: concat edge blocks, run the
    vectorized union-find, return sorted ``(keys, roots)`` arrays for
    the NON-SELF nodes only (the broadcast root map)."""
    nonempty = [t for t in tables if t.num_rows]
    if not nonempty:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    t = pa.concat_tables(nonempty)
    ea = t[u_col].to_numpy().astype(np.int64)
    eb = t[v_col].to_numpy().astype(np.int64)
    keys, roots = edge_components_minlabel(ea, eb)
    hit = keys != roots
    return keys[hit], roots[hit]  # keys come out of np.unique sorted


def lookup_roots(ids: np.ndarray, keys: np.ndarray, vals: np.ndarray):
    """Vectorized root lookup: ids not in ``keys`` map to themselves."""
    out = ids.astype(np.int64, copy=True)
    if len(keys):
        pos = np.minimum(np.searchsorted(keys, out), len(keys) - 1)
        hitm = keys[pos] == out
        out[hitm] = vals[pos[hitm]]
    return out


def root_map_blocks(pairs: ray.data.Dataset) -> list:
    """The block refs of the edge Dataset, held once
    (``partition.held_blocks``: blocks that exist are taken as they
    are, a lazy plan executes once). Workers then build the root arrays
    ONCE per process via
    ``cached_multi(refs, lambda ts: build_root_arrays(ts, u, v))`` —
    the pair list never lands on the driver."""
    return [ref for ref, _ in partition.held_blocks(pairs)[1]]


#: per-batch union-find bundling bound for the propagation pre-reduce:
#: 4M (node,label) rows ~ 64 MB of int64 — far under a worker heap, yet
#: wide enough that a small contracted graph collapses in ONE batch
UF_BATCH_ROWS = 4_000_000


def _prereduce_uf(node_col: str, lbl_col: str):
    """In-batch pre-reduction that runs the VECTORIZED UNION-FIND over
    the batch's (node, label) rows treated as graph edges. Sound
    because every label is by invariant the id of a node in the same
    true component (labels start as min(n, m) over an edge and every
    update propagates a member id along edges), so (node, label) IS an
    edge of that component. Strictly stronger than the plain per-batch
    min: a component wholly inside one batch converges immediately, so
    the fixpoint loop's round count drops to the number of CROSS-batch
    stitches (usually one confirm round). Output is one (node -> root)
    row per distinct id in the batch."""

    def fn(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    node_col: pa.array([], pa.int64()),
                    lbl_col: pa.array([], pa.int64()),
                }
            )
        n = batch[node_col].to_numpy().astype(np.int64)
        l = batch[lbl_col].to_numpy().astype(np.int64)
        keys, roots = edge_components_minlabel(n, l)
        return pa.table({node_col: keys, lbl_col: roots})

    return fn


@ray.remote(num_cpus=0.5)
def _cksum_block(blk) -> tuple[int, int, int]:
    """Per-block label-checksum partials: three 22-bit slice sums (each
    < 2^62 even at 10^12 nodes) returned as plain ints — the driver
    recombines in Python big-int. A bare task per materialized block is
    ~10x cheaper than spinning a Ray Data aggregate job per round."""
    if blk.num_rows == 0 or "lbl" not in blk.column_names:
        return 0, 0, 0  # sort/groupby emit zero-COLUMN empty blocks
    lv = blk["lbl"].to_numpy()
    return (
        int((lv >> 44).sum()),
        int(((lv >> 22) & 0x3FFFFF).sum()),
        int((lv & 0x3FFFFF).sum()),
    )


def components_native_labels(
    pairs: ray.data.Dataset,
    u_col: str = "doc_a",
    v_col: str = "doc_b",
    max_iters: int = 64,
) -> ray.data.Dataset:
    """Distributed min-label propagation to fixpoint. Returns a Dataset
    of ``(node, root)`` for the NON-SELF nodes of the pair graph — no
    pair row or label row ever lands on the driver (the driver sees one
    int64 sum per round)."""
    from rsgislib_ray.stages.segsum import segment_sum

    def sym(t: pa.Table) -> pa.Table:
        u = t[u_col].to_numpy().astype(np.int64)
        v = t[v_col].to_numpy().astype(np.int64)
        return pa.table(
            {"n": np.concatenate([u, v]), "m": np.concatenate([v, u])}
        )

    _empty_labels = pa.table(
        {"node": pa.array([], pa.int64()), "root": pa.array([], pa.int64())}
    )
    edges, n_edges = partition.held_rows(
        pairs.select_columns([u_col, v_col]).map_batches(
            sym, batch_format="pyarrow"
        )
    )
    if not n_edges:
        return ray.data.from_arrow(_empty_labels)

    def init_partial(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy()
        m = t["m"].to_numpy()
        return pa.table({"node": n, "lbl": np.minimum(n, m)})

    def _lbl_checksum(lab: ray.data.Dataset) -> int:
        """Exact total label sum, overflow-proof (ADVICE r3): each
        materialized block pre-sums three 22-bit slices via a bare
        remote task (:func:`_cksum_block`), the partials recombine in
        Python arbitrary-precision. Labels only decrease, so an
        unchanged exact sum IS the fixpoint — no 2^64 wrap window, no
        driver data pull (tasks return three ints per block)."""
        outs = ray.get(
            [_cksum_block.remote(r) for r in lab.to_arrow_refs()]
        )
        hi = sum(o[0] for o in outs)
        mid = sum(o[1] for o in outs)
        lo = sum(o[2] for o in outs)
        return (hi << 44) + (mid << 22) + lo

    labels = segment_sum(
        edges.map_batches(init_partial, batch_format="pyarrow").map_batches(
            _prereduce_uf("node", "lbl"),
            batch_format="pyarrow",
            batch_size=UF_BATCH_ROWS,
        ),
        "node",
        ["lbl"],
        aggs=["min"],
    )
    prev_sum = _lbl_checksum(labels)
    for _ in range(max_iters):
        labels, n_labels = partition.held_rows(labels)
        if not n_labels:
            return ray.data.from_arrow(_empty_labels)
        lab_m = labels.map_batches(
            lambda t: pa.table({"m": t["node"], "mlbl": t["lbl"]}),
            batch_format="pyarrow",
        )
        prop = partition.join(edges, lab_m, "m").map_batches(
            lambda t: pa.table({"node": t["n"], "lbl": t["mlbl"]}),
            batch_format="pyarrow",
        )
        labels = segment_sum(
            prop.union(labels).map_batches(
                _prereduce_uf("node", "lbl"),
                batch_format="pyarrow",
                batch_size=UF_BATCH_ROWS,
            ),
            "node",
            ["lbl"],
            aggs=["min"],
        )
        s = _lbl_checksum(labels)
        if s == prev_sum:
            break
        prev_sum = s

    def nonself(t: pa.Table) -> pa.Table:
        keep = t["node"].to_numpy() != t["lbl"].to_numpy()
        return pa.table(
            {
                "node": t["node"].filter(pa.array(keep)),
                "root": t["lbl"].filter(pa.array(keep)),
            }
        )

    return labels.map_batches(nonself, batch_format="pyarrow")


def attach_roots(
    base: ray.data.Dataset,
    id_col: str,
    roots: ray.data.Dataset | None,
    root_col: str = "__root",
    out_col: str = "__rep",
) -> ray.data.Dataset:
    """Append ``out_col`` = this row's component root (its own id when
    it is not a non-self component member) to ``base``. ``roots`` is a
    two-int64-column ``(id_col, root_col)`` Dataset (or None = no
    components). Routed by its row count, read off its held blocks'
    metadata, against :data:`ROOTS_BROADCAST_MAX`:

    - at or below it, broadcast: workers build the sorted (key, root)
      arrays once per process from the roots block refs
      (``cached_multi``) and label via searchsorted — zero shuffle. The
      root map holds only the NON-SELF dup nodes, not the corpus, so
      this is the usual route whenever the dup fraction is sane.
    - above it, a ``left_outer`` ``partition.join`` — the
      unconditional-scale route when even the dup-node root map
      outgrows a worker heap.
    """

    def selfcol(t: pa.Table) -> pa.Table:
        ids = t[id_col].cast(pa.int64())
        return t.append_column(out_col, ids)

    roots_rows = 0
    if roots is not None:
        roots, roots_rows = partition.held_rows(roots)
    if not roots_rows:
        return base.map_batches(selfcol, batch_format="pyarrow")

    if roots_rows <= ROOTS_BROADCAST_MAX:
        refs = roots.to_arrow_refs()

        def build(tables: list):
            ne = [
                t
                for t in tables
                if t.num_rows and root_col in t.column_names
            ]
            if not ne:
                return np.empty(0, np.int64), np.empty(0, np.int64)
            t = pa.concat_tables(ne)
            k = t[id_col].to_numpy().astype(np.int64)
            v = t[root_col].to_numpy().astype(np.int64)
            o = np.argsort(k, kind="stable")
            return k[o], v[o]

        def label(batch: pa.Table) -> pa.Table:
            from rsgislib_ray.state.broadcast import cached_multi

            keys, vals = cached_multi(refs, build)
            ids = batch[id_col].cast(pa.int64()).to_numpy()
            rep = lookup_roots(ids, keys, vals)
            return batch.append_column(out_col, pa.array(rep, pa.int64()))

        return base.map_batches(label, batch_format="pyarrow")

    joined = partition.join(base, roots, id_col, "left_outer")

    def fin(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t[id_col].cast(pa.int64())
        rep = pc.coalesce(t[root_col].cast(pa.int64()), ids)
        return t.drop_columns([root_col]).append_column(out_col, rep)

    return joined.map_batches(fin, batch_format="pyarrow")


def components_label_ids(
    ids_ds: ray.data.Dataset,
    id_col: str,
    pairs: ray.data.Dataset,
    u_col: str = "doc_a",
    v_col: str = "doc_b",
    strategy: str = "auto",
    driver_max_edges: int = DRIVER_MAX_EDGES,
) -> ray.data.Dataset:
    """Label every id in ``ids_ds`` with its component minimum over the
    pair graph: output ``(id_col, cluster_id, keep)`` where
    ``keep = (cluster_id == id)``. Strategy semantics per the module
    docstring; ``"auto"`` picks by edge count."""
    if strategy == "auto":
        pairs, edges = partition.held_rows(pairs)
        strategy = "driver" if edges <= driver_max_edges else "native"
    if strategy == "driver":
        refs = root_map_blocks(pairs)

        def label(batch: pa.Table) -> pa.Table:
            from rsgislib_ray.state.broadcast import cached_multi

            keys, vals = cached_multi(
                refs, lambda ts: build_root_arrays(ts, u_col, v_col)
            )
            i = batch[id_col].to_numpy().astype(np.int64)
            cluster = lookup_roots(i, keys, vals)
            return pa.table(
                {
                    id_col: pa.array(i),
                    "cluster_id": pa.array(cluster),
                    "keep": pa.array(cluster == i),
                }
            )

        return ids_ds.map_batches(label, batch_format="pyarrow")

    if strategy != "native":
        raise ValueError(f"unknown components strategy {strategy!r}")
    labels = components_native_labels(pairs, u_col, v_col).map_batches(
        lambda t: pa.table({id_col: t["node"], "__root": t["root"]}),
        batch_format="pyarrow",
    )
    attached = attach_roots(ids_ds.select_columns([id_col]), id_col, labels)

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        i = t[id_col].cast(pa.int64())
        cluster = t["__rep"]
        return pa.table(
            {
                id_col: i,
                "cluster_id": cluster,
                "keep": pc.equal(cluster, i),
            }
        )

    return attached.map_batches(finish, batch_format="pyarrow")
