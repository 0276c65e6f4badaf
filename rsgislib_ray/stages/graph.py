"""Graph iteration over Ray Data — PageRank on a kNN neighbor graph.

The reference's RAT-kNN machinery (apply_rat_knn / calc_fill_regions_knn)
builds neighbor relations between features; this module runs an
iterative graph algorithm over that relation — the canonical
"iterate until converged over an edge list" shape a distributed engine
must support (same pattern as label propagation or iterative focal
ops).

Determinism: ranks are kept in exact int64 micro-units with floor
division (share = pr * 85 // (100 * outdeg)), so the per-iteration
sums are associative and order-independent under any parallelism, and
a SQL oracle can unroll the iterations bit-exactly.

Scale shape: the per-node rank vector is broadcast state (ray.put once
per iteration, read per worker); edge batches stream through
map_batches producing per-target partial sums, finished by ONE
:func:`rsgislib_ray.stages.segsum.combine` per iteration. This is the
broadcast-state regime (node count << edge count, the usual kNN-graph
case). For graphs whose node state exceeds worker memory, swap the
broadcast for a hash-partitioned join of (edges ⋈ ranks) on u — the
partial/combine stages are unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine, combine_arrays
from rsgislib_ray.state.broadcast import cached


def knn_edges(
    points: ray.data.Dataset,
    points_tbl: pa.Table,
    k: int = 4,
    id_col: str = "base_id",
) -> ray.data.Dataset:
    """Directed kNN edge list u -> v: each node's ``k`` nearest OTHER
    nodes ordered by (squared distance, id) — self-pairs excluded after
    an (k+1)-NN query, keeping the first k survivors per node."""
    from rsgislib_ray.stages.knn import knn_join

    nn = knn_join(
        points,
        points_tbl,
        k=k + 1,
        id_col=id_col,
        tie="lowest",
        prefix="nn_",
    )

    def to_edges(batch: pa.Table) -> pa.Table:
        u = batch[id_col].to_numpy()
        v = batch["nn_id"].to_numpy()
        rank = batch["nn_rank"].to_numpy()
        order = np.lexsort((rank, u))
        u, v = u[order], v[order]
        keep = u != v
        u, v = u[keep], v[keep]
        # after dropping self, keep the first k rows of each u-run
        newrun = np.concatenate([[True], u[1:] != u[:-1]])
        starts = np.flatnonzero(newrun)
        lens = np.diff(np.concatenate([starts, [len(u)]]))
        within = np.arange(len(u)) - np.repeat(starts, lens)
        sel = within < k
        return pa.table({"u": pa.array(u[sel]), "v": pa.array(v[sel])})

    return nn.map_batches(to_edges, batch_format="pyarrow")


def pagerank(
    edges: ray.data.Dataset,
    node_ids: np.ndarray,
    outdeg: int,
    iters: int = 3,
    damping_pct: int = 85,
    unit: int = 1_000_000,
) -> pa.Table:
    """Integer-exact PageRank over a constant-out-degree edge list.

    pr_0 = unit; pr_{t+1}(v) = (100 - damping_pct)% of unit +
    sum over in-edges of ``pr_t(u) * damping_pct // (100 * outdeg)``
    (floor division — exact, associative). Returns (node, pr)."""
    nids = np.sort(np.asarray(node_ids, dtype=np.int64))
    pr = np.full(len(nids), unit, dtype=np.int64)
    base = (100 - damping_pct) * unit // 100
    edges = edges.materialize()

    for _ in range(iters):
        pr_ref = ray.put((nids, pr))

        def partial(batch: pa.Table, _ref=pr_ref) -> pa.Table:
            cn, cp = cached(_ref)
            u = batch["u"].to_numpy()
            share = (cp[np.searchsorted(cn, u)] * damping_pct) // (
                100 * outdeg
            )
            return combine_arrays({"v": batch["v"].to_numpy()}, {"share": share})

        # the contracted partials number <= blocks x nodes rows; the
        # combine reduces them on the driver, or distributed once they
        # outgrow the broadcast regime (module docstring)
        agg = combine(map_blocks(edges, partial), "v", ["share"])
        pr = np.full(len(nids), base, dtype=np.int64)
        pr[np.searchsorted(nids, agg["v"].to_numpy())] += agg["share"].to_numpy()

    return pa.table({"node": pa.array(nids), "pr": pa.array(pr)})
