"""Connected-components machinery (stages/components.py): vectorized
union-find vs brute force, distributed label propagation vs the
union-find, dedup-family driver-exodus guarantees (VERDICT r2 #1)."""

import inspect

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data


def _brute_components(ea, eb, nodes):
    """Naive BFS oracle: min-label per component."""
    adj: dict = {int(n): set() for n in nodes}
    for a, b in zip(ea, eb):
        adj.setdefault(int(a), set()).add(int(b))
        adj.setdefault(int(b), set()).add(int(a))
    root = {}
    for start in sorted(adj):
        if start in root:
            continue
        comp, stack = [], [start]
        seen = {start}
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        m = min(comp)
        for x in comp:
            root[x] = m
    return root


def test_edge_components_minlabel_vs_brute():
    from rsgislib_ray.stages.components import edge_components_minlabel

    rng = np.random.default_rng(11)
    for trial in range(5):
        n = 200
        m = rng.integers(50, 400)
        ea = rng.integers(0, n, m).astype(np.int64) * 7 + 3  # sparse ids
        eb = rng.integers(0, n, m).astype(np.int64) * 7 + 3
        keys, roots = edge_components_minlabel(ea, eb)
        want = _brute_components(ea, eb, np.concatenate([ea, eb]))
        got = dict(zip(keys.tolist(), roots.tolist()))
        assert got == {k: v for k, v in want.items()}


def test_native_labels_match_unionfind(ray_session):
    """Distributed min-label propagation reaches the same fixpoint as
    the vectorized union-find — including a long path (diameter > 1
    round) and multiple components."""
    from rsgislib_ray.stages.components import (
        components_native_labels,
        edge_components_minlabel,
    )

    # a 40-node path (worst diameter), a clique, and isolated pairs
    path_a = np.arange(100, 139, dtype=np.int64)
    path_b = path_a + 1
    clique = np.array(
        [[a, b] for a in range(500, 505) for b in range(a + 1, 505)],
        dtype=np.int64,
    )
    pairs_a = np.concatenate([path_a, clique[:, 0], [900, 910]])
    pairs_b = np.concatenate([path_b, clique[:, 1], [901, 911]])
    ds = ray.data.from_arrow(
        pa.table({"doc_a": pairs_a, "doc_b": pairs_b})
    ).repartition(5)
    got = (
        components_native_labels(ds)
        .to_pandas()
        .set_index("node")["root"]
        .to_dict()
    )
    keys, roots = edge_components_minlabel(pairs_a, pairs_b)
    want = {int(k): int(r) for k, r in zip(keys, roots) if k != r}
    assert got == want


def test_components_label_ids_strategies_agree(ray_session):
    from rsgislib_ray.stages.components import components_label_ids

    rng = np.random.default_rng(3)
    ids = np.arange(300, dtype=np.int64)
    ea = rng.integers(0, 300, 80).astype(np.int64)
    eb = rng.integers(0, 300, 80).astype(np.int64)
    keep = ea != eb
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": ea[keep], "doc_b": eb[keep]})
    ).repartition(4)
    ids_ds = ray.data.from_arrow(pa.table({"doc_id": ids})).repartition(3)
    outs = {}
    for strat in ("driver", "native"):
        outs[strat] = (
            components_label_ids(
                ids_ds, "doc_id", pairs, strategy=strat
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs["driver"], outs["native"])


def test_minhash_semantic_native_equals_driver(ray_session, sf_dir):
    """minhash_dedup and semantic_dedup produce bit-identical labels
    through both component strategies."""
    from rsgislib_ray.stages.ann import semantic_dedup
    from rsgislib_ray.stages.dedup import minhash_dedup

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    m = {}
    for strat in ("driver", "native"):
        m[strat] = (
            minhash_dedup(docs, threshold=0.6, n_perm=32, labels=strat)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(m["driver"], m["native"])

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    s = {}
    for strat in ("driver", "native"):
        s[strat] = (
            semantic_dedup(emb, threshold=0.95, labels=strat)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(s["driver"], s["native"])


def test_semantic_dedup_cluster_state_identical(ray_session, sf_dir):
    """VERDICT r2 #8: cluster-partitioned state (vectors shuffle once
    by cluster; worker heap holds one cluster, never the corpus) is
    bit-identical to the full broadcast-matrix path, through both
    label strategies."""
    from rsgislib_ray.stages.ann import semantic_dedup

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    want = (
        semantic_dedup(emb, threshold=0.9, state="full")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    for strat in ("driver", "native"):
        got = (
            semantic_dedup(emb, threshold=0.9, state="cluster", labels=strat)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)[want.columns]
        )
        pd.testing.assert_frame_equal(want, got)


def test_semantic_dedup_cluster_spill(ray_session):
    """10x embeddings through the cluster-state path: synthesize 5000
    128-dim vectors with planted duplicate pairs; per-cluster grouping
    must find them all and keep min-id reps."""
    rng = np.random.default_rng(12)
    n = 5000
    M = rng.normal(size=(n, 32))
    # plant: vec i+n/2 == vec i for i in 0..49 (exact cosine 1.0)
    M[2500:2550] = M[0:50]
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": ids,
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(M.ravel(), pa.float32()), 32
            ),
        }
    )
    from rsgislib_ray.stages.ann import semantic_dedup

    out = (
        semantic_dedup(
            ray.data.from_arrow(tbl).repartition(8),
            n_clusters=16,
            threshold=0.999999,
            state="cluster",
        )
        .to_pandas()
        .set_index("vec_id")
    )
    assert len(out) == n
    for i in range(50):
        assert out.loc[2500 + i, "rep_id"] == i
        assert not out.loc[2500 + i, "keep"]
        assert out.loc[i, "keep"]


@pytest.mark.slow
def test_semantic_dedup_cluster_capped_object_store():
    """VERDICT r2 #8 'done' criterion: 10x embedding volume through the
    cluster-state path under a 220 MB object store (the flagship spill
    test's pattern) — must COMPLETE via streaming + spill and find the
    planted duplicates."""
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent(
        """
        import ray, logging, numpy as np, pyarrow as pa
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 object_store_memory=220 * 1024 * 1024,
                 logging_level="ERROR")
        import ray.data
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        import sys; sys.path.insert(0, "/root/repo")
        from rsgislib_ray.stages.ann import semantic_dedup
        rng = np.random.default_rng(5)
        n, d = 200_000, 64
        M = rng.normal(size=(n, d)).astype(np.float32)   # ~51 MB
        M[100_000:100_200] = M[0:200]
        tbl = pa.table({
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(M.ravel(), pa.float32()), d),
        })
        out = semantic_dedup(
            ray.data.from_arrow(tbl).repartition(32),
            n_clusters=64, threshold=0.999999, state="cluster",
        )
        import pyarrow.compute as pc
        dups = out.filter(lambda r: not r["keep"]).count()
        print("DUPS", dups)
        ray.shutdown()
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=420, cwd="/root/repo",
    )
    assert out.returncode == 0, out.stderr[-2000:]
    rows = [l for l in out.stdout.splitlines() if l.startswith("DUPS")]
    assert rows and int(rows[0].split()[1]) == 200


def test_no_driver_pull_on_pair_path():
    """VERDICT r2 'done' criterion: no full ``to_pandas()`` anywhere on
    the dedup pair path — pairs live in the object store or stay a
    Dataset end to end."""
    from rsgislib_ray.stages import components
    from rsgislib_ray.stages.ann import semantic_dedup
    from rsgislib_ray.stages.dedup import (
        minhash_dedup,
        simhash_near_dup_pairs,
        verify_pairs_jaccard_ds,
    )

    for fn in (
        minhash_dedup,
        simhash_near_dup_pairs,
        verify_pairs_jaccard_ds,
        semantic_dedup,
    ):
        src = inspect.getsource(fn)
        assert "to_pandas" not in src, fn.__name__
    assert "to_pandas" not in inspect.getsource(components)


def test_minhash_planted_dup_stress(ray_session):
    """10x pair volume: 30% planted duplicates across a 3000-doc corpus
    (1000-way shared texts make large clusters) — labels stay exact and
    the whole pipeline streams."""
    from rsgislib_ray.stages.dedup import minhash_dedup

    rng = np.random.default_rng(9)
    words = [f"tok{i}" for i in range(80)]
    n_base, n_dup = 2000, 1000
    base = [
        " ".join(words[j] for j in rng.integers(0, 80, 25))
        for _ in range(n_base)
    ]
    # each dup copies base doc (i % 50) — 50 clusters of ~21 members
    dup_src = [i % 50 for i in range(n_dup)]
    texts = base + [base[s] for s in dup_src]
    ids = np.arange(len(texts), dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": ids, "text": texts})
    ).repartition(8)
    for strat in ("driver", "native"):
        out = (
            minhash_dedup(ds, threshold=0.9, n_perm=32, labels=strat)
            .to_pandas()
            .set_index("doc_id")["cluster_id"]
        )
        assert len(out) == len(texts), strat
        for i, s in enumerate(dup_src):
            assert out[n_base + i] == out[s] == s, strat
        # non-dup docs keep themselves (sanity on a sample)
        uniq = [i for i in range(50, 200)]
        assert all(out[i] == i for i in uniq), strat


def test_label_ids_hold_lazy_pairs_once(ray_session, monkeypatch):
    """``components_label_ids(strategy="auto")`` holds the pairs once and
    reads the edge count off their metadata, then hands the held blocks
    to the root map: lazy pairs execute once, and held pairs start no
    execution before the caller consumes the labels. The labels are the
    components' minimum ids."""
    from rsgislib_ray.stages.components import components_label_ids
    from tests.test_map_blocks import (
        _executions,
        _input_runs,
        _lazy_input,
        _lazy_input_marker,
    )

    pairs = pa.table(
        {
            "doc_a": pa.array([1, 2, 5, 8], pa.int64()),
            "doc_b": pa.array([2, 3, 6, 9], pa.int64()),
            "jaccard": [0.9, 0.8, 1.0, 0.7],
        }
    )
    ids = ray.data.from_arrow(pa.table({"doc_id": np.arange(12, dtype=np.int64)}))
    root = {1: 1, 2: 1, 3: 1, 5: 5, 6: 5, 8: 8, 9: 8}
    want = [root.get(i, i) for i in range(12)]
    runs = _input_runs(monkeypatch, _lazy_input_marker)
    lazy = components_label_ids(ids, "doc_id", _lazy_input(pairs))
    assert len(runs) == 1, runs
    monkeypatch.undo()
    execs = _executions(monkeypatch)
    held = components_label_ids(ids, "doc_id", ray.data.from_arrow(pairs))
    assert execs == []
    for out in (lazy, held):
        got = out.to_pandas().sort_values("doc_id")
        assert got["cluster_id"].tolist() == want
        assert got["keep"].tolist() == [root.get(i, i) == i for i in range(12)]


def test_minhash_dedup_reads_a_lazy_corpus_once(ray_session, monkeypatch):
    """``minhash_dedup`` holds the id and text columns once for its
    three consumers (LSH candidates, Jaccard verify, labels): a lazy
    corpus executes its maps once, and its labels equal those over the
    same corpus held, planted near-duplicates clustered."""
    from rsgislib_ray.stages.dedup import minhash_dedup
    from tests.test_map_blocks import _input_runs, _lazy_input, _lazy_input_marker

    rng = np.random.default_rng(42)
    words = [f"w{i}" for i in range(50)]
    docs = [" ".join(words[j] for j in rng.integers(0, 50, 30)) for _ in range(120)]
    near = docs[0].split(" ")
    near[5] = "CHANGED"
    docs += [" ".join(near), docs[1]]
    corpus = pa.table({"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs})

    def labels(ds):
        out = minhash_dedup(ds, threshold=0.6, n_perm=32).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    want = labels(ray.data.from_arrow(corpus))
    runs = _input_runs(monkeypatch, _lazy_input_marker)
    got = labels(_lazy_input(corpus))
    assert len(runs) == 1, runs
    pd.testing.assert_frame_equal(got, want)
    c = got.set_index("doc_id")["cluster_id"]
    assert c[120] == c[0] == 0 and c[121] == c[1]
