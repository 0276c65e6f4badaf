"""Text-analysis stages over the documents table (language-ID, quality
scoring, token counting, fingerprinting) — the training-data-pipeline
operators layered on the same map_batches machinery as the geo ops.
All are stateless vectorized batch transforms except language-ID,
which compiles its profiles once per actor.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from rsgislib_ray.functions.hashing import doc_fingerprint
from rsgislib_ray.functions.textstats import langid_scores, quality_stats, token_count
from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine_dataset


def add_token_count(
    ds: ray.data.Dataset, text_col: str = "text", out_col: str = "n_tokens"
) -> ray.data.Dataset:
    def tag(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return batch.append_column(
            out_col, token_count(col).cast(pa.int64())
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def add_quality_stats(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    """Append n_chars / n_tokens / n_stopwords / n_punct + ratio
    columns (formulas mirrored by the SQL oracle)."""

    def tag(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        stats = quality_stats(col)
        out = batch
        for name, arr in stats.items():
            if name in out.column_names:  # recompute-over-existing (e.g. n_chars)
                out = out.set_column(
                    out.column_names.index(name), name, pa.array(arr)
                )
            else:
                out = out.append_column(name, pa.array(arr))
        return out

    return ds.map_batches(tag, batch_format="pyarrow")


class LangId:
    """Actor stage: deterministic n-gram language heuristic (profiles
    are module constants; an actor still amortizes the numpy setup and
    mirrors how a real fasttext-style model would be held)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_numpy(zero_copy_only=False)
        lang, score = langid_scores(texts)
        return batch.append_column(
            "lang_pred", pa.array(lang, type=pa.string())
        ).append_column("lang_score", pa.array(score))


def add_langid(ds: ray.data.Dataset, concurrency=(1, 8)) -> ray.data.Dataset:
    return ds.map_batches(
        LangId, batch_format="pyarrow", batch_size=4096, concurrency=concurrency
    )


def add_redaction(
    ds: ray.data.Dataset,
    pattern: str,
    replacement: str = "[REDACTED]",
    text_col: str = "text",
) -> ray.data.Dataset:
    """PII-style regex redaction: replace every match of ``pattern``
    (RE2 — identical semantics in Arrow and DuckDB, so the oracle is
    ``regexp_replace(..., 'g')``) and count matches per doc. Stateless
    vectorized batch transform; the compiled program lives inside
    Arrow's kernel, so there is no per-row Python."""
    import pyarrow.compute as pc

    def tag(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = pc.count_substring_regex(col, pattern).cast(pa.int64())
        red = pc.replace_substring_regex(col, pattern, replacement)
        return batch.append_column("redacted", red).append_column(
            "n_redactions", n
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def add_fingerprint(
    ds: ray.data.Dataset, text_col: str = "text", out_col: str = "fingerprint"
) -> ray.data.Dataset:
    """Winnowed rolling-hash document fingerprint (stable int64)."""

    def tag(batch: pa.Table) -> pa.Table:
        fp = doc_fingerprint(batch[text_col].to_numpy(zero_copy_only=False))
        return batch.append_column(out_col, pa.array(fp))

    return ds.map_batches(tag, batch_format="pyarrow", batch_size=4096)


def tfidf_top_terms(
    ds: ray.data.Dataset,
    top_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Top-k terms per document by tf-idf (tf = in-doc occurrence
    count, idf = ln(N / df) with df = docs containing the term).

    Two-pass distributed shape: pass 1 pre-reduces per-batch DISTINCT
    (term, doc) pairs into partial df counts and a native
    ``groupby(term).sum`` finishes them (one narrow shuffle of term
    counts); the (term, df) map — vocabulary-sized, tiny next to the
    corpus — is broadcast via ``ray.put`` and pass 2 scores each doc's
    terms vectorized and keeps the top k (ties broken by term string
    ascending, matching the SQL oracle's row_number order). Score
    arithmetic is one multiply of an int by ln(double) — bit-identical
    between numpy and the oracle."""
    from rsgislib_ray.functions.textstats import word_lists

    def df_partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        words = word_lists(col)
        flat = words.flatten().to_numpy(zero_copy_only=False)
        parent = np.repeat(
            np.arange(len(words), dtype=np.int64),
            np.diff(words.offsets.to_numpy(zero_copy_only=False)),
        )
        pairs = pd.DataFrame({"w": flat, "d": parent}).drop_duplicates()
        cnt = pairs.groupby("w", as_index=False).size()
        return pa.table(
            {
                "term": cnt["w"].to_numpy(dtype=object),
                "partial": cnt["size"].to_numpy().astype(np.int64),
            }
        )

    df_tbl = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .sum("partial")
    )
    n_docs = ds.count()
    df_blocks = df_tbl.to_arrow_refs()

    def build_df(tables: list):
        # idf via SCALAR math.log (glibc): bit-identical to DuckDB's
        # ln(); numpy's vectorized np.log differs by 1 ulp on ~30% of
        # inputs and would break the oracle's float compare
        import math

        good = [t for t in tables if t.num_rows]
        if not good:
            return pd.Series(dtype=np.float64)
        t = pa.concat_tables(good)
        dfv = t["sum(partial)"].to_numpy().astype(np.int64)
        idf = np.array(
            [math.log(float(n_docs) / d) for d in dfv], dtype=np.float64
        )
        return pd.Series(
            idf, index=t["term"].to_numpy(zero_copy_only=False)
        )

    def score(batch: pa.Table, _blocks=None) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached_multi

        dfs = cached_multi(_blocks, build_df)
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        words = word_lists(col)
        ids = batch[id_col].to_numpy()
        flat = words.flatten().to_numpy(zero_copy_only=False)
        parent = np.repeat(
            np.arange(len(words), dtype=np.int64),
            np.diff(words.offsets.to_numpy(zero_copy_only=False)),
        )
        # vectorized per-(doc, term) tf over the whole batch
        tfd = (
            pd.DataFrame({"d": parent, "w": flat})
            .groupby(["d", "w"], as_index=False, sort=True)
            .size()
        )
        d = tfd["d"].to_numpy()
        terms = tfd["w"].to_numpy(dtype=object)
        tf = tfd["size"].to_numpy().astype(np.int64)
        s = tf * dfs[terms].to_numpy()
        # top-k per doc: lexsort by (doc, -score, term); term asc is the
        # groupby sort order, preserved by the stable lexsort
        order = np.lexsort((np.arange(len(s)), -s, d))
        d2, t2, s2 = d[order], terms[order], s[order]
        newdoc = np.concatenate([[True], d2[1:] != d2[:-1]])
        starts = np.flatnonzero(newdoc)
        rank = np.arange(len(d2), dtype=np.int64) - np.repeat(
            starts, np.diff(np.concatenate([starts, [len(d2)]]))
        ) + 1
        keep = rank <= top_k
        return pa.table(
            {
                id_col: ids[d2[keep]],
                "term": pa.array(t2[keep].astype(object), pa.string()),
                "tfidf": s2[keep],
                "rank": rank[keep],
            }
        )

    return ds.map_batches(
        score,
        fn_kwargs={"_blocks": df_blocks},
        batch_format="pyarrow",
    )


def _flat_words(col, text_col_table=None):
    """Flatten a batch's word lists: (flat object array, parent doc
    index, per-doc word counts)."""
    from rsgislib_ray.functions.textstats import word_lists

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    words = word_lists(col)
    flat = words.flatten().to_numpy(zero_copy_only=False)
    counts = np.diff(words.offsets.to_numpy(zero_copy_only=False)).astype(
        np.int64
    )
    parent = np.repeat(np.arange(len(words), dtype=np.int64), counts)
    return flat, parent, counts


def repetition_stats(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Gopher-style per-document repetition / diversity signals (Rae et
    al. 2021 §A1.1 quality heuristics; reference has no text module —
    this is part of the training-data layer the north rule adds):

    - ``n_words`` / ``n_distinct_words`` and ``dup_word_frac`` —
      fraction of word occurrences that are repeats;
    - ``top_bigram_count`` / ``top_bigram_frac`` — occurrences of the
      most frequent bigram over total bigrams (n_words-1);
    - ``dup_trigram_frac`` — fraction of trigram occurrences whose
      trigram appears more than once in the doc;
    - ``entropy_nano`` — unigram word-distribution entropy in exact
      fixed-point nano-nats: SUM over distinct words of
      floor(((c/n) * ln(n/c)) * 1e9), order-independent and bit-equal
      to the SQL oracle (each term's ln is evaluated with scalar libm).

    Pure per-doc map_batches — no shuffle; all counting is vectorized
    (pandas C groupby over (doc, gram) pairs, no per-row Python).
    """
    import math

    def stats(batch: pa.Table) -> pa.Table:
        flat, parent, n_words = _flat_words(batch[text_col])
        n = len(n_words)
        ids = batch[id_col]

        dfw = (
            pd.DataFrame({"d": parent, "w": flat})
            .groupby(["d", "w"], as_index=False, sort=False)
            .size()
        )
        n_distinct = np.bincount(
            dfw["d"].to_numpy(), minlength=n
        ).astype(np.int64)

        # entropy over distinct words — scalar libm ln per UNIQUE
        # (count, doc_len) pair (few hundred pairs per batch), then a
        # vectorized int64 scatter-add
        c = dfw["size"].to_numpy().astype(np.int64)
        nw = n_words[dfw["d"].to_numpy()]
        pair = c * 1_000_000 + nw
        upair, inv = np.unique(pair, return_inverse=True)
        uvals = np.empty(len(upair), dtype=np.int64)
        for i, p in enumerate(upair):
            ci, ni = int(p // 1_000_000), int(p % 1_000_000)
            uvals[i] = math.floor(((ci / ni) * math.log(ni / ci)) * 1e9)
        entropy = np.zeros(n, dtype=np.int64)
        np.add.at(entropy, dfw["d"].to_numpy(), uvals[inv])

        def gram_counts(k: int) -> pd.DataFrame:
            """(doc, k-gram) occurrence counts, vectorized."""
            if len(flat) < k:
                return pd.DataFrame({"d": [], "size": []})
            g = pd.Series(flat[: len(flat) - k + 1], dtype=object)
            for j in range(1, k):
                g = g + " " + pd.Series(flat[j : len(flat) - k + 1 + j], dtype=object)
            same = parent[: len(flat) - k + 1] == parent[k - 1 :]
            return (
                pd.DataFrame(
                    {"d": parent[: len(flat) - k + 1][same], "g": g.to_numpy()[same]}
                )
                .groupby(["d", "g"], as_index=False, sort=False)
                .size()
            )

        bgc = gram_counts(2)
        top_bigram = np.zeros(n, dtype=np.int64)
        if len(bgc):
            m = bgc.groupby("d", sort=False)["size"].max()
            top_bigram[m.index.to_numpy()] = m.to_numpy()

        tgc = gram_counts(3)
        dup_tri = np.zeros(n, dtype=np.int64)
        if len(tgc):
            dups = tgc[tgc["size"] > 1]
            if len(dups):
                s = dups.groupby("d", sort=False)["size"].sum()
                dup_tri[s.index.to_numpy()] = s.to_numpy()

        nb = n_words - 1
        nt = n_words - 2
        return pa.table(
            {
                id_col: ids,
                "n_words": n_words,
                "n_distinct_words": n_distinct,
                "dup_word_frac": (n_words - n_distinct).astype(np.float64)
                / n_words,
                "top_bigram_count": top_bigram,
                "top_bigram_frac": np.where(
                    nb > 0, top_bigram.astype(np.float64) / np.maximum(nb, 1), 0.0
                ),
                "dup_trigram_frac": np.where(
                    nt > 0, dup_tri.astype(np.float64) / np.maximum(nt, 1), 0.0
                ),
                "entropy_nano": entropy,
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def unigram_lm_score(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Corpus unigram language-model score per document (the classic
    perplexity-style quality filter, e.g. CCNet/KenLM stage, reduced to
    a self-trained unigram model so it is deterministic and
    SQL-mirrorable).

    Pass 1 counts word occurrences distributed (per-batch partials +
    one narrow ``groupby(term).sum`` of the vocabulary); the
    vocabulary-sized (term → log-prob) map is broadcast via block refs
    and never lands on the driver. Pass 2 scores each doc vectorized.

    Exactness: per-token log-prob is quantized to int64 micro-nats
    ``floor(ln(c / N) * 1e6)`` with SCALAR libm ln (bit-identical to
    DuckDB), so the per-doc sum is an exact integer — associative and
    order-independent under any parallelism.

    Output: (doc_id, n_tokens, lm_sum_micro, lm_mean_micro).
    """
    import math

    def count_partial(batch: pa.Table) -> pa.Table:
        flat, _parent, _counts = _flat_words(batch[text_col])
        cnt = pd.Series(flat).value_counts()
        return pa.table(
            {
                "term": pa.array(cnt.index.to_numpy(dtype=object), pa.string()),
                "partial": cnt.to_numpy().astype(np.int64),
            }
        )

    vocab = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("term")
        .sum("partial")
    )
    vocab_blocks = vocab.to_arrow_refs()

    def build_lp(tables: list) -> pd.Series:
        good = [t for t in tables if t.num_rows]
        if not good:
            return pd.Series(dtype=np.int64)
        t = pa.concat_tables(good)
        c = t["sum(partial)"].to_numpy().astype(np.int64)
        total = int(c.sum())
        lp = np.array(
            [math.floor(math.log(int(ci) / total) * 1e6) for ci in c],
            dtype=np.int64,
        )
        return pd.Series(lp, index=t["term"].to_numpy(zero_copy_only=False))

    def score(batch: pa.Table, _blocks=None) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached_multi

        lp = cached_multi(_blocks, build_lp)
        flat, parent, n_tokens = _flat_words(batch[text_col])
        sums = np.zeros(len(n_tokens), dtype=np.int64)
        if len(flat):
            np.add.at(sums, parent, lp[flat].to_numpy().astype(np.int64))
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": n_tokens,
                "lm_sum_micro": sums,
                "lm_mean_micro": sums.astype(np.float64) / n_tokens,
            }
        )

    return ds.map_batches(
        score, fn_kwargs={"_blocks": vocab_blocks}, batch_format="pyarrow"
    )


def bigram_lm_score(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Self-trained conditional BIGRAM language-model score per doc —
    the order-2 companion of :func:`unigram_lm_score` (same
    CCNet/KenLM quality-filter shape, same exactness discipline):
    per-bigram log-prob ``ln(c(w1,w2) / c(w1,*))`` quantized to int64
    micro-nats with scalar libm ln, summed per document as exact
    integers. Distributed bigram counts (per-batch partials + one
    narrow groupby), broadcast (bigram -> lp) map from block refs.

    Output: (doc_id, n_bigrams, lm_sum_micro, lm_mean_micro)."""
    import math

    def count_partial(batch: pa.Table) -> pa.Table:
        flat, parent, _counts = _flat_words(batch[text_col])
        if len(flat) < 2:
            return pa.table(
                {
                    "bg": pa.array([], pa.string()),
                    "partial": pa.array([], pa.int64()),
                }
            )
        same = parent[1:] == parent[:-1]
        w1 = pd.Series(np.asarray(flat, dtype=object)[:-1][same])
        w2 = pd.Series(np.asarray(flat, dtype=object)[1:][same])
        cnt = (w1 + " " + w2).value_counts()
        return pa.table(
            {
                "bg": pa.array(cnt.index.to_numpy(dtype=object), pa.string()),
                "partial": cnt.to_numpy().astype(np.int64),
            }
        )

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("bg")
        .sum("partial")
    )
    blocks = counts.to_arrow_refs()

    def build_lp(tables: list) -> pd.Series:
        good = [t for t in tables if t.num_rows]
        if not good:
            return pd.Series(dtype=np.int64)
        t = pa.concat_tables(good)
        keys = pd.Series(t["bg"].to_numpy(zero_copy_only=False))
        c = t["sum(partial)"].to_numpy().astype(np.int64)
        w1 = keys.str.split(" ").str[0]
        c1 = pd.Series(c).groupby(w1.to_numpy()).transform("sum").to_numpy()
        lp = np.array(
            [
                math.floor(math.log(int(ci) / int(c1i)) * 1e6)
                for ci, c1i in zip(c, c1)
            ],
            dtype=np.int64,
        )
        return pd.Series(lp, index=keys.to_numpy())

    def score(batch: pa.Table, _blocks=None) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached_multi

        lp = cached_multi(_blocks, build_lp)
        flat, parent, n_tokens = _flat_words(batch[text_col])
        n_bg = np.maximum(n_tokens - 1, 0).astype(np.int64)
        sums = np.zeros(len(n_tokens), dtype=np.int64)
        if len(flat) >= 2:
            same = parent[1:] == parent[:-1]
            w1 = pd.Series(np.asarray(flat, dtype=object)[:-1][same])
            w2 = pd.Series(np.asarray(flat, dtype=object)[1:][same])
            keys = (w1 + " " + w2).to_numpy()
            docidx = parent[:-1][same]
            np.add.at(sums, docidx, lp[keys].to_numpy().astype(np.int64))
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(
                n_bg > 0, sums.astype(np.float64) / n_bg, 0.0
            )
        return pa.table(
            {
                id_col: batch[id_col],
                "n_bigrams": n_bg,
                "lm_sum_micro": sums,
                "lm_mean_micro": mean,
            }
        )

    return ds.map_batches(
        score, fn_kwargs={"_blocks": blocks}, batch_format="pyarrow"
    )


def chunk_documents(
    ds: ray.data.Dataset,
    max_len: int = 32,
    stride: int = 24,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Token-window chunking for training: split each document's
    whitespace token stream into overlapping windows of ``max_len``
    words starting every ``stride`` words (the standard long-document
    pre-tokenization split). One chunk row per window:
    (doc_id, chunk_id, start_word, end_word, n_words, chunk_text).

    Fully vectorized flat-map: chunk word ranges are gathered with one
    Arrow ``take`` over the flattened word array and re-joined with
    ``pc.binary_join`` — no per-row Python. Pure per-doc expansion,
    zero shuffles.
    """
    import pyarrow.compute as pc

    def chunk(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.functions.textstats import word_lists

        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        words = word_lists(col)
        flat_arr = words.flatten()
        word_offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(word_offs)
        ids = batch[id_col].to_numpy()

        n_chunks = (counts + stride - 1) // stride
        doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), n_chunks)
        cstarts = np.cumsum(n_chunks) - n_chunks
        ci = np.arange(int(n_chunks.sum()), dtype=np.int64) - np.repeat(
            cstarts, n_chunks
        )
        start = ci * stride
        end = np.minimum(start + max_len, counts[doc_idx])
        lens = end - start

        base = word_offs[doc_idx] + start
        total = int(lens.sum())
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        gidx = np.repeat(base, lens) + within
        taken = flat_arr.take(pa.array(gidx, pa.int64()))
        if isinstance(taken, pa.ChunkedArray):
            taken = taken.combine_chunks()
        la = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(lens)]), pa.int32()), taken
        )
        return pa.table(
            {
                id_col: ids[doc_idx],
                "chunk_id": ci,
                "start_word": start,
                "end_word": end,
                "n_words": lens,
                "chunk_text": pc.binary_join(la, " "),
            }
        )

    return ds.map_batches(chunk, batch_format="pyarrow")


def token_pmi(
    ds: ray.data.Dataset,
    window: int = 3,
    min_count: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Pointwise mutual information of token pairs co-occurring within
    ``window`` positions (the word2vec/GloVe-era corpus statistic):
    PMI(a,b) = ln( p(a,b) / (p(a) p(b)) ) with p(a,b) = c_ab / P over
    unordered within-window pairs and p(a) = c_a / N over tokens.

    Distributed shape: token counts and pair counts are per-batch
    partials finished by two narrow groupby-sums; the vocabulary-sized
    token-count map broadcasts into the final scoring map. PMI is
    emitted in int64 micro-nats (scalar libm ln over float-cast exact
    integer products) so the oracle matches bit-for-bit.
    """
    import math

    def tok_partial(batch: pa.Table) -> pa.Table:
        flat, _p, _c = _flat_words(batch[text_col])
        cnt = pd.Series(flat).value_counts()
        return pa.table(
            {
                "t": pa.array(cnt.index.to_numpy(dtype=object), pa.string()),
                "partial": cnt.to_numpy().astype(np.int64),
            }
        )

    tok_counts = (
        ds.map_batches(tok_partial, batch_format="pyarrow")
        .groupby("t")
        .sum("partial")
    )
    tok_blocks = tok_counts.to_arrow_refs()

    def pair_partial(batch: pa.Table) -> pa.Table:
        flat, parent, _c = _flat_words(batch[text_col])
        parts = []
        for d in range(1, window + 1):
            if len(flat) <= d:
                continue
            a = pd.Series(flat[:-d], dtype=object)
            b = pd.Series(flat[d:], dtype=object)
            same = parent[:-d] == parent[d:]
            lo = a.where(a <= b, b)
            hi = b.where(a <= b, a)
            parts.append((lo + " " + hi)[same])
        if not parts:
            return pa.table({"pair": pa.array([], pa.string()),
                             "partial": pa.array([], pa.int64())})
        cnt = pd.concat(parts, ignore_index=True).value_counts()
        return pa.table(
            {
                "pair": pa.array(cnt.index.to_numpy(dtype=object), pa.string()),
                "partial": cnt.to_numpy().astype(np.int64),
            }
        )

    pair_counts = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby("pair")
        .sum("partial")
        .materialize()  # contracted (vocab^2-bounded); reused twice
    )
    # P (total pair occurrences) must be a full-corpus constant before
    # scoring: one tiny aggregate over the contracted pair table
    p_total = int(pair_counts.sum("sum(partial)"))

    def build_tok(tables: list) -> pd.Series:
        good = [t for t in tables if t.num_rows]
        t = pa.concat_tables(good)
        return pd.Series(
            t["sum(partial)"].to_numpy().astype(np.int64),
            index=t["t"].to_numpy(zero_copy_only=False),
        )

    def score(batch: pa.Table, _blocks=None) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached_multi

        tc = cached_multi(_blocks, build_tok)
        n_total = int(tc.sum())
        pairs = batch["pair"].to_numpy(zero_copy_only=False)
        c_xy = batch["sum(partial)"].to_numpy().astype(np.int64)
        keep = c_xy >= min_count
        pairs, c_xy = pairs[keep], c_xy[keep]
        split = pd.Series(pairs).str.split(" ", n=1, expand=True)
        if len(pairs) == 0:
            return pa.table(
                {
                    "tok_a": pa.array([], pa.string()),
                    "tok_b": pa.array([], pa.string()),
                    "n_pairs": pa.array([], pa.int64()),
                    "pmi_micro": pa.array([], pa.int64()),
                }
            )
        ca = tc[split[0].to_numpy()].to_numpy().astype(np.int64)
        cb = tc[split[1].to_numpy()].to_numpy().astype(np.int64)
        pmi = np.array(
            [
                math.floor(
                    math.log(
                        float(int(cxy) * n_total * n_total)
                        / float(p_total * int(a) * int(b))
                    )
                    * 1e6
                )
                for cxy, a, b in zip(c_xy, ca, cb)
            ],
            dtype=np.int64,
        )
        return pa.table(
            {
                "tok_a": pa.array(split[0].to_numpy(dtype=object), pa.string()),
                "tok_b": pa.array(split[1].to_numpy(dtype=object), pa.string()),
                "n_pairs": pa.array(c_xy),
                "pmi_micro": pa.array(pmi),
            }
        )

    return pair_counts.map_batches(
        score, fn_kwargs={"_blocks": tok_blocks}, batch_format="pyarrow"
    )


def hashed_linear_score(
    ds: ray.data.Dataset,
    n_buckets: int = 4096,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: int = 0,
) -> ray.data.Dataset:
    """fastText-shaped hashed bag-of-words linear classifier with a
    DETERMINISTIC weight table (the quality-classifier stage of a
    training-data pipeline, e.g. the GPT-3/CCNet quality filter,
    reduced to a fixed linear model so it is SQL-mirrorable).

    Feature hashing: bucket = polyhash(token) -> splitmix64 -> mod
    ``n_buckets``; weight_micro[b] = splitmix64(b) % 2001 - 1000. The
    weight table is a pure function of the bucket id, so every task
    REBUILDS it locally in one vectorized call — nothing is broadcast,
    shipped, or shuffled; the stage is embarrassingly parallel
    (a real trained model would instead ride the ``cached_multi``
    broadcast used by unigram_lm_score).

    Output: (doc_id, n_tokens, score_micro, keep) with
    keep = score_micro > threshold. Exact int64 arithmetic ->
    order-independent under any parallelism.
    """
    from rsgislib_ray.functions.hashing import polyhash_strings, splitmix64

    weights = (
        splitmix64(np.arange(n_buckets, dtype=np.uint64)) % 2001
    ).astype(np.int64) - 1000

    def score(batch: pa.Table) -> pa.Table:
        flat, parent, n_tokens = _flat_words(batch[text_col])
        s = np.zeros(len(n_tokens), dtype=np.int64)
        if len(flat):
            b = (polyhash_strings(flat) % n_buckets).astype(np.int64)
            np.add.at(s, parent, weights[b])
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": n_tokens,
                "score_micro": s,
                "keep": s > threshold,
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def dsir_importance(
    ds: ray.data.Dataset,
    target_col: str = "lang",
    target_value: str = "en",
    text_col: str = "text",
    id_col: str = "doc_id",
    top_k: int = 200,
) -> ray.data.Dataset:
    """Data Selection via Importance Resampling (DSIR, Xie et al. 2023
    arXiv:2302.03169) reduced to its deterministic core: score every
    raw document by the log-likelihood ratio of a TARGET unigram LM
    (docs where ``target_col == target_value``) against the RAW corpus
    LM (add-one smoothing over the raw vocabulary), then keep the
    top-k by ratio — "select raw data that looks like the target".

    ONE counting pass emits per-batch (term, raw, tgt) partials ->
    one narrow vocabulary groupby; the (term -> lambda_micro) map is
    broadcast via block refs (never on the driver). lambda is the
    DIFFERENCE of two floor'ed micro-nat logs, so every per-doc sum is
    an exact int64 — order-independent — and the final top-k is a
    Ray native sort + limit over the small (doc_id, score) table.

    Output: (doc_id, n_tokens, logratio_micro), the top_k selected
    docs, ties broken by doc_id ascending.
    """
    import math

    def count_partial(batch: pa.Table) -> pa.Table:
        flat, parent, _counts = _flat_words(batch[text_col])
        is_tgt = (
            pa.compute.equal(batch[target_col], target_value)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        df = pd.DataFrame({"term": flat, "tgt": is_tgt[parent]})
        g = df.groupby("term", sort=False)["tgt"].agg(["count", "sum"])
        return pa.table(
            {
                "term": pa.array(g.index.to_numpy(dtype=object), pa.string()),
                "raw": g["count"].to_numpy().astype(np.int64),
                "tgt": g["sum"].to_numpy().astype(np.int64),
            }
        )

    vocab = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("term")
        .sum(["raw", "tgt"])
    )
    vocab_blocks = vocab.to_arrow_refs()

    def build_lam(tables: list) -> pd.Series:
        good = [t for t in tables if t.num_rows]
        if not good:
            return pd.Series(dtype=np.int64)
        t = pa.concat_tables(good)
        raw = t["sum(raw)"].to_numpy().astype(np.int64)
        tgt = t["sum(tgt)"].to_numpy().astype(np.int64)
        v = len(raw)
        n_raw = int(raw.sum())
        n_tgt = int(tgt.sum())
        lam = np.array(
            [
                math.floor(math.log((int(ct) + 1.0) / (n_tgt + v)) * 1e6)
                - math.floor(math.log((int(cr) + 1.0) / (n_raw + v)) * 1e6)
                for cr, ct in zip(raw, tgt)
            ],
            dtype=np.int64,
        )
        return pd.Series(lam, index=t["term"].to_numpy(zero_copy_only=False))

    def score(batch: pa.Table, _blocks=None) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached_multi

        lam = cached_multi(_blocks, build_lam)
        flat, parent, n_tokens = _flat_words(batch[text_col])
        sums = np.zeros(len(n_tokens), dtype=np.int64)
        if len(flat):
            np.add.at(sums, parent, lam[flat].to_numpy().astype(np.int64))
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": n_tokens,
                "logratio_micro": sums,
            }
        )

    scored = ds.map_batches(
        score, fn_kwargs={"_blocks": vocab_blocks}, batch_format="pyarrow"
    )
    return scored.sort(
        ["logratio_micro", id_col], descending=[True, False]
    ).limit(top_k)


def bpe_pair_counts(
    ds: ray.data.Dataset,
    text_col: str = "text",
    top_k: int = 30,
) -> ray.data.Dataset:
    """Adjacent-symbol pair frequencies within words across the corpus
    — the counting step of one BPE merge iteration (Sennrich et al.
    2016, arXiv:1508.07909), i.e. what a distributed tokenizer trainer
    computes per round. Returns the ``top_k`` pairs.

    Each batch joins its docs into ONE byte buffer (space-separated,
    so document junctions are pair-breaks like any other space) and
    counts pair codes b[i]*256+b[i+1] where neither byte is a space —
    a single vectorized bincount; the partial is at most the nonzero
    pair codes (<= 65536 rows), so the per-pair combine is narrow and
    the global top-k is a native sort+limit over a tiny table. Zero
    text bytes ever shuffle.
    """

    def partial(batch: pa.Table) -> pa.Table:
        docs = batch[text_col].to_numpy(zero_copy_only=False)
        blob = np.frombuffer(" ".join(docs).encode("utf-8"), dtype=np.uint8)
        if len(blob) < 2:
            return pa.table(
                {
                    "pair_code": pa.array([], pa.int64()),
                    "partial": pa.array([], pa.int64()),
                }
            )
        a, b = blob[:-1], blob[1:]
        ok = (a != 32) & (b != 32)
        codes = a[ok].astype(np.int64) * 256 + b[ok]
        cnt = np.bincount(codes, minlength=0)
        nz = np.flatnonzero(cnt)
        return pa.table({"pair_code": nz, "partial": cnt[nz]})

    def decode(batch: pa.Table) -> pa.Table:
        code = batch["pair_code"].to_numpy()
        pairs = [
            bytes([c // 256, c % 256]).decode("utf-8") for c in code
        ]
        return pa.table(
            {
                "pair": pa.array(pairs, pa.string()),
                "n_pairs": batch["partial"],
            }
        )

    return (
        combine_dataset(
            map_blocks(ds, partial),
            "pair_code",
            ["partial"],
            finish=decode,
        )
        .sort(["n_pairs", "pair"], descending=[True, False])
        .limit(top_k)
    )
