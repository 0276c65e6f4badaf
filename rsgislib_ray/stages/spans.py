"""Span-column stages: geometry extraction and the span-sequence invariant.

The per-row invariant the north rule demands is span-sequence equality
(kind, text, media_ref, order): every operator APPENDS derived columns
and never rewrites ``spans``. Zero-copy is automatic — in
``batch_format="pyarrow"`` the spans ListArray buffers pass through the
object store untouched.

``parse_geom_spans`` extracts the (single) geometry span per document
into flat columns entirely with Arrow kernels (list flatten + compute)
— no per-row Python. Polygon rings land in a ``list<double>`` column
(coordinate pairs, implicit closure), points get NaN ring and their
coords; both get an envelope.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rsgislib_ray.functions.hashing import hash_strings, splitmix64

GEOM_KINDS = ("point", "poly")


def _list_offsets(arr: pa.ListArray) -> np.ndarray:
    """Offsets normalized to start at 0 (a sliced ListArray keeps its
    parent's offsets; flatten() compensates, so we must too)."""
    off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return off - off[0]


def _list_parent_indices(arr: pa.ListArray) -> np.ndarray:
    off = _list_offsets(arr)
    return np.repeat(np.arange(len(arr), dtype=np.int64), np.diff(off))


def _span_error(
    batch: pa.Table, rows: np.ndarray, texts: pa.Array, i: int, kind: str, what: str
) -> ValueError:
    """The error for the ``i``-th span of one kind, naming its doc."""
    row = int(rows[i])
    doc = batch["doc_id"][row].as_py() if "doc_id" in batch.column_names else row
    return ValueError(f"doc_id {doc}: {kind} span {texts[i].as_py()!r} {what}")


def _check_span_tokens(
    batch: pa.Table,
    rows: np.ndarray,
    texts: pa.Array,
    bad: np.ndarray,
    kind: str,
    want: str,
) -> None:
    """Raise on the first geometry span whose token count is wrong.

    Coordinates are split out of all spans of one kind at once and then
    read pairwise, so a span with a stray or missing token would shift
    every later span's coordinates onto its neighbour's."""
    if not bad.any():
        return
    i = int(np.flatnonzero(bad)[0])
    raise _span_error(
        batch, rows, texts, i, kind, f"must have {want} coordinate tokens"
    )


def _span_coords(
    batch: pa.Table,
    rows: np.ndarray,
    texts: pa.Array,
    parts: pa.ListArray,
    kind: str,
) -> np.ndarray:
    """float64 value of every coordinate token, in one cast.

    A non-numeric token fails the cast without naming its span; only
    then are the spans cast one at a time to find the first bad one."""
    try:
        return pc.cast(parts.flatten(), pa.float64()).to_numpy(zero_copy_only=False)
    except pa.ArrowInvalid:
        for i in range(len(parts)):
            try:
                pc.cast(parts[i].values, pa.float64())
            except pa.ArrowInvalid as err:
                raise _span_error(
                    batch, rows, texts, i, kind, "has a non-numeric coordinate token"
                ) from err
        raise


def parse_geom_spans(batch: pa.Table, spans_col: str = "spans") -> pa.Table:
    """Append geometry columns parsed from the spans column.

    Appends: ``geom_kind`` (string: point/poly/none), ``x``, ``y``
    (point coords, or poly centroid-of-envelope), ``gxmin/gxmax/
    gymin/gymax`` (envelope), ``ring_xy`` (list<double>, null for
    points). Original columns — including spans — are passed through
    untouched.
    """
    spans = batch[spans_col]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    n = len(batch)
    flat = spans.flatten()
    parent = _list_parent_indices(spans)
    kind = flat.field("kind")
    text = flat.field("text")

    is_point = pc.equal(kind, "point").to_numpy(zero_copy_only=False)
    is_poly = pc.equal(kind, "poly").to_numpy(zero_copy_only=False)

    x = np.full(n, np.nan)
    y = np.full(n, np.nan)
    gxmin = np.full(n, np.nan)
    gxmax = np.full(n, np.nan)
    gymin = np.full(n, np.nan)
    gymax = np.full(n, np.nan)
    geom_kind = np.full(n, "none", dtype=object)

    # ---- points: "x y" ------------------------------------------------
    if is_point.any():
        rows = parent[is_point]
        ptxt = text.filter(pa.array(is_point))
        parts = pc.split_pattern(ptxt, " ")
        counts = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
        _check_span_tokens(batch, rows, ptxt, counts != 2, "point", "exactly 2")
        vals = _span_coords(batch, rows, ptxt, parts, "point")
        px = vals[0::2]
        py = vals[1::2]
        x[rows] = px
        y[rows] = py
        gxmin[rows] = px
        gxmax[rows] = px
        gymin[rows] = py
        gymax[rows] = py
        geom_kind[rows] = "point"

    # ---- polys: "x1 y1,x2 y2,..." ------------------------------------
    ring_values = np.empty(0, dtype=np.float64)
    ring_row = np.empty(0, dtype=np.int64)
    ring_counts_by_row = np.zeros(n, dtype=np.int64)
    if is_poly.any():
        rows = parent[is_poly]
        ptxt = text.filter(pa.array(is_poly))
        flat_txt = pc.replace_substring(ptxt, ",", " ")
        parts = pc.split_pattern(flat_txt, " ")
        counts = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
        _check_span_tokens(batch, rows, ptxt, counts % 2 != 0, "poly", "an even number of")
        vals = _span_coords(batch, rows, ptxt, parts, "poly")
        # envelope per poly via reduceat over coordinate pairs
        pair_counts = counts // 2
        pair_starts = np.cumsum(pair_counts) - pair_counts
        pts = vals.reshape(-1, 2)
        pxmin = np.minimum.reduceat(pts[:, 0], pair_starts)
        pxmax = np.maximum.reduceat(pts[:, 0], pair_starts)
        pymin = np.minimum.reduceat(pts[:, 1], pair_starts)
        pymax = np.maximum.reduceat(pts[:, 1], pair_starts)
        gxmin[rows] = pxmin
        gxmax[rows] = pxmax
        gymin[rows] = pymin
        gymax[rows] = pymax
        x[rows] = (pxmin + pxmax) * 0.5
        y[rows] = (pymin + pymax) * 0.5
        geom_kind[rows] = "poly"
        # `rows` (= parent[is_poly]) is nondecreasing because flatten
        # order follows row order, so the concatenated value runs are
        # already aligned with batch row order.
        ring_values = vals
        ring_counts_by_row[rows] = counts

    # ring_xy list<double> aligned to batch rows (empty list for points)
    offsets = np.concatenate([[0], np.cumsum(ring_counts_by_row)]).astype(np.int64)
    ring_arr = pa.ListArray.from_arrays(pa.array(offsets), pa.array(ring_values))

    out = batch
    for name, col in [
        ("geom_kind", pa.array(geom_kind, type=pa.string())),
        ("x", pa.array(x)),
        ("y", pa.array(y)),
        ("gxmin", pa.array(gxmin)),
        ("gxmax", pa.array(gxmax)),
        ("gymin", pa.array(gymin)),
        ("gymax", pa.array(gymax)),
        ("ring_xy", ring_arr),
    ]:
        out = out.append_column(name, col)
    return out


def span_signature(batch: pa.Table, spans_col: str = "spans") -> np.ndarray:
    """Order-sensitive uint64 signature of each row's span sequence
    (kind, text, media_ref, order). Used by the invariant tests and the
    checkpoint manifest: any accidental span rewrite changes it."""
    spans = batch[spans_col]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    off = _list_offsets(spans)
    pos = np.arange(len(flat), dtype=np.int64) - np.repeat(off[:-1], np.diff(off))
    h = hash_strings(flat.field("kind").to_numpy(zero_copy_only=False))
    h = splitmix64(h ^ hash_strings(flat.field("text").to_numpy(zero_copy_only=False)))
    h = splitmix64(
        h ^ hash_strings(flat.field("media_ref").to_numpy(zero_copy_only=False))
    )
    h = splitmix64(h ^ splitmix64(pos.astype(np.uint64)))
    counts = np.diff(off)
    sig = np.zeros(len(batch), dtype=np.uint64)
    nz = counts > 0
    if nz.any():
        with np.errstate(over="ignore"):
            # order captured via pos-mixing; the per-row SUM is then
            # associative -> partition-independent
            sig[nz] = np.add.reduceat(h, off[:-1][nz])
    return sig


def span_kind_counts(batch: pa.Table, spans_col: str = "spans") -> pa.Table:
    """Per-doc span accounting straight off the interleaved schema:
    (doc_id, n_spans, n_text, n_image, n_geom, n_media_refs). Pure
    Arrow kernels over the flattened struct — no Python per row."""
    spans = batch[spans_col]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    n = len(batch)
    flat = spans.flatten()
    parent = _list_parent_indices(spans)
    kind = flat.field("kind")
    media = flat.field("media_ref")

    def per_doc(mask: np.ndarray) -> np.ndarray:
        return np.bincount(parent[mask], minlength=n).astype(np.int64)

    is_text = pc.equal(kind, "text").to_numpy(zero_copy_only=False)
    is_image = pc.equal(kind, "image").to_numpy(zero_copy_only=False)
    is_geom = (~is_text) & (~is_image)
    has_media = pc.not_equal(media, "").to_numpy(zero_copy_only=False)
    n_spans = np.diff(
        spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_spans": pa.array(n_spans),
            "n_text": pa.array(per_doc(is_text)),
            "n_image": pa.array(per_doc(is_image)),
            "n_geom": pa.array(per_doc(is_geom)),
            "n_media_refs": pa.array(per_doc(has_media)),
        }
    )
