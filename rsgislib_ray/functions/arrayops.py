"""Row-wise kernels across a small fixed set of value columns — the
multi-image pixel aggregates family (``calc_imgs_pxl_mode``
/root/reference/python/rsgislib/imagecalc/__init__.py:1100,
``calc_imgs_pxl_percentiles`` :1161, ``get_img_idx_for_stat``
/root/reference/python/src/imagecalc.cpp:2331). k (number of
"images") is small; rows are many — everything is vectorized over
rows. :func:`expand` is the run expansion that joins and fan-outs
repeat rows with; :func:`run_table` and :func:`run_lookup` find the
runs of a sorted key array (the grid buckets' cell runs)."""

from __future__ import annotations

import numpy as np


def row_mode_min(cols: list[np.ndarray]) -> np.ndarray:
    """Per-row modal value across columns; ties -> SMALLEST value
    (scipy.stats.mstats.mode tie rule the reference inherits,
    zonalstats/__init__.py:466-470)."""
    m = np.sort(np.stack(cols, axis=1), axis=1)  # sorted rows
    n, k = m.shape
    best_val = m[:, 0].copy()
    best_cnt = np.ones(n, dtype=np.int64)
    run_val = m[:, 0].copy()
    run_cnt = np.ones(n, dtype=np.int64)
    for j in range(1, k):
        same = m[:, j] == run_val
        run_cnt = np.where(same, run_cnt + 1, 1)
        run_val = m[:, j]
        better = run_cnt > best_cnt  # strict: keeps the SMALLEST on ties
        best_cnt = np.where(better, run_cnt, best_cnt)
        best_val = np.where(better, run_val, best_val)
    return best_val


def row_argmin_first(cols: list[np.ndarray]) -> np.ndarray:
    """Per-row 1-based index of the minimum; first column wins ties
    (get_img_idx_for_stat semantics)."""
    m = np.stack(cols, axis=1)
    return m.argmin(axis=1).astype(np.int64) + 1


def row_percentile(cols: list[np.ndarray], q: float) -> np.ndarray:
    """Per-row linear-interpolation percentile (numpy default)."""
    m = np.stack(cols, axis=1).astype(np.float64)
    return np.percentile(m, q, axis=1)


def get_bin_centres(
    bin_edges: np.ndarray, geometric: bool = False
) -> np.ndarray:
    """Histogram bin centres from bin edges (tools/stats.py:626):
    arithmetic (max+min)/2 by default, geometric sqrt(min*max) for
    logarithmically spaced bins."""
    if geometric:
        return np.sqrt(bin_edges[1:] * bin_edges[:-1])
    return (bin_edges[1:] + bin_edges[:-1]) / 2


def expand(per: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row ``i`` repeated ``per[i]`` times: (source row, copy number)
    of each copy."""
    rep = np.repeat(np.arange(len(per), dtype=np.int64), per)
    within = np.arange(len(rep), dtype=np.int64) - np.repeat(
        np.cumsum(per) - per, per
    )
    return rep, within


def run_table(sorted_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of a sorted key array as ``(keys, starts)``: each
    distinct key once, ascending, and the offset where its run begins,
    with the array's length appended (``len(starts) == len(keys) + 1``),
    so run ``i`` is ``starts[i]:starts[i + 1]``."""
    first = np.ones(len(sorted_key), dtype=bool)
    first[1:] = sorted_key[1:] != sorted_key[:-1]
    at = np.flatnonzero(first)
    return sorted_key[at], np.append(at, len(sorted_key)).astype(np.int64)


def run_lookup(
    keys: np.ndarray, starts: np.ndarray, key: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, cnt)``: the run of ``key[j]`` in a :func:`run_table` is
    ``lo[j]:lo[j] + cnt[j]``, and ``cnt[j]`` is 0 when the key has no
    run. One ``searchsorted`` over the distinct keys."""
    i = np.searchsorted(keys, key)
    if len(keys):
        hit = keys.take(i, mode="clip") == key
    else:
        hit = np.zeros(len(i), dtype=bool)
    lo = starts[i]
    return lo, starts[i + hit] - lo
