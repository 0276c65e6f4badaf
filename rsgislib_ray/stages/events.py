"""Event-log windowed operators over sorted user runs.

Session windows / lag (as-of) are per-user ORDERED computations. The
naive shape — ``groupby(user_id).map_groups`` — calls Python once per
user (10^5 users = 10^5 calls; at 10^9 users it is the pipeline). Here
the log is hash-split by user ONCE (``stages/partition.py``, the plan
``segsum.segment_sum`` uses); each partition holds every row of its
users, is sorted on (user_id, ts, event_id) and computed vectorized.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from rsgislib_ray.functions.arrayops import expand
from rsgislib_ray.stages import partition
from rsgislib_ray.stages.segsum import combine_arrays, combine_dataset, route


def tumbling_windows(
    ds: ray.data.Dataset,
    window_us: int = 3_600_000_000,
    ts_col: str = "ts",
    user_col: str = "user_id",
    value_col: str = "value",
    slide: int = 1,
) -> ray.data.Dataset:
    """Tumbling (``slide=1``) or sliding (``slide=k``: each event lands
    in k consecutive windows — the duplicate-and-tumble rewrite)
    per-user windowed COUNT + exact integer SUM(round(value*100)).

    Each block pre-reduces to per-(user, window) partial rows;
    :func:`rsgislib_ray.stages.segsum.combine_dataset` sums them — on
    the driver, or past a measured size with the distributed
    hash-partitioned ``segment_sum``, whose rows never reach the driver
    (the 10^9-user event-log path). Values are identical either way.
    Columns: ``user_id``, ``window_id``, ``n``, ``sum_cents``.
    """

    def partial(batch: pa.Table) -> pa.Table:
        ts = (
            batch[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        )
        win = ts // window_us
        uid = batch[user_col].to_numpy()
        cents = np.rint(batch[value_col].to_numpy() * 100).astype(np.int64)
        if slide > 1:
            uid = np.tile(uid, slide)
            cents = np.tile(cents, slide)
            win = np.concatenate([win - k for k in range(slide)])
        return combine_arrays(
            {"user_id": uid, "window_id": win},
            {"n": np.ones(len(uid), np.int64), "sum_cents": cents},
        )

    return combine_dataset(
        partition.map_blocks(ds, partial),
        ["user_id", "window_id"],
        ["n", "sum_cents"],
    )


def event_retention(
    ds: ray.data.Dataset,
    period_us: int = 86_400_000_000,
    ts_col: str = "ts",
    user_col: str = "user_id",
) -> ray.data.Dataset:
    """Cohort retention table over the event log: every user joins the
    cohort of their FIRST active period; output one row per
    (cohort_period, period_offset) with the distinct-user count — the
    classic product-analytics retention matrix, shaped for 10^9 users:

    1. distinct (user, period) pairs via in-batch dedup + one
       :func:`segment_sum` over a packed key (no row-level shuffle of
       raw events);
    2. per-user first period via a second narrow segment min;
    3. the engine's hash join (``partition.join``) attaches cohorts
       (the broadcast alternative breaks at 10^9 users, so the join is
       the default), then per-block partial counts finish in
       :func:`rsgislib_ray.stages.segsum.combine_dataset`.

    Returns (cohort_period, period_offset, n_users)."""
    from rsgislib_ray.stages.segsum import segment_sum

    def pair_partial(batch: pa.Table) -> pa.Table:
        us = (
            batch[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        )
        per = us // period_us
        uid = batch[user_col].to_numpy().astype(np.int64)
        if len(uid) and (
            int(uid.min()) < 0
            or int(uid.max()) >= 1 << 41
            or int(per.min()) < 0
            or int(per.max()) >= 1 << 22
        ):
            raise ValueError(
                "event_retention: packed key needs 0 <= user < 2^41 and "
                "0 <= period < 2^22"
            )
        key = np.unique(uid * np.int64(1 << 22) + per)
        return pa.table({"key": key, "one": np.ones(len(key), np.int64)})

    distinct = segment_sum(
        ds.map_batches(pair_partial, batch_format="pyarrow", batch_size=65536),
        "key",
        ["one"],
        aggs=["min"],
    )

    def unpack(t: pa.Table) -> pa.Table:
        k = t["key"].to_numpy()
        return pa.table(
            {
                "user_id": k >> np.int64(22),
                "per": k & np.int64((1 << 22) - 1),
            }
        )

    pairs, n_pairs = partition.held_rows(
        distinct.map_batches(unpack, batch_format="pyarrow")
    )
    if not n_pairs:
        return ray.data.from_arrow(
            pa.table(
                {
                    "cohort_period": pa.array([], pa.int64()),
                    "period_offset": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                }
            )
        )

    def first_partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy()
        p = t["per"].to_numpy()
        order = np.lexsort((p, u))
        u2, p2 = u[order], p[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(u2)) + 1])
        return pa.table({"user_id": u2[starts], "cohort": p2[starts]})

    first = segment_sum(
        pairs.map_batches(first_partial, batch_format="pyarrow"),
        "user_id",
        ["cohort"],
        aggs=["min"],
    )
    joined = partition.join(pairs, first, "user_id")

    def count_partial(t: pa.Table) -> pa.Table:
        co = t["cohort"].to_numpy()
        return combine_arrays(
            {"cohort_period": co, "period_offset": t["per"].to_numpy() - co},
            {"partial": np.ones(len(co), np.int64)},
        )

    return combine_dataset(
        partition.map_blocks(joined, count_partial),
        ["cohort_period", "period_offset"],
        ["partial"],
        finish=lambda t: t.rename_columns(
            ["cohort_period", "period_offset", "n_users"]
        ),
    )


def _sorted_apply(block_fn, by: list[str], *parts: pa.Table) -> pa.Table:
    """``block_fn`` over one partition's rows, sorted by ``by``."""
    if not parts:
        return pa.table({})
    return block_fn(pa.concat_tables(parts).sort_by([(c, "ascending") for c in by]))


def sorted_user_apply(
    ds: ray.data.Dataset,
    block_fn,
    user_col: str = "user_id",
    sort_cols: tuple = ("ts", "event_id"),
) -> ray.data.Dataset:
    """``block_fn(batch) -> table`` over whole users' rows sorted by
    (user, *sort_cols), vectorized: the rows are hash-split by user
    (``stages/partition.py``), so one task holds every row of its
    users, sorts them and applies ``block_fn``. No Ray Data sort,
    ``map_groups`` or union runs."""
    return partition.hash_reduce(
        partition.held_blocks(ds)[1],
        [user_col],
        functools.partial(_sorted_apply, block_fn, [user_col, *sort_cols]),
    )


def event_lag(
    ds: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
) -> ray.data.Dataset:
    """Previous event's value (cents) per user in (ts, id) order —
    merge_asof-shaped lag, NaN head per user."""

    def block_fn(batch: pa.Table) -> pa.Table:
        u = batch[user_col].to_numpy()
        cents = np.rint(batch[value_col].to_numpy() * 100)
        prev = np.empty(len(u), dtype=np.float64)
        if len(u):
            prev[0] = np.nan
            prev[1:] = np.where(u[1:] == u[:-1], cents[:-1], np.nan)
        return pa.table(
            {
                id_col: batch[id_col],
                user_col: batch[user_col],
                "prev_cents": pa.array(prev, pa.float64()),
            }
        )

    return sorted_user_apply(ds, block_fn, user_col, (ts_col, id_col))


def event_sessions(
    ds: ray.data.Dataset,
    gap_us: int = 1_800_000_000,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    keep_cols: tuple = (),
) -> ray.data.Dataset:
    """Gap-based sessionization: session_id = running count of gaps >
    ``gap_us`` within each user's (ts, id) order (1-based).
    ``keep_cols`` pass through to the output (e.g. the timestamp for
    per-session aggregation). This is also the engine op behind the
    drone photo-time clustering query (reference
    droneutils/__init__.py:96 ``split_photos_by_time`` clusters by
    the same time-gap rule)."""

    def block_fn(batch: pa.Table) -> pa.Table:
        u = batch[user_col].to_numpy()
        us = batch[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        n = len(u)
        if n == 0:
            cols = {
                id_col: batch[id_col],
                user_col: batch[user_col],
                "session_id": pa.array([], pa.int64()),
            }
            for c in keep_cols:
                cols[c] = batch[c]
            return pa.table(cols)
        new = np.ones(n, dtype=np.int64)
        same = u[1:] == u[:-1]
        new[1:] = np.where(same & (us[1:] - us[:-1] <= gap_us), 0, 1)
        # per-user cumsum: global cumsum minus the user's start offset
        cs = np.cumsum(new)
        starts = np.concatenate([[0], np.flatnonzero(u[1:] != u[:-1]) + 1])
        run_id = np.cumsum(np.concatenate([[0], (u[1:] != u[:-1]).astype(np.int64)]))
        base = (cs[starts] - new[starts])[run_id]
        cols = {
            id_col: batch[id_col],
            user_col: batch[user_col],
            "session_id": pa.array(cs - base, pa.int64()),
        }
        for c in keep_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    return sorted_user_apply(ds, block_fn, user_col, (ts_col, id_col))


def asof_join_broadcast(
    ds: ray.data.Dataset,
    ref_ts: np.ndarray,
    ref_vals: dict,
    ts_col: str = "ts",
    direction: str = "backward",
) -> ray.data.Dataset:
    """As-of join against a BROADCAST reference series: for each row,
    the reference entry with the largest ref_ts <= row ts (backward —
    merge_asof / DuckDB ASOF JOIN semantics). ``ref_ts`` must be sorted
    ascending (int64 epoch-us); ``ref_vals`` maps output column ->
    aligned value array. Rows before the first reference entry get
    nulls. One searchsorted per batch — no shuffle; the scale
    assumption is the standard one: the reference series is the small
    side (rates, calibration, config history)."""
    if direction != "backward":
        raise ValueError("only backward as-of is implemented")
    import ray as _ray

    ref = _ray.put((np.asarray(ref_ts, dtype=np.int64), dict(ref_vals)))

    def join(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached

        rts, vals = cached(ref)
        ts = batch[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        pos = np.searchsorted(rts, ts, side="right") - 1
        valid = pos >= 0
        safe = np.maximum(pos, 0)
        out = batch
        for name, arr in vals.items():
            col = np.asarray(arr)[safe].astype(np.float64)
            out = out.append_column(
                name,
                pa.array(np.where(valid, col, np.nan), pa.float64()),
            )
        return out

    return ds.map_batches(join, batch_format="pyarrow")


def interval_join_broadcast(
    ds: ray.data.Dataset,
    lo: np.ndarray,
    hi: np.ndarray,
    ids: np.ndarray,
    value_col: str,
    out_col: str = "interval_id",
) -> ray.data.Dataset:
    """Range (interval) join against a broadcast interval table: emit
    one output row per (row, interval) with lo <= value < hi. Intervals
    may overlap; candidate generation is vectorized over the sorted
    interval starts (same candidate+refine shape as the spatial join,
    one dimension down)."""
    import ray as _ray

    order = np.argsort(lo, kind="stable")
    ref = _ray.put(
        (
            np.asarray(lo, np.float64)[order],
            np.asarray(hi, np.float64)[order],
            np.asarray(ids, np.int64)[order],
            float(np.max(np.asarray(hi) - np.asarray(lo))) if len(lo) else 0.0,
        )
    )

    def join(batch: pa.Table) -> pa.Table:
        from rsgislib_ray.state.broadcast import cached

        slo, shi, sid, max_w = cached(ref)
        v = batch[value_col].to_numpy().astype(np.float64)
        # candidates: intervals with lo in (v - max_width, v]
        first = np.searchsorted(slo, v - max_w, side="left")
        last = np.searchsorted(slo, v, side="right")
        rep, within = expand(last - first)
        ii = first[rep] + within
        ok = (v[rep] >= slo[ii]) & (v[rep] < shi[ii])
        out = batch.take(pa.array(rep[ok]))
        return out.append_column(out_col, pa.array(sid[ii[ok]], pa.int64()))

    return ds.map_batches(join, batch_format="pyarrow")


def event_funnel(
    events: ray.data.Dataset,
    steps: tuple = ("view", "click", "purchase"),
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    combine: str = "auto",
) -> "pa.Table | ray.data.Dataset":
    """Ordered funnel: per user, the earliest time of step 1, the
    earliest step-2 event STRICTLY after it, the earliest step-3 event
    strictly after that, and the number of steps completed.

    ``combine`` picks the strategy:

    - ``"driver"``: each step is one streaming ``map_batches`` pass
      pre-reducing to per-user partial minima (filtered against the
      broadcast previous-step map); partials are combined with one
      exact pandas min and re-broadcast for the next step. Fast while
      the active-user count fits a broadcast map; returns a
      ``pa.Table``.
    - ``"native"``: the 10^9-user shape — no per-user row ever lands
      on the driver. Each step's distinct (user, t) candidates
      hash-join against the previous step's per-user minima (the
      engine's ``partition.join``), filter strictly-after, and reduce
      through the distributed :func:`segment_sum` min; the result
      matrix is assembled with left-outer hash joins (the
      :func:`event_retention` pattern). Returns a streaming Dataset
      with identical values.
    - ``"auto"`` (default): route by the MEASURED step-1 partial row
      count (:func:`rsgislib_ray.stages.segsum.route` —
      step 1's per-batch per-user minima bound every later step's
      combined size, since each step only filters users forward); the
      materialized probe is reused as the driver path's step-1
      partials, so routing costs no extra pass when driver wins.
    """
    import pyarrow.compute as pc

    import ray as _ray

    def make_partial(_step, _prev):
        def partial(batch: pa.Table) -> pa.Table:
            from rsgislib_ray.state.broadcast import cached

            m = pc.equal(batch[type_col], _step)
            sub = batch.filter(m)
            u = sub[user_col].to_numpy()
            t = sub[ts_col].cast(pa.int64()).to_numpy()
            if _prev is not None:
                pm = cached(_prev)
                pv = pm.reindex(u).to_numpy()
                # timestamps (us) < 2^53: float compare vs NaN-padded
                # map values is exact
                keep = ~np.isnan(pv) & (t > pv)
                u, t = u[keep], t[keep]
            g = (
                pd.DataFrame({user_col: u, "t": t})
                .groupby(user_col, as_index=False)["t"]
                .min()
            )
            return pa.table(
                {
                    user_col: g[user_col].to_numpy(),
                    "t": g["t"].to_numpy().astype(np.int64),
                }
            )

        return partial

    probe_mat = None
    if combine == "auto":
        probe_mat, blocks = partition.held_blocks(
            events.map_batches(
                make_partial(steps[0], None), batch_format="pyarrow"
            )
        )
        combine = "native" if route(blocks) else "driver"
    if combine == "native":
        return _event_funnel_native(events, steps, user_col, ts_col, type_col)
    if combine != "driver":
        raise ValueError(f"unknown combine {combine!r}")

    maps: list = []
    prev_ref = None
    for si, step in enumerate(steps):
        step_parts = (
            probe_mat
            if si == 0 and probe_mat is not None
            else events.map_batches(
                make_partial(step, prev_ref), batch_format="pyarrow"
            )
        )
        parts = [
            t
            for t in _ray.get(list(step_parts.to_arrow_refs()))
            if t.num_rows
        ]
        if parts:
            cat = pa.concat_tables(parts).to_pandas()
            m = cat.groupby(user_col)["t"].min()
        else:
            m = pd.Series(dtype=np.int64)
        prev_ref = _ray.put(m)
        maps.append(m)

    def users_partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {user_col: np.unique(batch[user_col].to_numpy())}
        )

    utabs = [
        t
        for t in _ray.get(
            list(
                events.map_batches(
                    users_partial, batch_format="pyarrow"
                ).to_arrow_refs()
            )
        )
        if t.num_rows
    ]
    users = np.unique(np.concatenate([t[user_col].to_numpy() for t in utabs]))

    cols: dict = {user_col: pa.array(users)}
    done = np.zeros(len(users), dtype=np.int64)
    for step, m in zip(steps, maps):
        v = m.reindex(users).to_numpy()
        ok = ~np.isnan(v)
        done += ok.astype(np.int64)
        ts = np.where(ok, v, 0).astype(np.int64)
        cols[f"t_{step}"] = pa.Array.from_pandas(
            ts, mask=~ok, type=pa.int64()
        ).cast(pa.timestamp("us"))
    cols["steps_completed"] = pa.array(done)
    return pa.table(cols)


def _event_funnel_native(
    events: ray.data.Dataset,
    steps: tuple,
    user_col: str,
    ts_col: str,
    type_col: str,
) -> ray.data.Dataset:
    """Fully distributed funnel (see :func:`event_funnel`,
    ``combine="native"``). Per step: distinct (user, t) candidates
    pre-deduped per batch, an inner ``partition.join`` attaches the
    previous step's per-user minimum, strictly-after filter, then a
    distributed :func:`segment_sum` min. Assembly is a chain of
    left-outer ``partition.join``s off the distinct-user set — exactly
    the shape the SQL oracle uses, so values are bit-identical to the
    driver path (all integer microsecond timestamps)."""
    from rsgislib_ray.stages.segsum import segment_sum

    import pyarrow.compute as pc

    def _empty(cols: dict) -> ray.data.Dataset:
        return ray.data.from_arrow(
            pa.table({c: pa.array([], t) for c, t in cols.items()})
        )

    def users_partial(batch: pa.Table) -> pa.Table:
        u = np.unique(batch[user_col].to_numpy().astype(np.int64))
        return pa.table({user_col: u, "one": np.ones(len(u), np.int64)})

    users, n_users = partition.held_rows(
        segment_sum(
            events.map_batches(
                users_partial, batch_format="pyarrow", batch_size=65536
            ),
            user_col,
            ["one"],
            aggs=["min"],
        ).drop_columns(["one"])
    )
    if not n_users:
        out = {user_col: pa.int64()}
        for s in steps:
            out[f"t_{s}"] = pa.timestamp("us")
        out["steps_completed"] = pa.int64()
        return _empty(out)

    prev: ray.data.Dataset | None = None  # the last step's (user, "t") minima
    reached = True  # some user completed every step so far
    first_step = True
    step_mins: list = []  # (user, __t_{step}) joinable datasets
    for step in steps:

        def candidates(batch: pa.Table, _step=step, _first=first_step) -> pa.Table:
            sub = batch.filter(pc.equal(batch[type_col], _step))
            u = sub[user_col].to_numpy().astype(np.int64)
            t = sub[ts_col].cast(pa.int64()).to_numpy()
            order = np.lexsort((t, u))
            u, t = u[order], t[order]
            if _first:
                # step 1 needs no strictly-after filter: per-batch
                # per-user min is a valid partial
                keep = np.concatenate(
                    [[True], u[1:] != u[:-1]]
                ) if len(u) else np.zeros(0, bool)
            else:
                # later steps: keep distinct (user, t) pairs — the min
                # can only be taken AFTER the prev-step join filter
                keep = np.concatenate(
                    [[True], (u[1:] != u[:-1]) | (t[1:] != t[:-1])]
                ) if len(u) else np.zeros(0, bool)
            return pa.table({user_col: u[keep], "t": t[keep]})

        parts = events.map_batches(
            candidates, batch_format="pyarrow", batch_size=65536
        )
        first_step = False
        if reached:
            if prev is not None:
                joined = partition.join(
                    parts,
                    prev.map_batches(
                        lambda tb: pa.table(
                            {user_col: tb[user_col], "prev_t": tb["t"]}
                        ),
                        batch_format="pyarrow",
                    ),
                    user_col,
                )

                def after(tb: pa.Table) -> pa.Table:
                    keep = pc.greater(tb["t"], tb["prev_t"])
                    sub = tb.filter(keep)
                    return pa.table({user_col: sub[user_col], "t": sub["t"]})

                parts = joined.map_batches(after, batch_format="pyarrow")
            prev, n_cur = partition.held_rows(
                segment_sum(parts, user_col, ["t"], aggs=["min"])
            )
            reached = n_cur > 0
        if reached:
            step_mins.append(
                prev.map_batches(
                    lambda tb, _s=step: pa.table(
                        {user_col: tb[user_col], f"__t_{_s}": tb["t"]}
                    ),
                    batch_format="pyarrow",
                )
            )
        else:
            # typed: a map over an empty block would lose its schema
            step_mins.append(
                _empty({user_col: pa.int64(), f"__t_{step}": pa.int64()})
            )

    acc = users
    for cur in step_mins:
        acc = partition.join(acc, cur, user_col, "left_outer")

    def finish(tb: pa.Table) -> pa.Table:
        cols: dict = {user_col: tb[user_col]}
        done = np.zeros(len(tb), dtype=np.int64)
        for s in steps:
            col = tb[f"__t_{s}"]
            ok = pc.is_valid(col).to_numpy(zero_copy_only=False)
            done += ok.astype(np.int64)
            cols[f"t_{s}"] = col.cast(pa.int64()).cast(pa.timestamp("us"))
        cols["steps_completed"] = pa.array(done)
        return pa.table(cols)

    return acc.map_batches(finish, batch_format="pyarrow")


def sequence_segments(
    ds: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    x_col: str = "x",
    y_col: str = "y",
) -> ray.data.Dataset:
    """Ordered point sequences -> line segments: per user (drone /
    flight), consecutive points in (ts, id) order become one segment
    row (seg_idx 1-based, endpoints, exact-integer squared length ->
    one float sqrt). The engine op behind create_flightline_vec
    (reference droneutils/__init__.py:204), which walks a sorted
    photo list on the driver; here the sorted-run machinery emits
    segments block-wise with boundary users grouped."""

    def _segs(u, xs, ys, seg_idx_base=None):
        same = u[1:] == u[:-1]
        dx = xs[1:] - xs[:-1]
        dy = ys[1:] - ys[:-1]
        d2 = dx * dx + dy * dy
        return same, d2

    def block_fn(batch: pa.Table) -> pa.Table:
        u = batch[user_col].to_numpy()
        xs = batch[x_col].to_numpy().astype(np.int64)
        ys = batch[y_col].to_numpy().astype(np.int64)
        n = len(u)
        empty = pa.table(
            {
                user_col: pa.array([], pa.int64()),
                "seg_idx": pa.array([], pa.int64()),
                "x1": pa.array([], pa.int64()),
                "y1": pa.array([], pa.int64()),
                "x2": pa.array([], pa.int64()),
                "y2": pa.array([], pa.int64()),
                "length": pa.array([], pa.float64()),
            }
        )
        if n < 2:
            return empty
        same, d2 = _segs(u, xs, ys)
        sel = np.flatnonzero(same)
        if not len(sel):
            return empty
        # per-user running segment index: position within user run
        starts = np.concatenate(
            [[0], np.flatnonzero(u[1:] != u[:-1]) + 1]
        )
        run_id = np.cumsum(
            np.concatenate([[0], (u[1:] != u[:-1]).astype(np.int64)])
        )
        pos = np.arange(n, dtype=np.int64) - starts[run_id]
        return pa.table(
            {
                user_col: u[sel],
                "seg_idx": pos[sel] + 1,
                "x1": xs[sel],
                "y1": ys[sel],
                "x2": xs[sel + 1],
                "y2": ys[sel + 1],
                "length": np.sqrt(d2[sel].astype(np.float64)),
            }
        )

    return sorted_user_apply(ds, block_fn, user_col, (ts_col, id_col))
