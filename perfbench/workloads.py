"""The benchmark's four workloads.

Every workload makes its inputs from the seed, hands the engine only
the generated tables, computes its expected output with DuckDB
(``oracle.py``), and exposes three ways to run the engine:

- ``iterate()``: one timed iteration of the workload's pipeline;
- ``prefixes()``: the cumulative pipeline prefixes the traced run times
  in Ray (read, then +parse, +tag, ... up to the full pipeline);
- ``kernel_pass()``: a single-process pass that calls the engine's
  public kernels on the same inputs, inside ledger spans, and records
  the counts (rows, candidates, matches, bytes).
"""

from __future__ import annotations

import glob
import os
import shutil
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from perfbench import oracle, raystats
from perfbench.host import Stopwatch
from perfbench.ledger import Ledger
from rsgislib_ray.functions.cells import cells_from_xy
from rsgislib_ray.pipelines.flagship import (
    CELL_LEVEL,
    DEFAULT_TILESPEC,
    flagship,
    synth_zone_table,
)
from rsgislib_ray.runtime.checkpoint import checkpointed_write, resume_filter
from rsgislib_ray.sources.synth import synth_docs_batch
from rsgislib_ray.stages.spans import parse_geom_spans
from rsgislib_ray.stages.spatial_join import ZoneSet, spatial_join_points_sortmerge
from rsgislib_ray.stages.tiling import assign_cells, assign_tiles
from rsgislib_ray.stages.zonal import MOMENT_STATS, zonal_stats
from rsgislib_ray.state.broadcast import cached

LINEAGE = [
    {"op": "synth_docs", "params": {"source": "perfbench"}},
    {"op": "flagship_join", "params": {"zones": "synth64"}},
    {"op": "write_tiled", "params": {"tile": "30x30"}},
]
# Layers the single-process pass times; their self times plus
# ``ray_data.overhead_s`` make up the traced end-to-end wall time.
KERNEL_LAYERS = (
    "sources.read",
    "spans.parse",
    "tiling.tag",
    "strtree.build",
    "spatial_join.probe",
    "spatial_join.take",
)

# (name, run it -> (rows, the Dataset whose stats() describe the run, or
# None), expected rows)
Prefix = tuple[str, Callable[[], tuple[int, ray.data.Dataset | None]], int]


def _nrows(batch: pa.Table) -> pa.Table:
    return pa.table({"n": [batch.num_rows]})


def consume(ds: ray.data.Dataset) -> tuple[int, ray.data.Dataset]:
    """Execute ``ds`` to the end keeping only its row count; returns
    (rows, the executed Dataset). Unlike ``count()``, this reads the
    data even when parquet metadata could answer."""
    c = ds.map_batches(_nrows, batch_format="pyarrow", batch_size=None)
    return sum(r["n"] for r in c.take_all()), c


def _probe_counts(batch: pa.Table, zones_ref=None) -> pa.Table:
    zs, idx = cached(zones_ref, lambda z: (z, z.build_index()))
    pi, _ = zs.match_points(idx, batch["x"].to_numpy(), batch["y"].to_numpy())
    return pa.table({"n": [len(pi)]})


def dense_zones(rng: np.random.Generator, n: int) -> pa.Table:
    """Overlapping integer-cornered rectangles over [0, 100)^2, 4-12 wide
    (the sf0.1 zone shape: about 115 zones over any point at 20k)."""
    xmin = rng.integers(0, 88, n).astype(np.float64)
    ymin = rng.integers(0, 88, n).astype(np.float64)
    xmax = xmin + 4 + rng.integers(0, 9, n)
    ymax = ymin + 4 + rng.integers(0, 9, n)
    ring = np.column_stack([xmin, ymin, xmax, ymin, xmax, ymax, xmin, ymax])
    return pa.table(
        {
            "fid": pa.array(np.arange(n, dtype=np.int64)),
            "ring_xy": pa.FixedSizeListArray.from_arrays(pa.array(ring.ravel()), 8),
        }
    )


def lattice_xy(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates on a 0.01 lattice shifted by 0.005, so no point ever
    lies on an integer zone edge."""
    x = rng.integers(0, 10000, n) / 100.0 + 0.005
    y = rng.integers(0, 10000, n) / 100.0 + 0.005
    return x, y


def _split(tbl: pa.Table, parts: int) -> list[pa.Table]:
    step = -(-tbl.num_rows // parts)
    return [tbl.slice(i, step) for i in range(0, tbl.num_rows, step)]


def _dir_bytes(path: str, pattern: str = "**/*.parquet") -> int:
    return sum(os.path.getsize(f) for f in glob.glob(os.path.join(path, pattern), recursive=True))


class Workload:
    name = ""
    why = ""
    # (from prefix, to prefix, kernel layers): the Ray cost those prefix
    # steps add should match the layers' single-process self times
    gap: tuple[str, str, tuple[str, ...]] | None = None
    # per-layer times measured as a Ray prefix difference, not a kernel span
    ray_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: float, work_dir: str):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.scale = scale
        self.dir = os.path.join(work_dir, self.name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.input_rows = 0
        self.make_inputs()

    def _n(self, full: int) -> int:
        return max(200, int(full * self.scale))

    # overridden per workload
    def make_inputs(self) -> None: ...
    def compute_oracle(self) -> None: ...
    def warm_up(self) -> bool: ...
    def iterate(self): ...
    def check(self, out) -> bool: ...
    def prefixes(self) -> list[Prefix]: ...
    def kernel_pass(self, led: Ledger, record: bool) -> None: ...

    def layer_metrics(self, led: Ledger, prefix_s: dict, stats: dict) -> dict:
        """Workload-specific per-layer metrics; the rest default to 0."""
        return {}

    def extra_traced(self, led: Ledger) -> tuple[int, int]:
        """Traced-only extra runs; returns (attempted, failed)."""
        return 0, 0


class _DocsWorkload(Workload):
    """Shared by flagship_join and tiled_write: a seeded interleaved docs
    table in parquet files, and the 64-zone synth layer."""

    n_docs = 60_000
    n_files = 2
    gap = ("read", "join", KERNEL_LAYERS[1:])

    def make_inputs(self) -> None:
        n = self._n(self.n_docs)
        self.docs_dir = os.path.join(self.dir, "docs")
        os.makedirs(self.docs_dir)
        docs = synth_docs_batch(np.arange(n, dtype=np.uint64), seed=self.seed)
        for i, part in enumerate(_split(docs, self.n_files)):
            pq.write_table(part, os.path.join(self.docs_dir, f"part-{i}.parquet"))
        self.zones = synth_zone_table(64, seed=self.seed)
        self.input_rows = n

    def compute_oracle(self) -> None:
        want = oracle.docs_join(
            os.path.join(self.docs_dir, "*.parquet"),
            self.zones,
            CELL_LEVEL,
            100.0,
            DEFAULT_TILESPEC,
        )
        self.want_rows, self.want_hash = oracle.digest(want)
        self.want_tiles = int(want["tile_id"].nunique())

    def docs(self) -> ray.data.Dataset:
        return ray.data.read_parquet(self.docs_dir)

    def joined(self) -> ray.data.Dataset:
        return flagship(self.docs(), self.zones)

    def warm_up(self) -> bool:
        got = self.joined().select_columns(oracle.DOC_COLS).to_pandas()
        return oracle.digest(got) == (self.want_rows, self.want_hash)

    def _files(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.docs_dir, "*.parquet")))

    def _doc_prefixes(self) -> list[Prefix]:
        n = self.input_rows
        parsed = lambda: self.docs().map_batches(parse_geom_spans, batch_format="pyarrow")  # noqa: E731
        tagged = lambda: assign_tiles(assign_cells(parsed(), CELL_LEVEL), DEFAULT_TILESPEC)  # noqa: E731
        return [
            ("read", lambda: consume(self.docs()), n),
            ("parse", lambda: consume(parsed()), n),
            ("tag", lambda: consume(tagged()), n),
            ("join", lambda: consume(self.joined()), self.want_rows),
        ]

    def kernel_pass(self, led: Ledger, record: bool) -> None:
        count = led.count if record else (lambda *_: None)
        with led.span("strtree.build"):
            zs = ZoneSet.from_table(self.zones, attr_cols=["category"])
            idx = zs.build_index()
        count("strtree.entries", len(idx.item_of))
        count("strtree.zones", len(zs))
        for path in self._files():
            with led.span("block"):
                with led.span("sources.read"):
                    tbl = pq.read_table(path)
                count("sources.read_bytes", os.path.getsize(path))
                with led.span("spans.parse"):
                    tbl = parse_geom_spans(tbl)
                with led.span("tiling.tag"):
                    x = tbl["x"].to_numpy()
                    y = tbl["y"].to_numpy()
                    cid = cells_from_xy(x, y, CELL_LEVEL)
                    tbl = tbl.append_column("cell_id", pa.array(cid, type=pa.int64()))
                    tid = DEFAULT_TILESPEC.assign(x, y)
                    tbl = tbl.append_column("tile_id", pa.array(tid, type=pa.int64()))
                with led.span("spatial_join.probe"):
                    pi, zi = zs.match_points(idx, x, y)
                with led.span("spatial_join.take"):
                    out = tbl.take(pa.array(pi, type=pa.int64()))
                    out = out.append_column("zone_fid", pa.array(zs.fid[zi], type=pa.int64()))
                    cat = zs.attrs["category"].take(pa.array(zi, type=pa.int64()))
                    out = out.append_column("zone_category", cat)
                with led.span("ledger.count"):
                    kind = tbl["geom_kind"].to_numpy(zero_copy_only=False)
                    count("spans.geom_rows", int((kind != "none").sum()))
                    count("spans.poly_rows", int((kind == "poly").sum()))
                    count("tiling.off_frame_rows", int((cid == -1).sum()))
                    count("spatial_join.points", len(x))
                    count("spatial_join.candidates", len(idx.query_points(x, y)[0]))
                    count("spatial_join.matches", len(pi))
                    count("spatial_join.out_rows", out.num_rows)
                    count("spatial_join.out_bytes", out.nbytes)

    def layer_metrics(self, led, prefix_s, stats) -> dict:
        c = led.counts
        pts = max(c["spatial_join.points"], 1)
        return {
            "sources.read_bytes": c["sources.read_bytes"],
            "spans.geom_rows": c["spans.geom_rows"],
            "spans.poly_rows": c["spans.poly_rows"],
            "tiling.off_frame_rows": c["tiling.off_frame_rows"],
            "strtree.entries_per_zone": c["strtree.entries"] / c["strtree.zones"],
            "spatial_join.candidates_per_point": c["spatial_join.candidates"] / pts,
            "spatial_join.match_ratio": c["spatial_join.matches"] / max(c["spatial_join.candidates"], 1),
            "spatial_join.matches_per_point": c["spatial_join.matches"] / pts,
            "spatial_join.out_rows": c["spatial_join.out_rows"],
            "spatial_join.out_bytes_per_row": c["spatial_join.out_bytes"] / max(c["spatial_join.out_rows"], 1),
        }


class FlagshipJoin(_DocsWorkload):
    name = "flagship_join"
    why = (
        "the north-rule headline on 60k docs: read, span parse, cell/tile tagging, a light "
        "64-zone probe and the copy of spans-carrying rows, all in one fused Ray operator"
    )

    def iterate(self):
        return self.joined().count()

    def check(self, out) -> bool:
        return out == self.want_rows

    def prefixes(self) -> list[Prefix]:
        return self._doc_prefixes()


class TiledWrite(_DocsWorkload):
    name = "tiled_write"
    why = (
        "the only workload that writes: flagship() into checkpointed_write by tile_id "
        "(groupby shuffle, parquet, manifest), so write-side costs show"
    )
    n_docs = 20_000
    ray_layers = ("checkpoint.write_s",)

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self._out_seq = 0

    def _fresh_out(self) -> str:
        self._out_seq += 1
        return os.path.join(self.dir, f"out-{self._out_seq}")

    def _write(self, out_dir: str) -> dict:
        return checkpointed_write(self.joined(), out_dir, "tile_id", LINEAGE)

    def iterate(self):
        out_dir = self._fresh_out()
        return out_dir, self._write(out_dir)

    def _read_back(self, out_dir: str):
        files = sorted(glob.glob(os.path.join(out_dir, "tile_id=*", "*.parquet")))
        return pa.concat_tables([pq.read_table(f, columns=oracle.DOC_COLS) for f in files])

    def check(self, out) -> bool:
        out_dir, meta = out
        try:
            ok = (
                meta["rows_written"] == self.want_rows
                and meta["partitions_written"] == self.want_tiles
                and oracle.digest(self._read_back(out_dir).to_pandas())
                == (self.want_rows, self.want_hash)
            )
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return ok

    def warm_up(self) -> bool:
        return self.check(self.iterate())

    def prefixes(self) -> list[Prefix]:
        def write() -> tuple[int, None]:
            out_dir = self._fresh_out()
            meta = self._write(out_dir)
            self.last_write = (out_dir, meta)
            return meta["rows_written"], None

        return self._doc_prefixes() + [("write", write, self.want_rows)]

    def extra_traced(self, led: Ledger) -> tuple[int, int]:
        """Resume into the committed directory the way ``cli flagship
        --resume`` does: ``resume_filter`` runs after the join, so every
        doc is re-read, re-parsed and re-joined before being pruned."""
        out_dir, meta = self.last_write
        self.write_bytes = _dir_bytes(out_dir)
        self.partitions = meta["partitions_written"]

        def part_fn(batch: pa.Table):
            return batch["tile_id"].to_numpy()

        with Stopwatch() as sw, led.span("checkpoint.resume"):
            pruned, done = resume_filter(self.joined(), out_dir, "tile_id", part_fn, LINEAGE)
            resumed = checkpointed_write(pruned, out_dir, "tile_id", LINEAGE)
        self.resume_s = sw.s
        # same pipeline once more, consumed, to read how many docs the
        # resume re-read (Dataset.stats of the fused read operator)
        pruned, _ = resume_filter(self.joined(), out_dir, "tile_id", part_fn, LINEAGE)
        left, ds = consume(pruned)
        read_op = raystats.first_op(raystats.parse_stats(ds.stats()), "ReadParquet")
        self.resume_rows = read_op["out_rows"] if read_op else 0
        ok = (
            len(done) == self.want_tiles
            and resumed["partitions_written"] == 0
            and left == 0
            and oracle.digest(self._read_back(out_dir).to_pandas())
            == (self.want_rows, self.want_hash)
        )
        shutil.rmtree(out_dir, ignore_errors=True)
        return 1, int(not ok)

    def layer_metrics(self, led, prefix_s, stats) -> dict:
        m = super().layer_metrics(led, prefix_s, stats)
        in_bytes = _dir_bytes(self.docs_dir, "*.parquet")
        m.update(
            {
                "checkpoint.write_s": prefix_s["write"] - prefix_s["join"],
                "checkpoint.partitions": self.partitions,
                "checkpoint.bytes_per_input_byte": self.write_bytes / in_bytes,
                "checkpoint.resume_s": self.resume_s,
                "checkpoint.resume_rows_recomputed": self.resume_rows,
            }
        )
        return m


class DenseZonal(Workload):
    name = "dense_zonal"
    why = (
        "zonal_stats of 8k integer cells against 20k overlapping zones (over 100 matches "
        "per point): index build, probe and reduce dominate; no spans, parse or row copy"
    )
    n_cells = 8_000
    n_zones = 20_000
    gap = ("read", "probe", ("strtree.build", "spatial_join.probe"))
    ray_layers = ("zonal.self_s",)

    def make_inputs(self) -> None:
        n = self._n(self.n_cells)
        self.zones = dense_zones(self.rng, self._n(self.n_zones))
        x, y = lattice_xy(self.rng, n)
        self.cells = pa.table(
            {
                "cell_key": np.arange(n, dtype=np.int64),
                "x": x,
                "y": y,
                "val": self.rng.integers(0, 100_000, n),
            }
        )
        self.blocks = _split(self.cells, 2)
        self.input_rows = n

    def compute_oracle(self) -> None:
        want = oracle.zonal_moments(self.cells, self.zones)
        self.want = oracle.digest(want)
        self.want_matches = int(want["count"][want["count"] > 0].sum())

    def _cells_ds(self) -> ray.data.Dataset:
        return ray.data.from_arrow(self.blocks)

    def iterate(self):
        return zonal_stats(self._cells_ds(), self.zones, "val", stats=MOMENT_STATS)

    def check(self, out) -> bool:
        return oracle.digest(out.to_pandas()) == self.want

    def warm_up(self) -> bool:
        return self.check(self.iterate())

    def prefixes(self) -> list[Prefix]:
        def probe() -> tuple[int, ray.data.Dataset]:
            ref = ray.put(ZoneSet.from_table(self.zones))
            ds = self._cells_ds().map_batches(
                _probe_counts, fn_kwargs={"zones_ref": ref}, batch_format="pyarrow", batch_size=None
            )
            return sum(r["n"] for r in ds.take_all()), ds

        def zonal() -> tuple[int, None]:
            out = self.iterate()
            return (out.num_rows if self.check(out) else -1), None

        return [
            ("read", lambda: consume(self._cells_ds()), self.input_rows),
            ("probe", probe, self.want_matches),
            ("zonal", zonal, self.zones.num_rows),
        ]

    def kernel_pass(self, led: Ledger, record: bool) -> None:
        count = led.count if record else (lambda *_: None)
        with led.span("strtree.build"):
            zs = ZoneSet.from_table(self.zones)
            idx = zs.build_index()
        count("strtree.entries", len(idx.item_of))
        count("strtree.zones", len(zs))
        for blk in self.blocks:
            x = blk["x"].to_numpy()
            y = blk["y"].to_numpy()
            with led.span("spatial_join.probe"):
                pi, _ = zs.match_points(idx, x, y)
            with led.span("ledger.count"):
                count("spatial_join.points", len(x))
                count("spatial_join.candidates", len(idx.query_points(x, y)[0]))
                count("spatial_join.matches", len(pi))

    def layer_metrics(self, led, prefix_s, stats) -> dict:
        c = led.counts
        return {
            "strtree.entries_per_zone": c["strtree.entries"] / c["strtree.zones"],
            "spatial_join.candidates_per_point": c["spatial_join.candidates"] / c["spatial_join.points"],
            "spatial_join.match_ratio": c["spatial_join.matches"] / max(c["spatial_join.candidates"], 1),
            "spatial_join.matches_per_point": c["spatial_join.matches"] / c["spatial_join.points"],
            # the zonal_stats span minus its probe: the marginal Ray cost of
            # the full zonal pipeline over the probe-only pipeline
            "zonal.self_s": prefix_s["zonal"] - prefix_s["probe"],
        }


class SkewSortmerge(Workload):
    name = "skew_sortmerge"
    why = (
        "the only range-shuffle join: sort-merge with hot-cell salting over points of "
        "which about 30% share one level-6 cell, against dense zones"
    )
    n_points = 4_000
    n_zones = 1_000
    salt_threshold = 200
    level = 6
    ray_layers = ("spatial_join.sortmerge_s",)

    def make_inputs(self) -> None:
        n = self._n(self.n_points)
        self.zones = dense_zones(self.rng, self._n(self.n_zones))
        x, y = lattice_xy(self.rng, n)
        hot = self.rng.random(n) < 0.3
        # the hot share collapses into [50, 51)^2, inside one level-6 cell
        x = np.where(hot, 50.0 + (x - np.floor(x)), x)
        y = np.where(hot, 50.0 + (y - np.floor(y)), y)
        self.points = pa.table({"pt_row": np.arange(n, dtype=np.int64), "x": x, "y": y})
        self.blocks = _split(self.points, 2)
        self.input_rows = n

    def compute_oracle(self) -> None:
        self.want = oracle.digest(oracle.point_pairs(self.points, self.zones))

    def _joined(self) -> ray.data.Dataset:
        return spatial_join_points_sortmerge(
            ray.data.from_arrow(self.blocks),
            self.zones,
            level=self.level,
            key_col="pt_row",
            salt_threshold=self.salt_threshold,
        )

    def iterate(self):
        blocks = ray.get(self._joined().to_arrow_refs())
        return pa.concat_tables([b for b in blocks if b.num_rows])

    def check(self, out) -> bool:
        return oracle.digest(out.to_pandas()) == self.want

    def warm_up(self) -> bool:
        return self.check(self.iterate())

    def prefixes(self) -> list[Prefix]:
        return [
            ("read", lambda: consume(ray.data.from_arrow(self.blocks)), self.input_rows),
            ("sortmerge", lambda: consume(self._joined()), self.want[0]),
        ]

    def kernel_pass(self, led: Ledger, record: bool) -> None:
        count = led.count if record else (lambda *_: None)
        cells = []
        for blk in self.blocks:
            with led.span("tiling.tag"):
                cells.append(cells_from_xy(blk["x"].to_numpy(), blk["y"].to_numpy(), self.level))
        with led.span("ledger.count"):
            cid = np.concatenate(cells)
            count("tiling.off_frame_rows", int((cid == -1).sum()))
            self.hot_share = np.unique(cid, return_counts=True)[1].max() / len(cid)

    def layer_metrics(self, led, prefix_s, stats) -> dict:
        sorts = [op for op in stats["operators"] if op["sub"] and op["parent"] == "Sort"]
        maps = [op for op in sorts if op["name"] == "SortMap"]
        reduces = [op for op in sorts if op["name"] == "SortReduce"]
        # the main range shuffle is the one moving the most bytes
        main = max(maps, key=lambda op: op["out_bytes"]) if maps else None
        red = reduces[maps.index(main)] if main is not None and len(reduces) == len(maps) else None
        return {
            "tiling.off_frame_rows": led.counts.get("tiling.off_frame_rows", 0),
            "spatial_join.sortmerge_s": prefix_s["sortmerge"] - prefix_s["read"],
            "spatial_join.shuffle_bytes": sum(op["out_bytes"] for op in maps),
            "spatial_join.shuffle_task_skew": (
                red["wall_max"] / red["wall_mean"] if red and red["wall_mean"] > 0 else 1.0
            ),
            "spatial_join.hot_point_share": self.hot_share,
            "spatial_join.out_rows": self.want[0],
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FlagshipJoin, DenseZonal, TiledWrite, SkewSortmerge)
}
