"""In-memory span and count ledger, written out as JSON when a run ends.

A span records name, start, end, the span that caused it (its parent)
and the run id. Counts are recorded at the same boundaries. A span's
self time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Ledger:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id))
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> list[float]:
        """Self time of every span, by index: duration minus the union
        of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cur_start = cur_end = None
            for c in sorted(children.get(i, []), key=lambda c: c.start):
                if cur_end is None or c.start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = c.start, c.end
                else:
                    cur_end = max(cur_end, c.end)
            if cur_end is not None:
                covered += cur_end - cur_start
            out.append((s.end - s.start) - covered)
        return out

    def by_root(self, root: str) -> list[dict[str, float]]:
        """For each span named ``root``: summed self time per span name
        over the root and all its descendants."""
        st = self.self_times()
        rounds: dict[int, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            j = i
            while j is not None and self.spans[j].name != root:
                j = self.spans[j].parent
            if j is not None:
                r = rounds.setdefault(j, {})
                r[s.name] = r.get(s.name, 0.0) + st[i]
        return [rounds[k] for k in sorted(rounds)]

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": [asdict(s) for s in self.spans],
                    "self_s": self.self_times(),
                    "counts": self.counts,
                    **extra,
                },
                f,
                indent=1,
            )
