"""High-water resident memory of the benchmark process plus its Ray workers.

A background thread samples ``/proc`` every ``interval`` seconds. Each
sample sums, over this process and every descendant process whose command
line starts with ``ray::`` (a Ray worker), the private and file-backed
resident pages (``VmRSS`` minus ``RssShmem``). Shared-memory pages of
the object store are left out, because every process that maps them
would otherwise count them again.
"""

from __future__ import annotations

import os
import threading


def _status_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            fields = dict(line.split(":", 1) for line in f if ":" in line)
    except OSError:
        return 0
    kb = lambda k: int(fields.get(k, "0 kB").split()[0])  # noqa: E731
    return kb("VmRSS") - kb("RssShmem")


def _children() -> dict[int, list[int]]:
    """Parent pid -> pids of its live (not zombie) children."""
    out: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError, ValueError):
            continue
        if state != "Z":
            out.setdefault(int(ppid), []).append(int(d))
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


def descendants(root: int | None = None) -> list[int]:
    """Live processes descended from ``root`` (default: this process)."""
    kids = _children()
    todo = [root or os.getpid()]
    found = []
    while todo:
        for c in kids.get(todo.pop(), []):
            todo.append(c)
            found.append(c)
    return found


def worker_pids() -> list[int]:
    """Ray worker processes descended from this process."""
    return [p for p in descendants() if _is_ray_worker(p)]


class PeakRss:
    """Context manager: ``peak_mb`` holds the highest sampled sum."""

    def __init__(self, interval: float = 0.05, rescan: float = 0.5):
        self.interval = interval
        self.rescan = rescan
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pids: list[int] = []
        since_scan = self.rescan
        while True:
            if since_scan >= self.rescan:
                pids = [os.getpid(), *worker_pids()]
                since_scan = 0.0
            kb = sum(_status_kb(p) for p in pids)
            self.peak_mb = max(self.peak_mb, kb / 1024.0)
            if self._stop.wait(self.interval):
                return
            since_scan += self.interval

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
