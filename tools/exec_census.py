"""Ray Data execution census of registry queries.

Runs each named ``queries()`` entry (all of them when none is named)
the way ``tools/check_contract.py`` runs it, and prints one JSON line
per query:

- ``executions``: how many Ray Data executions it started;
- ``all_to_all``: per execution, the names of its all-to-all operators
  (``Sort``, ``Repartition``, ``Aggregate``, ``Join``, ...), an empty
  list for a map-only one;
- ``tasks``: the plain tasks the engine started itself
  (``stages/partition.py``), by kind: ``map_blocks``, ``split`` and
  ``reduce`` — work that runs outside any Ray Data execution;
- ``wall_s``: the query's wall time, result collection included;
- ``error``: the exception, when the query raised.

A closing ``{"total": ...}`` line sums executions, executions that
hold a ``Sort``, a ``Join`` or a ``Repartition``, engine tasks and
wall.
Usage (an ``SF_DIR`` that is not a directory exits 2 with this line,
before Ray starts):

    python tools/exec_census.py SF_DIR [name ...] > census.jsonl
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# the engine's plain task functions, by the kind they are counted as
TASK_KINDS = {"_map_task": "map_blocks", "_split_task": "split", "_reduce_task": "reduce"}


def _all_to_all(dag) -> list[str]:
    """Names of the all-to-all operators in a physical DAG."""
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator,
    )
    from ray.data._internal.execution.operators.hash_shuffle import (
        HashShufflingOperatorBase,
    )

    names, todo, seen = [], [dag], set()
    while todo:
        op = todo.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if isinstance(op, (AllToAllOperator, HashShufflingOperatorBase)):
            names.append(op.name)
        todo.extend(op.input_dependencies)
    return sorted(names)


USAGE = "usage: python tools/exec_census.py SF_DIR [name ...]"


def main() -> int:
    if len(sys.argv) < 2 or not os.path.isdir(sys.argv[1]):
        print(USAGE, file=sys.stderr)
        return 2
    sf_dir = os.path.abspath(sys.argv[1])
    only = sys.argv[2:]
    # workers import the engine from the working directory: run from
    # this checkout, as check_contract does
    os.chdir(REPO_ROOT)
    sys.path.insert(0, str(REPO_ROOT))

    import ray
    from ray.data import DataContext
    from ray.data._internal.execution.streaming_executor import StreamingExecutor
    from ray.remote_function import RemoteFunction

    from check_contract import to_df

    ray.init(
        address="local",
        num_cpus=8,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        # keep stdout to the JSON lines: no worker or raylet log echo
        log_to_driver=False,
    )
    DataContext.get_current().enable_progress_bars = False
    runs: list[list[str]] = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *a, **k):
        runs.append(_all_to_all(dag))
        return execute(self, dag, *a, **k)

    StreamingExecutor.execute = counted
    tasks = dict.fromkeys(TASK_KINDS.values(), 0)
    submit = RemoteFunction._remote

    def submitted(self, *a, **k):
        fn = self._function
        if fn.__module__ == "rsgislib_ray.stages.partition":
            tasks[TASK_KINDS[fn.__name__]] += 1
        return submit(self, *a, **k)

    RemoteFunction._remote = submitted

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    total = {
        "queries": 0,
        "executions": 0,
        "sort_executions": 0,
        "join_executions": 0,
        "repartition_executions": 0,
        "tasks": dict(tasks),
        "wall_s": 0.0,
    }
    try:
        for name in only or list(qs):
            runs.clear()
            tasks.update(dict.fromkeys(tasks, 0))
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    to_df(qs[name](sf_dir))
            except Exception as e:  # noqa: BLE001
                error = f"{type(e).__name__}: {e}"
            wall = time.perf_counter() - t0
            print(
                json.dumps(
                    {
                        "query": name,
                        "executions": len(runs),
                        "all_to_all": runs,
                        "tasks": tasks,
                        "wall_s": round(wall, 3),
                        "error": error,
                    }
                ),
                flush=True,
            )
            total["queries"] += 1
            total["executions"] += len(runs)
            total["sort_executions"] += sum("Sort" in r for r in runs)
            total["join_executions"] += sum(
                any(n.startswith("Join") for n in r) for r in runs
            )
            total["repartition_executions"] += sum(
                any(n.startswith("Repartition") for n in r) for r in runs
            )
            for kind, n in tasks.items():
                total["tasks"][kind] += n
            total["wall_s"] += wall
    finally:
        ray.shutdown()
    total["wall_s"] = round(total["wall_s"], 3)
    print(json.dumps({"total": total}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
