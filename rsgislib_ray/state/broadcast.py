"""Per-worker-process cache for broadcast (``ray.put``) state.

Stateless ``map_batches`` TASKS running in pre-warmed Ray worker
processes call :func:`cached` with the ObjectRef; the first call in
each process materializes the value (and optionally builds derived
state with ``build``), later calls are dict hits. This gives the
actor-pool pattern's build-once-per-worker amortization WITHOUT the
actor pool's fresh-process spawn + import latency per execution, and
without capping parallelism at the pool size.

One shape per ref: the cache keys on the ref alone, so whichever
``build`` reads a ref first decides what every later reader of that
ref in the process gets. A ref must therefore always be read with the
same ``build`` (or always without one). Zone layers keep to this by
shipping their index inside the broadcast value
(:func:`rsgislib_ray.stages.spatial_join.broadcast_zones`, which also
reuses one ref for equal zone tables) and being read as bare
``cached(ref)``.
"""

from __future__ import annotations

from typing import Any, Callable

import ray

from collections import OrderedDict

_CACHE: OrderedDict = OrderedDict()
_MAX_ENTRIES = 4  # long sessions run many pipelines; evict old state


def cached_multi(refs, build: Callable[[list], Any] | None = None):
    """Like :func:`cached` but over a LIST of ObjectRefs (e.g. the block
    refs of a materialized Dataset via ``to_arrow_refs()``): fetches all
    blocks once per process, optionally post-processes with ``build``
    (e.g. concat + sort). Lets a distributed aggregate's RESULT be
    broadcast without ever landing on the driver."""
    key = tuple(r.hex() if hasattr(r, "hex") else id(r) for r in refs)
    if key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key]
    vals = ray.get(list(refs))
    out = build(vals) if build is not None else vals
    _CACHE[key] = out
    while len(_CACHE) > _MAX_ENTRIES:
        _CACHE.popitem(last=False)
    return out


def cached(ref, build: Callable[[Any], Any] | None = None):
    """Return (and memoize, LRU-capped) the broadcast value for this
    process. ``build`` post-processes the fetched value once per
    process (e.g. ``lambda b: (b, STRtree(b))``); every reader of one
    ref must pass the same ``build`` (see the module docstring).
    """
    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    if key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key]
    val = ray.get(ref) if hasattr(ref, "hex") else ref
    out = build(val) if build is not None else val
    _CACHE[key] = out
    while len(_CACHE) > _MAX_ENTRIES:
        _CACHE.popitem(last=False)
    return out
