"""Guard: grid buckets keep a run table, not a key per entry.

A cell's entries are found with one ``searchsorted`` over the occupied
cells (:func:`rsgislib_ray.functions.arrayops.run_lookup` over a
:func:`~rsgislib_ray.functions.arrayops.run_table` in the kNN target
index, ``CellBucketIndex.parts`` over its run table), so no module under
``rsgislib_ray/`` may read or set a ``.sorted_key`` attribute: the
per-entry key array it named is gone from ``CellBucketIndex`` and the
kNN target index.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "rsgislib_ray"


def _sorted_key_lines(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "sorted_key"
    ]


def test_no_per_entry_sorted_key():
    bad = [
        f"{p.relative_to(PKG)}:{line}"
        for p in sorted(PKG.rglob("*.py"))
        for line in _sorted_key_lines(ast.parse(p.read_text(), str(p)))
    ]
    assert bad == [], f".sorted_key per-entry keys; use arrayops.run_lookup: {bad}"
