"""Guard: integer partial combines go through ``stages/segsum.py``.

No module under ``rsgislib_ray/stages/``, and not ``rsgislib_ray/ops.py``,
may import ``ray.data.aggregate``: Ray's per-group aggregate is the
slow path :func:`rsgislib_ray.stages.segsum.segment_sum` replaces, and
:func:`rsgislib_ray.stages.segsum.combine` is where the one measured
route is decided.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "rsgislib_ray"


def _imports_ray_aggregate(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("ray.data.aggregate") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("ray.data.aggregate"):
                return True
            if node.module == "ray.data" and any(
                a.name == "aggregate" for a in node.names
            ):
                return True
    return False


def test_no_stage_imports_ray_aggregate():
    files = sorted((PKG / "stages").rglob("*.py")) + [PKG / "ops.py"]
    bad = [
        str(p.relative_to(PKG))
        for p in files
        if _imports_ray_aggregate(ast.parse(p.read_text(), str(p)))
    ]
    assert bad == [], f"import ray.data.aggregate; use stages.segsum: {bad}"
