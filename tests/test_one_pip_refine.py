"""Guard: one point-in-polygon refine.

Candidate (point, zone) pairs are refined by :meth:`ZoneSet.refine
<rsgislib_ray.stages.spatial_join.ZoneSet.refine>`: the half-open
rectangle test, then the ray-crossing PIP of
:func:`rsgislib_ray.functions.geom.pip_pairs` for the zones that are
not rectangles. The broadcast join, the zonal probes and the sort-merge
join all go through it, so no other function under ``rsgislib_ray/``
may call ``pip_pairs``.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "rsgislib_ray"


def _pip_callers(tree: ast.AST) -> list[str]:
    """Qualified name of the function around each ``pip_pairs`` call
    (``<module>`` outside any function)."""
    out = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "pip_pairs":
                    out.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return out


def test_pip_pairs_has_one_caller():
    calls = [
        f"{p.relative_to(PKG)}:{fn}"
        for p in sorted(PKG.rglob("*.py"))
        for fn in _pip_callers(ast.parse(p.read_text(), str(p)))
    ]
    assert calls == ["stages/spatial_join.py:ZoneSet.refine"], calls
