"""Guard: halo-duplicated tiles go through ``raster.halo_tiles``.

No module under ``rsgislib_ray/`` may group by ``"tile_id"`` with a
Ray Data ``groupby`` (tiles run on the engine's partition tasks, through
:func:`rsgislib_ray.stages.raster.halo_tiles` or
:func:`rsgislib_ray.stages.partition.group_apply`), and only
``stages/raster.py`` may import the fan-out ``_halo_dup_fn``: how a
pixel is copied into tiles and how a tile finds its frame live there.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "rsgislib_ray"


def _files():
    return sorted(PKG.rglob("*.py"))


def _groups_by_tile_id(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "groupby"
        ):
            args = list(node.args) + [k.value for k in node.keywords]
            for a in args:
                for c in ast.walk(a):
                    if isinstance(c, ast.Constant) and c.value == "tile_id":
                        return True
    return False


def _imports_halo_dup(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.ImportFrom)
        and any(a.name == "_halo_dup_fn" for a in node.names)
        for node in ast.walk(tree)
    )


def test_no_groupby_tile_id():
    bad = [
        str(p.relative_to(PKG))
        for p in _files()
        if _groups_by_tile_id(ast.parse(p.read_text(), str(p)))
    ]
    assert bad == [], f'groupby("tile_id"); use raster.halo_tiles: {bad}'


def test_halo_dup_fn_private_to_raster():
    bad = [
        str(p.relative_to(PKG))
        for p in _files()
        if p != PKG / "stages" / "raster.py"
        and _imports_halo_dup(ast.parse(p.read_text(), str(p)))
    ]
    assert bad == [], f"_halo_dup_fn imported outside stages/raster.py: {bad}"
