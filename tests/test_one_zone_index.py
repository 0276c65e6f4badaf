"""Guard: a zone layer holds one index.

``ZoneSet.index`` is the layer's one ``CellBucketIndex``; each of its
cell runs holds the interior entries first and the boundary entries
after, so no interior / boundary copy of it exists. The code that ships
(the package, ``tools/``, ``perfbench/``, ``bench.py`` and
``__ray_entry__.py``) may not name the copies or the code that made
them: a ``.cover`` attribute, ``CellBucketIndex.split``, ``_subset``.
The one chunked probe, ``ZoneSet._match_points_chunk``, is private to
``stages/spatial_join.py``: other modules probe through
``match_points`` and ``boundary_matches`` and do not read the index's
layout.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE_HOME = ROOT / "rsgislib_ray" / "stages" / "spatial_join.py"


def _shipped() -> list[Path]:
    files = [ROOT / "bench.py", ROOT / "__ray_entry__.py"]
    for d in ("rsgislib_ray", "tools", "perfbench"):
        files += sorted((ROOT / d).rglob("*.py"))
    return [p for p in files if "tests" not in p.relative_to(ROOT).parts]


def _names(node: ast.AST) -> list[str]:
    """The names a node uses or defines that this guard is about."""
    if isinstance(node, ast.Attribute):
        if node.attr == "split":
            on_class = isinstance(node.value, ast.Name) and node.value.id == "CellBucketIndex"
            return ["CellBucketIndex.split"] if on_class else []
        watched = ("cover", "_subset", "_match_points_chunk")
        return [node.attr] if node.attr in watched else []
    if isinstance(node, ast.Name) and node.id == "_subset":
        return ["_subset"]
    if isinstance(node, ast.ClassDef) and node.name == "CellBucketIndex":
        return [
            "CellBucketIndex.split"
            for d in node.body
            if isinstance(d, ast.FunctionDef) and d.name == "split"
        ]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return ["_subset"] if node.name == "_subset" else []
    return []


def _violations(path: Path, source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source, str(path))):
        for name in _names(node):
            if name == "_match_points_chunk" and path == PROBE_HOME:
                continue
            out.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return out


def test_one_zone_index():
    bad = [v for p in _shipped() for v in _violations(p, p.read_text())]
    assert bad == [], f"a second zone index or a probe outside ZoneSet: {bad}"


def test_guard_catches_each_form():
    """Each form the guard is about is caught, in any module but the
    probe's home for ``_match_points_chunk``."""
    elsewhere = ROOT / "rsgislib_ray" / "stages" / "zonal.py"
    for src in (
        "inner, edge = zones.cover",
        "CellBucketIndex.split(idx, b, r)",
        "class CellBucketIndex:\n    def split(self, b, r): pass",
        "def _subset(keep): pass",
        "out = self._subset(keep)",
        "zones._match_points_chunk(idx, px, py)",
    ):
        assert _violations(elsewhere, src), src
    assert _violations(PROBE_HOME, "self._match_points_chunk(i, x, y, False)") == []
    assert _violations(elsewhere, "text.split(',')") == []
