"""Guard against dead code regrowing in the package.

Every top-level def or class of ``rsgislib_ray`` must be referenced
somewhere outside its own body in the code that ships: the package,
``perfbench/``, ``tools/``, ``bench.py`` or ``__ray_entry__.py``.
References from tests do not count. A decorated def counts as reached
(the decorator holds it, e.g. ``@register`` queries).

``TEST_ONLY`` lists the defs that only tests reach today. Each one is
either deleted together with its test or given a caller; the list only
shrinks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = {
    "are_endmembers_equal",
    "cell_bounds",
    "corr_feature_select",
    "covering_cells_bbox",
    "fft_fusion_reference",
    "file_digest",
    "images_equal",
    "isfa_fit",
    "ivf_topk",
    "mad_fit",
    "mutual_information_nats",
    "neighbors",
    "no_four_cocircular",
    "polygon_symdiff_pieces",
    "polygon_union_pieces",
    "pq_topk",
    "read_checkpointed",
    "read_endmembers_mtxt",
    "ring_cells",
    "tile_path_from_quadkeys",
    "verify_pairs_jaccard",
    "write_endmembers_mtxt",
    "write_table_arrow",
}


def _shipped_files() -> tuple[list[Path], list[Path]]:
    pkg = sorted((ROOT / "rsgislib_ray").rglob("*.py"))
    other = [ROOT / "bench.py", ROOT / "__ray_entry__.py"]
    for d in ("perfbench", "tools"):
        other += [
            p
            for p in sorted((ROOT / d).rglob("*.py"))
            if "tests" not in p.relative_to(ROOT).parts
        ]
    return pkg, other


def _scan(path: Path, defs: dict | None, refs: set) -> None:
    """Add the file's undecorated top-level defs to ``defs`` and every
    name it mentions (names, attributes, imports, string constants) to
    ``refs``, leaving out a def's mentions of itself."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        owner = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
            if defs is not None and not node.decorator_list:
                defs.setdefault(owner, f"{path.relative_to(ROOT)}:{node.lineno}")
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.alias):
                name = sub.name.rsplit(".", 1)[-1]
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                name = sub.value
            else:
                continue
            if name != owner:
                refs.add(name)


def test_every_package_def_is_referenced_by_shipped_code():
    pkg, other = _shipped_files()
    defs: dict[str, str] = {}
    refs: set[str] = set()
    for p in pkg:
        _scan(p, defs, refs)
    for p in other:
        _scan(p, None, refs)
    unreferenced = {n: loc for n, loc in defs.items() if n not in refs}
    dead = {n: loc for n, loc in unreferenced.items() if n not in TEST_ONLY}
    assert not dead, f"defs nothing outside tests references: {dead}"
    stale = sorted(TEST_ONLY - set(unreferenced))
    assert not stale, f"TEST_ONLY entries now reached or gone: {stale}"
