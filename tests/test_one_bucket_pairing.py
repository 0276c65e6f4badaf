"""Guard: the dedup pair stages pair whole buckets on the hash plan.

``minhash_lsh_candidates``, ``simhash_near_dup_pairs``,
``kgram_duplicate_pairs`` and ``verify_pairs_jaccard_ds`` send their
rows through ``partition.hash_reduce`` keyed on the bucket, the gram or
the pair id, so one reduce task holds each key's rows whole. None of
them may call ``.sort(``, ``.groupby(``, ``.map_groups(`` or
``.union(``: those are the Ray Data sort, the per-group pandas stitch
and the union that made up for a bucket split across blocks.
"""

import ast
from pathlib import Path

DEDUP = Path(__file__).resolve().parents[1] / "rsgislib_ray" / "stages" / "dedup.py"
FUNCTIONS = {
    "minhash_lsh_candidates",
    "simhash_near_dup_pairs",
    "kgram_duplicate_pairs",
    "verify_pairs_jaccard_ds",
}
BANNED = {"sort", "groupby", "map_groups", "union"}


def _violations(source: str) -> tuple[set, list]:
    found, bad = set(), []
    for node in ast.parse(source, str(DEDUP)).body:
        if isinstance(node, ast.FunctionDef) and node.name in FUNCTIONS:
            found.add(node.name)
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in BANNED
                ):
                    bad.append(f"{node.name}:{sub.lineno}: .{sub.func.attr}(")
    return found, bad


def test_dedup_pair_stages_use_no_sort_groupby_or_union():
    found, bad = _violations(DEDUP.read_text())
    assert found == FUNCTIONS, f"missing from dedup.py: {FUNCTIONS - found}"
    assert bad == [], f"pair whole buckets with partition.hash_reduce: {bad}"


def test_guard_sees_a_banned_call():
    src = "def kgram_duplicate_pairs(ds):\n    return ds.groupby('g').map_groups(f)\n"
    _, bad = _violations(src)
    assert [b.split(": ")[1] for b in bad] == [".map_groups(", ".groupby("]
