"""parse_geom_spans: malformed geometry spans fail loudly by doc_id."""

import pyarrow as pa
import pytest

from rsgislib_ray.stages.spans import parse_geom_spans


def _docs(kind_texts):
    spans = [
        [{"kind": kind, "text": text, "media_ref": "", "offset": 0}]
        for kind, text in kind_texts
    ]
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(spans))]),
            "spans": pa.array(spans),
        }
    )


def test_point_span_token_count_mismatch_raises():
    """A 3-token point span used to shift its stray coordinate into the
    next doc: ["1 2 9", "3", "5 6"] parsed doc d1 as (9, 3)."""
    docs = _docs([("point", "1 2 9"), ("point", "3"), ("point", "5 6")])
    with pytest.raises(ValueError, match=r"doc_id d0: point span '1 2 9'"):
        parse_geom_spans(docs)
    with pytest.raises(ValueError, match=r"doc_id d0: point span '3'"):
        parse_geom_spans(_docs([("point", "3"), ("point", "5 6")]))


def test_poly_span_odd_token_count_raises():
    docs = _docs([("poly", "0 0,4 0,4 4"), ("poly", "0 0,4 0,4")])
    with pytest.raises(ValueError, match=r"doc_id d1: poly span '0 0,4 0,4'"):
        parse_geom_spans(docs)


def test_point_span_non_numeric_token_names_doc():
    """A non-numeric token used to surface as a bare ArrowInvalid from
    the cast, naming no document."""
    docs = _docs([("point", "1 2"), ("text", "hi"), ("point", "a b"), ("point", "5 6")])
    with pytest.raises(ValueError, match=r"doc_id d2: point span 'a b'"):
        parse_geom_spans(docs)


def test_poly_span_non_numeric_token_names_doc():
    docs = _docs([("poly", "0 0,4 0,4 4"), ("text", "t"), ("poly", "1 2,x 4")])
    with pytest.raises(ValueError, match=r"doc_id d2: poly span '1 2,x 4'") as ei:
        parse_geom_spans(docs)
    assert isinstance(ei.value.__cause__, pa.ArrowInvalid)


def test_well_formed_spans_parse():
    out = parse_geom_spans(
        _docs([("point", "1 2"), ("poly", "0 0,4 0,4 6"), ("text", "hi"), ("point", "5 6")])
    )
    assert out["geom_kind"].to_pylist() == ["point", "poly", "none", "point"]
    assert out["x"].to_pylist()[:2] == [1.0, 2.0]
    assert out["y"].to_pylist()[:2] == [2.0, 3.0]
    assert out["x"].to_pylist()[3] == 5.0 and out["y"].to_pylist()[3] == 6.0
    assert out["ring_xy"].to_pylist()[1] == [0.0, 0.0, 4.0, 0.0, 4.0, 6.0]
