import json

import pytest

from mathieu_kit.algebra import matrix_algebra, opposite, poly_quotient_algebra
from mathieu_kit.errors import FieldMismatch
from mathieu_kit.fields import GF, QQ, Poly
from mathieu_kit.mathieu import decide_mathieu, verify_witness
from mathieu_kit.serialize import (
    algebra_from_dict,
    algebra_to_dict,
    dumps,
    element_from,
    element_to_list,
    parse_algebra_spec,
    parse_element_spec,
    parse_subspace_spec,
    subspace_from_dict,
    subspace_to_dict,
    verdict_to_dict,
    witness_from_dict,
    witness_to_dict,
)
from mathieu_kit.subspace import Sidedness, span

F2, F3 = GF(2), GF(3)


def test_algebra_document_round_trip():
    for a in [
        matrix_algebra(2, F3),
        poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 1])),
        opposite(matrix_algebra(2, F2)),
        matrix_algebra(2, QQ),
    ]:
        doc = algebra_to_dict(a)
        back = algebra_from_dict(json.loads(json.dumps(doc)))
        assert back == a  # structural: field, table, unit


def test_named_constructor_documents():
    doc = {"matrix": {"n": 2}, "field": {"p": 3}}
    assert algebra_from_dict(doc) == matrix_algebra(2, F3)
    doc = {"poly_quotient": {"modulus": ["1", "1", "1"]}, "field": {"p": 2}}
    assert algebra_from_dict(doc) == poly_quotient_algebra(Poly.from_ints(F2, [1, 1, 1]))
    doc = {
        "direct_sum": [
            {"matrix": {"n": 1}, "field": {"p": 2}},
            {"matrix": {"n": 1}, "field": {"p": 2}},
        ]
    }
    assert algebra_from_dict(doc).dim == 2
    doc = {"opposite": {"matrix": {"n": 2}, "field": {"p": 2}}}
    assert algebra_from_dict(doc) == opposite(matrix_algebra(2, F2))


def test_shorthand_specs():
    assert parse_algebra_spec("mat:2:3") == matrix_algebra(2, F3)
    assert parse_algebra_spec("mat:2:0") == matrix_algebra(2, QQ)
    assert parse_algebra_spec("polyq:2:1,1,1").dim == 2
    assert parse_algebra_spec("dsum:mat:1:2+mat:1:2").dim == 2
    assert parse_algebra_spec("dsum:mat:1:2+dsum:mat:1:2+mat:1:2").dim == 3
    assert parse_algebra_spec("opp:mat:2:2") == opposite(matrix_algebra(2, F2))
    with pytest.raises(ValueError):
        parse_algebra_spec("wat:1:2")
    # sums nest to the right; a left-nested inner sum has no top-level "+"
    with pytest.raises(ValueError, match="unrecognized algebra spec"):
        parse_algebra_spec("dsum:dsum:mat:1:2+mat:1:2+mat:1:2")
    # mat:/polyq: specs with the wrong number or kind of parts
    for bad in ("mat:1:2+mat:1:2", "mat:2", "polyq:5", "mat:2:x"):
        with pytest.raises(ValueError, match="unrecognized algebra spec"):
            parse_algebra_spec(bad)


def test_integer_residues_are_not_reduced():
    a = matrix_algebra(2, GF(5))
    for data in (["7", "0", "0", "0"], [0, -1, 0, 0], [0, 0, 0, 12]):
        with pytest.raises(FieldMismatch):
            element_from(a, data)


def test_element_and_subspace_round_trip():
    a = matrix_algebra(2, QQ)
    x = element_from(a, ["1/2", "0/1", 3, "-2/3"])
    assert element_from(a, element_to_list(x)) == x
    assert parse_element_spec(a, "1,0,0,1") == a.one()

    b = matrix_algebra(2, F3)
    v = span(b, [[1, 0, 0, 2], [0, 1, 0, 0]])
    doc = subspace_to_dict(v)
    assert doc["ambient"] == b.label
    assert subspace_from_dict(b, json.loads(json.dumps(doc))) == v
    assert parse_subspace_spec(b, "1,0,0,2;0,1,0,0") == v


def test_verdict_and_witness_round_trip():
    a = matrix_algebra(2, F2)
    v = span(a, [[1, 0, 0, 0]])
    verdict = decide_mathieu(v, Sidedness.LEFT)
    doc = verdict_to_dict(a.field, verdict)
    assert doc["is_mathieu"] is False and doc["theta"] == "left"
    replay = witness_from_dict(a.field, json.loads(json.dumps(doc["witness"])))
    assert verify_witness(v, Sidedness.LEFT, replay)


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
