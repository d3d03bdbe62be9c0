"""JSON document formats and the compact command-line algebra specs.

Scalars serialize as strings: decimal residues for F_p, ``"num/den"`` in
lowest terms with positive denominator for the rationals.  Integers are
accepted anywhere a scalar string is, for hand-written inputs.  Either way an
F_p residue must lie in 0..p-1; nothing is reduced mod p.  A document of the
wrong shape (a float or a boolean where an integer belongs, a scalar where a
list or an object belongs) is a ``ValueError`` naming the expected shape;
nothing is truncated.

Algebra documents are either the full structure-constant form::

    {"field": {"p": 3}, "dim": 2, "table": [[["1","0"], ...], ...],
     "unit": ["1", "0"], "label": "..."}

or one of the named constructors::

    {"matrix": {"n": 2}, "field": {"p": 3}}
    {"poly_quotient": {"modulus": ["1", "1", "1"]}, "field": {"p": 2}}
    {"direct_sum": [spec, spec]}
    {"opposite": spec}

The command line additionally accepts the shorthands ``mat:n:p`` (p = 0 for
the rationals), ``polyq:p:c0,c1,...,1``, ``dsum:spec+spec``, ``opp:spec``,
and ``@file`` for a JSON document.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

from .algebra import (
    Algebra,
    Element,
    direct_sum,
    make_algebra,
    matrix_algebra,
    opposite,
    poly_quotient_algebra,
)
from .fields import Field, Poly, QQ, GF
from .mathieu import MathieuVerdict, RadicalCertificate, Witness
from .subspace import Subspace, span


def field_to_dict(f: Field) -> dict:
    return {"p": f.characteristic}


def _expect(value, kind, shape: str):
    """``value`` if it is a ``kind`` and not a bool, else a ValueError naming
    the expected ``shape``; nothing is converted or truncated."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"expected {shape}, got {value!r}")
    return value


def field_from_dict(doc) -> Field:
    if not isinstance(doc, dict) or "p" not in doc:
        raise ValueError("field document must be {'p': characteristic}")
    p = int(_expect(doc["p"], (int, str), "an integer characteristic p"))
    return QQ if p == 0 else GF(p)


def scalar_from(f: Field, item):
    if isinstance(item, str):
        return f.parse(item)
    if isinstance(item, int):
        return f.coerce(item)
    raise ValueError(f"cannot read scalar from {item!r}")


def vector_from(f: Field, items: Sequence) -> tuple:
    return tuple(scalar_from(f, it) for it in _expect(items, (list, tuple), "a list of scalars"))


def vector_to_list(f: Field, coords) -> list[str]:
    return [f.format(c) for c in coords]


# -- algebras --------------------------------------------------------------------


def algebra_to_dict(a: Algebra) -> dict:
    f = a.field
    return {
        "field": field_to_dict(f),
        "dim": a.dim,
        "table": [
            [[f.format(c) for c in vec] for vec in row] for row in a.table
        ],
        "unit": vector_to_list(f, a.unit),
        "label": a.label,
    }


def algebra_from_dict(doc: dict) -> Algebra:
    _expect(doc, dict, "an algebra document (a JSON object)")
    if "matrix" in doc:
        f = field_from_dict(doc.get("field", {"p": 0}))
        n = _expect(doc["matrix"], dict, '{"n": size} under "matrix"')["n"]
        return matrix_algebra(int(_expect(n, (int, str), "an integer matrix size n")), f)
    if "poly_quotient" in doc:
        f = field_from_dict(doc.get("field", {"p": 0}))
        spec = _expect(doc["poly_quotient"], dict, '{"modulus": [...]} under "poly_quotient"')
        return poly_quotient_algebra(Poly(f, vector_from(f, spec["modulus"])))
    if "direct_sum" in doc:
        parts = _expect(doc["direct_sum"], (list, tuple), "a list of two algebra documents")
        if len(parts) != 2:
            raise ValueError(f"direct_sum takes two algebra documents, got {len(parts)}")
        return direct_sum(algebra_from_dict(parts[0]), algebra_from_dict(parts[1]))
    if "opposite" in doc:
        return opposite(algebra_from_dict(doc["opposite"]))
    f = field_from_dict(doc["field"])
    table = [
        [vector_from(f, vec) for vec in _expect(row, (list, tuple), "a table row of vectors")]
        for row in _expect(doc["table"], (list, tuple), "a table (a list of rows)")
    ]
    unit = vector_from(f, doc["unit"])
    return make_algebra(f, table, unit, label=doc.get("label", ""))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_algebra_spec(text: str) -> Algebra:
    """Parse a shorthand spec or ``@file`` JSON document."""
    text = text.strip()
    if text.startswith("@"):
        return algebra_from_dict(_read_json(text[1:]))
    mat = re.fullmatch(r"mat:(\d+):(\d+)", text)
    if mat:
        n, p = int(mat[1]), int(mat[2])
        return matrix_algebra(n, QQ if p == 0 else GF(p))
    polyq = re.fullmatch(r"polyq:(\d+):(.+)", text)
    if polyq:
        p = int(polyq[1])
        f = QQ if p == 0 else GF(p)
        modulus = Poly(f, vector_from(f, polyq[2].split(",")))
        return poly_quotient_algebra(modulus)
    if text.startswith("dsum:") and "+" in text:
        # split at the first "+", so nested sums go on the right
        left, right = text[len("dsum:") :].split("+", 1)
        return direct_sum(parse_algebra_spec(left), parse_algebra_spec(right))
    if text.startswith("opp:"):
        return opposite(parse_algebra_spec(text[len("opp:") :]))
    raise ValueError(
        f"unrecognized algebra spec {text!r}; use mat:n:p, polyq:p:c0,...,1, "
        f"dsum:spec+spec, opp:spec or @file"
    )


# -- elements and subspaces --------------------------------------------------------


def element_to_list(x: Element) -> list[str]:
    return vector_to_list(x.algebra.field, x.coords)


def element_from(a: Algebra, data) -> Element:
    if isinstance(data, dict) and "coords" in data:
        data = data["coords"]
    return a.element(vector_from(a.field, data))


def parse_element_spec(a: Algebra, text: str) -> Element:
    text = text.strip()
    if text.startswith("@"):
        return element_from(a, _read_json(text[1:]))
    return element_from(a, text.split(","))


def subspace_to_dict(v: Subspace) -> dict:
    f = v.ambient.field
    return {
        "ambient": v.ambient.label,
        "basis": [vector_to_list(f, row) for row in v.basis],
    }


def subspace_from_dict(a: Algebra, doc) -> Subspace:
    rows = _expect(doc["basis"] if isinstance(doc, dict) else doc, (list, tuple), "a basis")
    return span(a, [vector_from(a.field, row) for row in rows])


def parse_subspace_spec(a: Algebra, text: str) -> Subspace:
    text = text.strip()
    if text.startswith("@"):
        return subspace_from_dict(a, _read_json(text[1:]))
    rows = [row for row in text.split(";") if row.strip()]
    return subspace_from_dict(a, [row.split(",") for row in rows])


# -- verdicts and certificates -------------------------------------------------------


def witness_to_dict(f: Field, w: Witness) -> dict:
    out = {"e": vector_to_list(f, w.e), "product": vector_to_list(f, w.product)}
    if w.b is not None:
        out["b"] = vector_to_list(f, w.b)
    if w.c is not None:
        out["c"] = vector_to_list(f, w.c)
    return out


def witness_from_dict(f: Field, doc: dict) -> Witness:
    return Witness(
        e=vector_from(f, doc["e"]),
        b=vector_from(f, doc["b"]) if "b" in doc else None,
        c=vector_from(f, doc["c"]) if "c" in doc else None,
        product=vector_from(f, doc["product"]),
    )


def verdict_to_dict(f: Field, verdict: MathieuVerdict) -> dict:
    out = {
        "is_mathieu": verdict.is_mathieu,
        "theta": verdict.theta,
        "method": verdict.method,
    }
    if verdict.witness is not None:
        out["witness"] = witness_to_dict(f, verdict.witness)
    return out


def certificate_to_dict(cert: RadicalCertificate) -> dict:
    f = cert.ideal.ambient.field
    return {
        "N": cert.exponent,
        "ideal_basis": [vector_to_list(f, row) for row in cert.ideal.basis],
    }


def dumps(doc) -> str:
    """Canonical JSON: sorted keys, no whitespace variance."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
