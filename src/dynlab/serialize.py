"""Exact JSON round-tripping for systems, shifts, tables, and reports.

Rationals travel as strings ("1/3", "2"); floats never appear, so a
file either parses to the exact object or fails with a pointer to the
offending entry.  Canonical dumps sort keys and fix indentation, which
makes every emitted report reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .core import as_fraction, build_finite_system
from .errors import SchemaError
from .symbolic import build_sft

__all__ = [
    "canonical_json",
    "decomposition_to_obj",
    "digest_obj",
    "fraction_str",
    "modulus_csv",
    "modulus_table_to_obj",
    "obj_to_sft",
    "obj_to_system",
    "parse_system_obj",
    "sft_to_obj",
    "system_to_obj",
]


def fraction_str(value):
    """Canonical exact form: "p/q", or plain "p" for integers."""
    return str(Fraction(value))


def _frac(value):
    return None if value is None else fraction_str(value)


def _expect(cond, pointer, detail):
    if not cond:
        raise SchemaError(pointer, detail)


def _known(name, known):
    """Is ``name`` one of the strings ``known``?  A JSON list or object
    is not, and is not looked up: it has no hash."""
    return isinstance(name, str) and name in known


def _parse_fraction(value, pointer):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(pointer, f"expected an exact rational, got {value!r}")
    try:
        return as_fraction(value)
    except (ValueError, TypeError) as e:
        raise SchemaError(pointer, str(e)) from None


def system_to_obj(sys):
    # each distinct distance formatted once, the rows read through rank
    text = [fraction_str(d) for d in sys.distance_values]
    obj = {
        "kind": "finite",
        "points": list(sys.points),
        "dist": [[text[r] for r in row] for row in sys.rank],
        "map": [sys.points[j] for j in sys.fmap],
        "invertible": sys.invertible,
    }
    if sys.relation is not None:
        obj["relation"] = [[sys.points[j] for j in row]
                           for row in sys.relation]
    return obj


def obj_to_system(obj):
    _expect(isinstance(obj, dict), "", "system file must be a JSON object")
    _expect(obj.get("kind", "finite") == "finite", "/kind",
            'expected kind "finite"')
    points = obj.get("points")
    _expect(isinstance(points, list) and points, "/points",
            "non-empty list required")
    _expect(all(isinstance(p, str) for p in points), "/points",
            "point identifiers must be strings")
    n = len(points)

    dist = obj.get("dist")
    _expect(isinstance(dist, list) and len(dist) == n, "/dist",
            f"{n} rows required")
    matrix = []
    for i, row in enumerate(dist):
        _expect(isinstance(row, list) and len(row) == n, f"/dist/{i}",
                f"{n} entries required")
        matrix.append([_parse_fraction(v, f"/dist/{i}/{j}")
                       for j, v in enumerate(row)])

    fmap = obj.get("map")
    _expect(isinstance(fmap, list) and len(fmap) == n, "/map",
            f"list of {n} point identifiers required")
    known = set(points)
    for i, target in enumerate(fmap):
        _expect(_known(target, known), f"/map/{i}",
                f"unknown point {target!r}")

    relation = obj.get("relation")
    if relation is not None:
        _expect(isinstance(relation, list) and len(relation) == n,
                "/relation", f"list of {n} successor lists required")
        for i, row in enumerate(relation):
            _expect(isinstance(row, list) and row, f"/relation/{i}",
                    "non-empty successor list required")
            for j, target in enumerate(row):
                _expect(_known(target, known), f"/relation/{i}/{j}",
                        f"unknown point {target!r}")

    invertible = obj.get("invertible")
    _expect(invertible is None or isinstance(invertible, bool),
            "/invertible", "must be a boolean when present")
    # duplicate names, metric axioms, and bijectivity are re-validated
    # (and reported) by the system builder itself
    return build_finite_system(points, matrix, fmap,
                               invertible=invertible, relation=relation)


def sft_to_obj(sft):
    return {
        "kind": "sft",
        "alphabet": [str(a) for a in sft.alphabet],
        "edges": sorted([str(a), str(b)] for a, b in sft.edges),
    }


def obj_to_sft(obj):
    _expect(isinstance(obj, dict), "", "shift file must be a JSON object")
    _expect(obj.get("kind") == "sft", "/kind", 'expected kind "sft"')
    alphabet = obj.get("alphabet")
    _expect(isinstance(alphabet, list) and alphabet, "/alphabet",
            "non-empty list required")
    _expect(all(isinstance(a, str) for a in alphabet), "/alphabet",
            "letters must be strings")
    edges = obj.get("edges")
    _expect(isinstance(edges, list), "/edges", "list of letter pairs required")
    known = set(alphabet)
    pairs = []
    for i, e in enumerate(edges):
        _expect(isinstance(e, list) and len(e) == 2, f"/edges/{i}",
                "a pair [from, to] required")
        _expect(_known(e[0], known) and _known(e[1], known), f"/edges/{i}",
                "edge uses letters outside the alphabet")
        pairs.append((e[0], e[1]))
    return build_sft(alphabet, pairs)


def parse_system_obj(obj):
    """Dispatch on "kind": a finite system or an edge shift."""
    _expect(isinstance(obj, dict), "", "system file must be a JSON object")
    kind = obj.get("kind", "finite")
    if kind == "finite":
        return obj_to_system(obj)
    if kind == "sft":
        return obj_to_sft(obj)
    raise SchemaError("/kind", f"unknown kind {kind!r}")


def modulus_table_to_obj(table):
    rows = []
    for eps, payload in table.rows:
        if payload is None:
            entry = None
        elif isinstance(payload, tuple):
            n, delta = payload
            entry = {"gap": n, "delta": fraction_str(delta)}
        else:
            entry = {"delta": fraction_str(payload)}
        rows.append({"epsilon": fraction_str(eps), "best": entry})
    return {"property": table.prop, "rows": rows}


def modulus_csv(table):
    """CSV form of a modulus table, exact cells, empty when unpopulated."""
    spec_style = table.prop.startswith("spec-")
    lines = ["epsilon,gap,delta" if spec_style else "epsilon,delta"]
    for eps, payload in table.rows:
        if payload is None:
            lines.append(fraction_str(eps) + (",," if spec_style else ","))
        elif isinstance(payload, tuple):
            n, delta = payload
            lines.append(f"{fraction_str(eps)},{n},{fraction_str(delta)}")
        else:
            lines.append(f"{fraction_str(eps)},{fraction_str(payload)}")
    return "\n".join(lines) + "\n"


def decomposition_to_obj(dec):
    pieces = []
    for piece in dec.pieces:
        pieces.append({
            "points": list(piece.points),
            "period": piece.period,
            "parts": [list(part) for part in piece.parts],
            "mixing": list(piece.mixing),
            "stable_set_parts": (None if piece.cp_parts is None
                                 else [list(p) for p in piece.cp_parts]),
            "routes_agree": piece.routes_agree,
        })
    report = dec.report
    return {
        "pieces": pieces,
        "report": {
            "invertible": report.invertible,
            "shadowing_populated": report.shadowing_populated,
            "strong_constant": fraction_str(report.strong_constant),
            "strong_fails_at": [fraction_str(d)
                                for d in report.strong_fails_at],
            "passes": report.passes,
        },
    }


def canonical_json(obj):
    """Deterministic rendering: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def digest_obj(obj):
    """Stable content digest of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()