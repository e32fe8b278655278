"""Round trips, schema pointers, and deterministic rendering."""

import json
from fractions import Fraction

import pytest

from dynlab.errors import MetricViolation, SchemaError
from dynlab.gallery import build_myex, build_xpq
from dynlab.recurrence import spectral_decomposition
from dynlab.serialize import (
    canonical_json,
    decomposition_to_obj,
    digest_obj,
    fraction_str,
    modulus_csv,
    modulus_table_to_obj,
    obj_to_sft,
    obj_to_system,
    parse_system_obj,
    sft_to_obj,
    system_to_obj,
)
from dynlab.shadowing import ModulusTable, modulus_table
from dynlab.specification import modulus_table_for_spec
from dynlab.symbolic import window_system

from helpers import random_system, stem_into_cycle


def test_fraction_rendering():
    assert fraction_str(Fraction(1, 3)) == "1/3"
    assert fraction_str(Fraction(4, 2)) == "2"
    assert fraction_str(0) == "0"


def test_finite_system_round_trip():
    for sys in (random_system(3, 5, invertible=True), stem_into_cycle(),
                build_myex(5, 2).system):
        back = obj_to_system(system_to_obj(sys))
        assert back.points == sys.points
        assert back.dist == sys.dist
        assert back.fmap == sys.fmap
        assert back.invertible == sys.invertible
        assert back.relation == sys.relation


def test_window_system_round_trip_keeps_the_relation():
    win = window_system(build_xpq(3, 2), 1)
    back = obj_to_system(system_to_obj(win))
    assert back.relation == win.relation
    assert back.dist == win.dist


def test_schema_pointers():
    good = system_to_obj(stem_into_cycle())
    with pytest.raises(SchemaError) as e:
        obj_to_system({**good, "map": None})
    assert e.value.pointer == "/map"
    with pytest.raises(SchemaError) as e:
        obj_to_system({**good, "map": ["s1", "z", "nope"]})
    assert e.value.pointer == "/map/2"
    bad_dist = [row[:] for row in good["dist"]]
    bad_dist[1][2] = 0.5  # floats are rejected: rationals travel as strings
    with pytest.raises(SchemaError) as e:
        obj_to_system({**good, "dist": bad_dist})
    assert e.value.pointer == "/dist/1/2"
    for bad in ("one half", "1e-99999999", "1e-4300"):
        bad_dist[1][2] = bad
        with pytest.raises(SchemaError) as e:
            obj_to_system({**good, "dist": bad_dist})
        assert e.value.pointer == "/dist/1/2"
    with pytest.raises(SchemaError) as e:
        obj_to_system({**good, "points": []})
    assert e.value.pointer == "/points"
    with pytest.raises(SchemaError) as e:
        parse_system_obj({**good, "kind": "flows"})
    assert e.value.pointer == "/kind"
    # metric violations surface from the builder, not as schema errors
    broken = [row[:] for row in good["dist"]]
    broken[0][1] = "100"
    broken[1][0] = "100"
    with pytest.raises(MetricViolation):
        obj_to_system({**good, "dist": broken})


def test_sft_round_trip_and_dispatch():
    sft = build_xpq(3, 2)
    back = obj_to_sft(sft_to_obj(sft))
    assert back.alphabet == ("0", "1", "2", "3")
    assert {(a, b) for a, b in back.edges} == {
        (str(a), str(b)) for a, b in sft.edges}
    assert parse_system_obj(sft_to_obj(sft)).alphabet == back.alphabet
    with pytest.raises(SchemaError) as e:
        obj_to_sft({"kind": "sft", "alphabet": ["a"], "edges": [["a", "b"]]})
    assert e.value.pointer == "/edges/0"


def test_modulus_table_rendering():
    sys = random_system(4, 4)
    table = modulus_table(sys, "shadowing")
    obj = modulus_table_to_obj(table)
    assert obj["property"] == "shadowing"
    assert len(obj["rows"]) == len(table.rows)
    csv = modulus_csv(table)
    lines = csv.strip().split("\n")
    assert lines[0] == "epsilon,delta"
    assert len(lines) == len(table.rows) + 1
    spec_table = modulus_table_for_spec(sys, "weak")
    spec_csv = modulus_csv(spec_table)
    assert spec_csv.startswith("epsilon,gap,delta\n")
    empty = ModulusTable("shadowing", ((Fraction(1, 2), None),))
    assert modulus_csv(empty) == "epsilon,delta\n1/2,\n"
    gap_empty = ModulusTable("spec-weak", ((Fraction(1, 2), None),))
    assert modulus_csv(gap_empty) == "epsilon,gap,delta\n1/2,,\n"


def test_decomposition_rendering_and_digest_stability():
    sys = random_system(7, 6, invertible=True)
    dec = spectral_decomposition(sys)
    obj = decomposition_to_obj(dec)
    assert json.loads(canonical_json(obj)) == obj
    assert canonical_json(obj) == canonical_json(
        decomposition_to_obj(spectral_decomposition(sys)))
    assert digest_obj(obj) == digest_obj(json.loads(canonical_json(obj)))
    assert digest_obj(obj) != digest_obj(system_to_obj(sys))