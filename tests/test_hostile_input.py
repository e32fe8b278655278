"""Malformed and hostile system files through ``dynlab spectral``.

Each case starts from a valid finite system or shift file and breaks
it one way: truncated JSON, a top level that is not an object, a field
or an entry of the wrong type, a ragged distance table or map, a map or
relation target outside the points, a JSON float, or an over-long
decimal exponent or integer.
Every case must exit 2 with one ``dynlab:`` message on stderr: an
exception that escaped ``main`` would fail the test with its traceback.
"""

import contextlib
import copy
import io
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from dynlab.cli import main
from dynlab.gallery import build_random_system, build_xpq
from dynlab.serialize import canonical_json, sft_to_obj, system_to_obj

# a JSON integer literal too long for CPython's str -> int conversion
LONG_INTEGER = "9" * 5000

scalars = (st.none() | st.booleans() | st.integers(-9, 9) | st.floats()
           | st.text(max_size=3))
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=6)
# no entry of a list field may be any of these: not a point name, not a
# rational (a bool is refused as one)
not_an_entry = json_values.filter(
    lambda v: not isinstance(v, str)
    and (isinstance(v, bool) or not isinstance(v, int)))
not_a_list = json_values.filter(lambda v: not isinstance(v, list))
over_long = st.sampled_from([
    "1e4301", "1e-4301", "-2E+99999999", "1/1e9999", "3e1_000_000",
    "1" * 4301, f"1/{'7' * 4301}", "@long"])

FINITE_LISTS = ("points", "dist", "map")
SFT_LISTS = ("alphabet", "edges")


def spectral(text):
    """Exit code and stderr of ``dynlab spectral`` on a file of ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["spectral", "--system", path])
    return code, err.getvalue()


def dumps(obj):
    return canonical_json(obj).replace('"@long"', LONG_INTEGER)


@st.composite
def base_objects(draw):
    if draw(st.integers(0, 4)) == 0:
        return sft_to_obj(build_xpq(3, 2))
    obj = system_to_obj(build_random_system(
        draw(st.integers(0, 99)), draw(st.integers(1, 4)), draw(st.booleans())))
    if draw(st.booleans()):
        obj["relation"] = [[target] for target in obj["map"]]
    return obj


@st.composite
def malformed_files(draw):
    obj = copy.deepcopy(draw(base_objects()))
    finite = obj["kind"] == "finite"
    n = len(obj["points"]) if finite else 0
    cell = ((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
            if finite else None)
    how = draw(st.sampled_from(
        ["truncated", "top level", "field type", "entry type", "ragged",
         "outside", "float", "exponent"] if finite else
        ["truncated", "top level", "field type", "entry type", "outside"]))
    if how == "truncated":
        text = canonical_json(obj)
        return text[:draw(st.integers(0, text.rindex("}") - 1))]
    if how == "top level":
        return dumps(draw(json_values.filter(lambda v: not isinstance(v, dict))))
    if how == "field type":
        key = draw(st.sampled_from(
            [*(FINITE_LISTS if finite else SFT_LISTS), "kind"]
            + (["invertible", "relation"] if finite else [])))
        if key == "kind":
            value = draw(json_values.filter(lambda v: v != obj["kind"]))
        elif key == "invertible":
            value = draw(json_values.filter(
                lambda v: v is not None and not isinstance(v, bool)))
        else:
            value = draw(not_a_list.filter(lambda v: v is not None))
        obj[key] = value
        return dumps(obj)
    if how == "entry type":
        key = draw(st.sampled_from(
            [*FINITE_LISTS, *(["relation"] if "relation" in obj else [])]
            if finite else SFT_LISTS))
        value = draw(not_an_entry)
        i = draw(st.integers(0, len(obj[key]) - 1))
        if key in ("dist", "relation", "edges"):
            row = obj[key][i]
            row[draw(st.integers(0, len(row) - 1))] = value
        else:
            obj[key][i] = value
        return dumps(obj)
    if how == "ragged":
        key = draw(st.sampled_from(["row", "rows", "map"]))
        target = {"row": obj["dist"][cell[0]], "rows": obj["dist"],
                  "map": obj["map"]}[key]
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(copy.deepcopy(target[-1]))
        return dumps(obj)
    if how == "outside":
        stranger = draw(st.text(max_size=4).filter(
            lambda s: s not in obj.get("points", obj.get("alphabet"))))
        if finite:
            key = draw(st.sampled_from(
                ["map", *(["relation"] if "relation" in obj else [])]))
            if key == "map":
                obj["map"][cell[0]] = stranger
            else:
                obj["relation"][cell[0]].append(stranger)
        else:
            obj["edges"].append([obj["alphabet"][0], stranger])
        return dumps(obj)
    i, j = cell
    if how == "float":
        obj["dist"][i][j] = draw(st.floats())
    else:
        obj["dist"][i][j] = draw(over_long)
    return dumps(obj)


def refused(text):
    code, err = spectral(text)
    assert code == 2, (text[:300], err)
    assert err.startswith("dynlab: ") and err.count("\n") == 1, err


@settings(deadline=None, max_examples=300)
@given(malformed_files())
# a map target, relation target or shift letter that is a JSON list or
# object once ended in "TypeError: unhashable type" from a set lookup
@example(canonical_json({"points": ["a"], "dist": [["0"]], "map": [["a"]]}))
@example(canonical_json({"points": ["a"], "dist": [["0"]], "map": ["a"],
                         "relation": [[{"a": 1}]]}))
@example(canonical_json({"kind": "sft", "alphabet": ["0"],
                         "edges": [[["0"], "0"]]}))
# nesting too deep to decode once ended in a RecursionError traceback
@example("[" * 100_000 + "]" * 100_000)
def test_malformed_system_files_exit_two(text):
    refused(text)


def test_the_valid_bases_run():
    # the files the cases break are accepted as they are
    for obj in (sft_to_obj(build_xpq(3, 2)),
                system_to_obj(build_random_system(1, 4, True))):
        code, _ = spectral(dumps(obj))
        assert code == (2 if obj["kind"] == "sft" else 0)
