"""Malformed and hostile system files through ``dynlab spectral``, and
malformed lasso files through ``dynlab check spec``.

Each system case starts from a valid finite system or shift file and
breaks it one way: truncated JSON, a top level that is not an object, a
field or an entry of the wrong type, a ragged distance table or map, a
map or relation target outside the points, a JSON float, or an
over-long decimal exponent or integer.  Each lasso case starts from a
valid lasso of a valid system and breaks it one way: truncated JSON, a
top level that is not an object, no cycle, a list field of the wrong
type, an entry that is not a point, an empty cycle or past, or a past
cycle given to the one-sided variant.
Every case must exit 2 with one ``dynlab:`` message on stderr and
nothing on stdout: an exception that escaped ``main`` would fail the
test with its traceback.
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


def run_on_files(argv, **texts):
    """Exit code, stdout and stderr of ``dynlab argv``, where each
    ``{name}`` in ``argv`` is a file holding ``texts[name]``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def spectral(text):
    """Exit code and stderr of ``dynlab spectral`` on a file of ``text``."""
    code, _, err = run_on_files(["spectral", "--system", "{system}"],
                                system=text)
    return code, err


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


def refused(code, out, err, text):
    assert (code, out) == (2, ""), (text[:300], err)
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
    refused(*run_on_files(["spectral", "--system", "{system}"], system=text),
            text)


def test_the_valid_bases_run():
    # the files the cases break are accepted as they are
    for obj in (sft_to_obj(build_xpq(3, 2)),
                system_to_obj(build_random_system(1, 4, True))):
        code, _ = spectral(dumps(obj))
        assert code == (2 if obj["kind"] == "sft" else 0)


# the lasso cases run on one invertible system, so both variants apply
LASSO_SYSTEM = system_to_obj(build_random_system(1, 4, True))
POINTS = LASSO_SYSTEM["points"]
IMAGE = dict(zip(POINTS, LASSO_SYSTEM["map"]))
not_a_point = (json_values | over_long).filter(lambda v: v not in POINTS)


def check_spec(variant, lasso_text):
    return run_on_files(
        ["check", "spec", "--system", "{system}", "--variant", variant,
         "--epsilon", "1", "--lasso", "{lasso}"],
        system=canonical_json(LASSO_SYSTEM), lasso=lasso_text)


def orbit(point):
    """The cycle of the map through ``point``, from ``point`` on."""
    cycle = [point]
    while IMAGE[cycle[-1]] != point:
        cycle.append(IMAGE[cycle[-1]])
    return cycle


@st.composite
def valid_lassos(draw):
    """A variant and a lasso of LASSO_SYSTEM that it accepts."""
    points = st.sampled_from(POINTS)
    variant = draw(st.sampled_from(["limit", "two-sided"]))
    if variant == "limit":
        obj = {"cycle": draw(st.lists(points, min_size=1, max_size=3))}
    else:  # both tails are cycles of the map
        obj = {"cycle": orbit(draw(points))}
        if draw(st.booleans()):
            obj["past"] = orbit(draw(points))
    if draw(st.booleans()):
        obj["stem"] = draw(st.lists(points, max_size=3))
    return variant, obj


@st.composite
def malformed_lassos(draw):
    variant, obj = draw(valid_lassos())
    lists = [key for key in ("stem", "cycle", "past") if key in obj]
    how = draw(st.sampled_from(
        ["truncated", "top level", "no cycle", "field type", "entry",
         "empty", "past"]))
    if how == "truncated":
        text = canonical_json(obj)
        return variant, text[:draw(st.integers(0, text.rindex("}") - 1))]
    if how == "top level":
        return variant, dumps(draw(json_values.filter(
            lambda v: not isinstance(v, dict))))
    if how == "no cycle":
        del obj["cycle"]
    elif how == "field type":
        obj[draw(st.sampled_from(lists))] = draw(not_a_list)
    elif how == "entry":
        key = draw(st.sampled_from([key for key in lists if obj[key]]))
        entries = obj[key]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(not_a_point)
    elif how == "empty":
        obj[draw(st.sampled_from(
            ["cycle", "past"] if variant == "two-sided" else ["cycle"]))] = []
    else:  # a past cycle on the one-sided variant
        variant = "limit"
        obj["past"] = draw(st.lists(st.sampled_from(POINTS), max_size=3))
    return variant, dumps(obj)


@settings(deadline=None, max_examples=300)
@given(malformed_lassos())
@example(("limit", "[" * 100_000 + "]" * 100_000))
@example(("two-sided", canonical_json({"cycle": ["p0"], "past": "p1"})))
def test_malformed_lasso_files_exit_two(case):
    variant, text = case
    refused(*check_spec(variant, text), text)


@settings(deadline=None, max_examples=30)
@given(valid_lassos())
def test_the_valid_lassos_run(case):
    # the lassos the cases break are accepted as they are
    variant, obj = case
    code, out, err = check_spec(variant, canonical_json(obj))
    assert code in (0, 1) and out and not err, err
