"""Refusals of bad arguments, one table row each: the call, the
exception type it must raise, and a fragment of the message.

A refusal that regressed, by raising another type or by dropping its
check and answering, fails its row.  The rows cover the refusals of
the library that no other fast test runs; each row is handed a fresh
copy of the three-point system s0 -> s1 -> z -> z, which is not
invertible (the one refusal that needs an invertible system builds a
2-cycle), and the rows that build their own input ignore it.

A bad threshold or count is refused by one of two helpers of
``dynlab.core``, in one of two wordings, and no other function of the
package words such a refusal itself.
"""

import ast
import json
import pathlib
import warnings
from dataclasses import field
from fractions import Fraction

import pytest

import dynlab
from dynlab.cli import main
from dynlab.core import (Lasso, _Record, build_finite_system,
                         is_periodic_pseudo_orbit, is_pseudo_orbit, shadows)
from dynlab.errors import EmptyShift, NotInvertible
from dynlab.gallery import (build_myex, build_product_truncation,
                            build_random_system, build_xpq)
from dynlab.expansive import (gamma_set, n_expansive_constant, stable_sets,
                              theorem_stableset_check)
from dynlab.recurrence import (chain_graph, cp_construction,
                               cyclic_decomposition, is_mixing,
                               is_transitive, spectral_decomposition)
from dynlab.shadowing import (construct_shadow_point, modulus_table,
                              periodic_shadowing_holds, shadowing_holds,
                              shadowing_modulus, special_shadowing_holds,
                              strong_periodic_shadowing_holds, subset_cap)
from dynlab.specification import (blockify, derived_periodic_shadowing,
                                  eta_modulus, generalized_spec_checks,
                                  local_spec_holds, local_weak_spec_holds,
                                  pairwise_tracing_chain, spec_to_shadow_point,
                                  trace_chain)
from dynlab.symbolic import (Sft, SymbolicPoint, build_sft, periodic_points,
                             product_system, window_system)

from helpers import cycle_system, stem_into_cycle

FIXED = Lasso(cycle=("z",))
TWO_SIDED = Lasso(cycle=("z",), two_sided=True)
FOREIGN = Lasso(stem=("s0",), cycle=("z", "zz"))

REFUSALS = {
    "float-threshold": (
        lambda sys: shadowing_holds(sys, 0.5, 1),
        TypeError, "not an exact rational: 0.5"),
    "record-field-with-a-factory": (
        lambda sys: type("Bad", (_Record,), {
            "__annotations__": {"x": list}, "x": field(default_factory=list)}),
        TypeError, "Bad: record fields take plain defaults only"),
    "negative-index-of-a-one-sided-lasso": (
        lambda sys: FIXED[-1],
        IndexError, "one-sided lasso has no negative indices"),
    "two-loop-shift-with-an-empty-loop": (
        lambda sys: build_xpq(0, 1),
        ValueError, "loop length must be at least 1, got 0"),
    "product-truncation-of-no-factors": (
        lambda sys: build_product_truncation((2, 3), 0),
        ValueError, "number of factors must be at least 1, got 0"),
    "myex-on-a-one-point-lattice": (
        lambda sys: build_myex(1, 1),
        ValueError, "lattice denominator must be at least 2, got 1"),
    "myex-with-no-satellites": (
        lambda sys: build_myex(3, 0),
        ValueError, "number of satellite families must be at least 1, got 0"),
    "symbolic-point-with-no-cycle": (
        lambda sys: SymbolicPoint((), ()),
        ValueError, "cycle must be non-empty"),
    "symbolic-point-with-no-past": (
        lambda sys: SymbolicPoint((), ("a",), ()),
        ValueError, "past cycle must be non-empty"),
    "edge-outside-the-alphabet": (
        lambda sys: build_sft(("a",), [("a", "b")]),
        ValueError, "edge ('a', 'b') uses letters outside the alphabet"),
    "periodic-points-of-period-zero": (
        lambda sys: periodic_points(build_xpq(3, 2), 0),
        ValueError, "period must be at least 1, got 0"),
    "window-of-radius-zero": (
        lambda sys: window_system(build_xpq(3, 2), 0),
        ValueError, "window radius must be at least 1, got 0"),
    "window-of-a-shift-with-no-edges": (
        lambda sys: window_system(Sft(("a",), frozenset()), 1),
        EmptyShift, "no allowed words at this window size"),
    "product-of-no-shifts": (
        lambda sys: product_system([]),
        ValueError, "need at least one factor"),
    "threshold-at-zero": (
        lambda sys: gamma_set(sys, "z", 0),
        ValueError, "delta must be positive, got 0"),
    "stable-sets-at-zero-epsilon": (
        lambda sys: stable_sets(sys, "z", 0),
        ValueError, "epsilon must be positive, got 0"),
    "stable-set-theorem-at-negative-epsilon": (
        lambda sys: theorem_stableset_check(sys, -1),
        ValueError, "epsilon must be positive, got -1"),
    "n-expansive-constant-at-zero": (
        lambda sys: n_expansive_constant(sys, 0),
        ValueError, "n must be at least 1, got 0"),
    "chain-graph-at-negative-delta": (
        lambda sys: chain_graph(sys, -1),
        ValueError, "delta must be positive, got -1"),
    "basic-set-leaving-itself": (
        lambda sys: cyclic_decomposition(sys, ("s0", "s1")),
        ValueError, "a member has no step inside it"),
    "transitive-on-no-points": (
        lambda sys: is_transitive(sys, ()),
        ValueError, "empty subset"),
    "mixing-at-period-zero": (
        lambda sys: is_mixing(sys, ("z",), 0),
        ValueError, "period must be at least 1, got 0"),
    "transient-anchor": (
        lambda sys: cp_construction(sys, ("s1", "z"), "s1"),
        ValueError, "anchor must be periodic"),
    "unknown-partition-route": (
        lambda sys: spectral_decomposition(sys).partition("orbit"),
        ValueError, "unknown route 'orbit'"),
    "shadowing-at-zero-delta": (
        lambda sys: shadowing_holds(sys, 0, 1),
        ValueError, "delta must be positive, got 0"),
    # a cap below 1 would report a cap hit on input that is only bad
    "shadowing-at-state-cap-zero": (
        lambda sys: shadowing_holds(sys, 1, 1, cap=0),
        ValueError, "state cap must be at least 1, got 0"),
    # a zero threshold and a zero cap together: every single-cell call
    # refuses the cap, which its cell search reads before the thresholds
    # are converted (see ORDER below)
    "shadowing-at-zero-delta-and-state-cap-zero": (
        lambda sys: shadowing_holds(sys, 0, 1, cap=0),
        ValueError, "state cap must be at least 1, got 0"),
    "weak-spec-at-zero-delta-and-state-cap-zero": (
        lambda sys: local_weak_spec_holds(sys, 1, 1, 0, cap=0),
        ValueError, "state cap must be at least 1, got 0"),
    "periodic-at-inexact-delta-and-bound-zero": (
        lambda sys: periodic_shadowing_holds(sys, 0.5, 1, 0),
        ValueError, "length bound must be at least 1, got 0"),
    "periodic-at-zero-delta-and-state-cap-zero": (
        lambda sys: periodic_shadowing_holds(sys, 0, 1, 3, cap=0),
        ValueError, "state cap must be at least 1, got 0"),
    "strong-periodic-at-zero-delta-and-state-cap-zero": (
        lambda sys: strong_periodic_shadowing_holds(sys, 0, 1, 3, cap=0),
        ValueError, "state cap must be at least 1, got 0"),
    "full-spec-at-zero-delta-and-state-cap-zero": (
        lambda sys: local_spec_holds(sys, 1, 1, 0, cap=0),
        ValueError, "state cap must be at least 1, got 0"),
    "table-at-state-cap-minus-one": (
        lambda sys: modulus_table(sys, "shadowing", cap=-1),
        ValueError, "state cap must be at least 1, got -1"),
    "shadow-point-at-zero-epsilon": (
        lambda sys: construct_shadow_point(sys, FIXED, 0),
        ValueError, "epsilon must be positive, got 0"),
    # the definitional lasso tests: a threshold that is not positive
    # would answer False, and a stem would answer None before it is read
    "pseudo-orbit-at-negative-delta": (
        lambda sys: is_pseudo_orbit(sys, FIXED, -1),
        ValueError, "delta must be positive, got -1"),
    "periodic-pseudo-orbit-with-a-stem-at-zero-delta": (
        lambda sys: is_periodic_pseudo_orbit(
            sys, Lasso(stem=("s0",), cycle=("z",)), 0),
        ValueError, "delta must be positive, got 0"),
    "shadows-at-zero-epsilon": (
        lambda sys: shadows(sys, "z", FIXED, 0),
        ValueError, "epsilon must be positive, got 0"),
    # above every distance the row rule searches no cell of these two
    "special-tracing-at-bound-zero": (
        lambda sys: special_shadowing_holds(sys, 100, 0),
        ValueError, "length bound must be at least 1, got 0"),
    "modulus-at-zero-epsilon-on-one-point": (
        lambda sys: shadowing_modulus(cycle_system(1), 0),
        ValueError, "epsilon must be positive, got 0"),
    # every cell of a one-point system passes by definition, so no
    # search would refuse these bounds on its own
    "periodic-table-at-bound-zero-on-one-point": (
        lambda sys: modulus_table(cycle_system(1), "periodic", 0),
        ValueError, "length bound must be at least 1, got 0"),
    "full-spec-table-at-bound-zero-on-one-point": (
        lambda sys: modulus_table(cycle_system(1), "spec-full", 0),
        ValueError, "length bound must be at least 1, got 0"),
    "unknown-table-property": (
        lambda sys: modulus_table(sys, "limit"),
        ValueError, "unknown property 'limit'"),
    "two-sided-limit-on-a-forward-map": (
        lambda sys: generalized_spec_checks(sys, "two-sided", TWO_SIDED),
        NotInvertible, "needs an invertible system"),
    "two-sided-limit-of-a-one-sided-lasso": (
        lambda sys: generalized_spec_checks(
            cycle_system(2), "two-sided", Lasso(cycle=("c0", "c1"))),
        ValueError, "two-sided lasso expected"),
    "weak-spec-at-gap-zero": (
        lambda sys: local_weak_spec_holds(sys, 1, 0, 1),
        ValueError, "N must be at least 1, got 0"),
    "blocking-a-two-sided-lasso": (
        lambda sys: blockify(sys, TWO_SIDED, 1, 1),
        ValueError, "blocking is a forward-time construction"),
    "blocking-at-zero-delta": (
        lambda sys: blockify(sys, FIXED, 1, 0),
        ValueError, "delta must be positive, got 0"),
    "chain-route-shadow-at-zero-epsilon": (
        lambda sys: spec_to_shadow_point(sys, FIXED, 1, 0),
        ValueError, "epsilon must be positive, got 0"),
    "unknown-spec-table-property": (
        lambda sys: modulus_table(sys, "spec-limit"),
        ValueError, "unknown property 'spec-limit'"),
    "limit-variant-without-a-lasso": (
        lambda sys: generalized_spec_checks(sys, "limit"),
        ValueError, "variant 'limit' needs a lasso"),
    "unknown-spec-variant": (
        lambda sys: generalized_spec_checks(sys, "weak", FIXED),
        ValueError, "unknown variant 'weak'"),
    "derived-transfer-at-zero-epsilon": (
        lambda sys: derived_periodic_shadowing(sys, 0),
        ValueError, "epsilon must be positive, got 0"),
    # at this epsilon no grid delta fits the hypothesis, so no search
    # would refuse the bound on its own
    "derived-transfer-at-bound-zero": (
        lambda sys: derived_periodic_shadowing(build_random_system(3, 5),
                                               Fraction(1, 8), k_bound=0),
        ValueError, "length bound must be at least 1, got 0"),
    # a gap of 0 leaves the tracer no window to check, and so does an
    # empty chain: every point would trace either
    "chain-tracing-at-gap-zero": (
        lambda sys: trace_chain(sys, ["s0", "s1"], 0, 1),
        ValueError, "gap must be at least 1, got 0"),
    "chain-tracing-of-no-sources": (
        lambda sys: trace_chain(sys, [], 1, 1),
        ValueError, "number of sources must be at least 1, got 0"),
    "chain-tracing-at-zero-epsilon": (
        lambda sys: trace_chain(sys, ["z"], 1, 0),
        ValueError, "epsilon must be positive, got 0"),
    "spread-over-a-negative-horizon": (
        lambda sys: eta_modulus(sys, 1, -1),
        ValueError, "N must be at least 0, got -1"),
    "spread-modulus-at-zero-delta": (
        lambda sys: eta_modulus(sys, 0, 1),
        ValueError, "delta1 must be positive, got 0"),
    "random-system-of-no-points": (
        lambda sys: build_random_system(1, 0),
        ValueError, "size must be at least 1, got 0"),
    "relation-to-a-point-outside-the-space": (
        lambda sys: build_finite_system(["a", "b"], [[0, 1], [1, 0]],
                                        ["b", "a"], relation=[["b"], ["zz"]]),
        ValueError, "relation sends a point outside the space: 'zz'"),
    # a point or lasso entry outside the system, refused in the CLI's
    # words by one helper of dynlab.core before any search
    "pseudo-orbit-through-a-foreign-point": (
        lambda sys: is_pseudo_orbit(sys, FOREIGN, 1),
        ValueError, "'zz' is not a point of the system"),
    "periodic-pseudo-orbit-with-a-foreign-stem": (
        lambda sys: is_periodic_pseudo_orbit(
            sys, Lasso(stem=("zz",), cycle=("z",)), 1),
        ValueError, "'zz' is not a point of the system"),
    "shadows-from-a-foreign-point": (
        lambda sys: shadows(sys, "zz", FIXED, 1),
        ValueError, "'zz' is not a point of the system"),
    "shadows-a-foreign-lasso": (
        lambda sys: shadows(sys, "z", FOREIGN, 1),
        ValueError, "'zz' is not a point of the system"),
    "shadow-point-of-a-foreign-lasso": (
        lambda sys: construct_shadow_point(sys, FOREIGN, 1),
        ValueError, "'zz' is not a point of the system"),
    "blocking-a-foreign-lasso": (
        lambda sys: blockify(sys, FOREIGN, 1, 1),
        ValueError, "'zz' is not a point of the system"),
    "chain-route-shadow-of-a-foreign-lasso": (
        lambda sys: spec_to_shadow_point(sys, FOREIGN, 1, 1),
        ValueError, "'zz' is not a point of the system"),
    "limit-variant-of-a-foreign-lasso": (
        lambda sys: generalized_spec_checks(sys, "limit", FOREIGN),
        ValueError, "'zz' is not a point of the system"),
    "two-sided-limit-of-a-foreign-past": (
        lambda sys: generalized_spec_checks(
            cycle_system(2), "two-sided",
            Lasso(cycle=("c0", "c1"), two_sided=True, past_cycle=("zz",))),
        ValueError, "'zz' is not a point of the system"),
    "gamma-set-of-a-foreign-point": (
        lambda sys: gamma_set(sys, "zz", 1),
        ValueError, "'zz' is not a point of the system"),
    "stable-sets-of-a-foreign-point": (
        lambda sys: stable_sets(sys, "zz", 1),
        ValueError, "'zz' is not a point of the system"),
    "transitivity-of-a-foreign-subset": (
        lambda sys: is_transitive(sys, ["z", "zz"]),
        ValueError, "'zz' is not a point of the system"),
    "cyclic-decomposition-of-a-foreign-set": (
        lambda sys: cyclic_decomposition(sys, ["z", "zz"]),
        ValueError, "'zz' is not a point of the system"),
    "mixing-of-a-foreign-part": (
        lambda sys: is_mixing(sys, ["zz", "z"], 1),
        ValueError, "'zz' is not a point of the system"),
    "chain-from-a-foreign-source": (
        lambda sys: trace_chain(sys, ["z", "zz"], 1, 1),
        ValueError, "'zz' is not a point of the system"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal(call, error, fragment):
    with pytest.raises(error) as raised:
        call(stem_into_cycle())
    assert type(raised.value) is error
    assert fragment in str(raised.value)


# One refusal order for every tracing question: the counts its cell
# search reads (N, then the length bound, then the state cap), then
# delta, then epsilon.  Each call is listed with every count bad and
# every threshold bad, the message it must give, then with only the
# thresholds bad, and the message it must give then.
ORDER = {
    "shadowing": (
        lambda sys: shadowing_holds(sys, 0, 0, cap=0),
        "state cap must be at least 1, got 0",
        lambda sys: shadowing_holds(sys, 0, 0),
        "delta must be positive, got 0"),
    "periodic": (
        lambda sys: periodic_shadowing_holds(sys, 0, 0, 0, cap=0),
        "length bound must be at least 1, got 0",
        lambda sys: periodic_shadowing_holds(sys, 0, 0, 3),
        "delta must be positive, got 0"),
    "strong-periodic": (
        lambda sys: strong_periodic_shadowing_holds(sys, 0, 0, 0, cap=0),
        "length bound must be at least 1, got 0",
        lambda sys: strong_periodic_shadowing_holds(sys, 0, 0, 3),
        "delta must be positive, got 0"),
    "weak-spec": (
        lambda sys: local_weak_spec_holds(sys, 0, 0, 0, cap=0),
        "N must be at least 1, got 0",
        lambda sys: local_weak_spec_holds(sys, 0, 1, 0),
        "delta must be positive, got 0"),
    "full-spec": (
        lambda sys: local_spec_holds(sys, 0, 0, 0, k_bound=0, cap=0),
        "N must be at least 1, got 0",
        lambda sys: local_spec_holds(sys, 0, 1, 0),
        "delta must be positive, got 0"),
    "pairwise": (
        lambda sys: pairwise_tracing_chain(sys, 0, 0, k_bound=0, cap=0),
        "length bound must be at least 1, got 0",
        lambda sys: pairwise_tracing_chain(sys, 0, 0),
        "delta must be positive, got 0"),
    "derived-transfer": (
        lambda sys: derived_periodic_shadowing(sys, 0, k_bound=0, cap=0),
        "length bound must be at least 1, got 0",
        lambda sys: derived_periodic_shadowing(sys, 0),
        "epsilon must be positive, got 0"),
    "shadowing-modulus": (
        lambda sys: shadowing_modulus(sys, 0, cap=0),
        "state cap must be at least 1, got 0",
        lambda sys: shadowing_modulus(sys, 0),
        "epsilon must be positive, got 0"),
    "special-tracing": (
        lambda sys: special_shadowing_holds(sys, 0, 0, cap=0),
        "length bound must be at least 1, got 0",
        lambda sys: special_shadowing_holds(sys, 0),
        "epsilon must be positive, got 0"),
}


@pytest.mark.parametrize("counts_bad, count_text, thresholds_bad, "
                         "threshold_text", ORDER.values(), ids=ORDER.keys())
def test_counts_then_delta_then_epsilon(counts_bad, count_text,
                                        thresholds_bad, threshold_text):
    for call, text in ((counts_bad, count_text),
                       (thresholds_bad, threshold_text)):
        with pytest.raises(ValueError) as raised:
            call(stem_into_cycle())
        assert str(raised.value) == text


def test_pairwise_chain_refuses_before_it_warns():
    # at bound 1 this system warns BoundTooSmall for each gap it scans
    sys = build_random_system(3, 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pairwise_tracing_chain(sys, 1, 1, k_bound=1)
    assert caught
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError,
                           match="state cap must be at least 1, got 0"):
            pairwise_tracing_chain(sys, 1, 1, k_bound=1, cap=0)
    assert caught == []


def test_state_cap_below_one_from_the_environment_exits_two(
        monkeypatch, tmp_path, capsys):
    # bad input, not a resource cap hit: exit 2, not 3
    path = tmp_path / "three.json"
    path.write_text(json.dumps({
        "kind": "finite", "points": ["s0", "s1", "z"],
        "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
        "map": ["s1", "z", "z"]}))
    monkeypatch.setenv("DYNLAB_SUBSET_CAP", "0")
    code = main(["check", "shadowing", "--system", str(path),
                 "--delta", "2", "--epsilon", "1/2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (
        2, "", "dynlab: state cap must be at least 1, got 0\n")


def test_state_cap_not_an_integer_from_the_environment_exits_two(
        monkeypatch, tmp_path, capsys):
    path = tmp_path / "three.json"
    path.write_text(json.dumps({
        "kind": "finite", "points": ["s0", "s1", "z"],
        "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
        "map": ["s1", "z", "z"]}))
    monkeypatch.setenv("DYNLAB_SUBSET_CAP", "1e6")
    code = main(["check", "shadowing", "--system", str(path),
                 "--delta", "2", "--epsilon", "1/2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (
        2, "", "dynlab: DYNLAB_SUBSET_CAP must be an integer, got '1e6'\n")
    # what int() reads is still read
    monkeypatch.setenv("DYNLAB_SUBSET_CAP", " 1_000 ")
    assert subset_cap() == 1000


# the helpers that word every refusal of a threshold or count
REFUSERS = {"core._positive", "core._at_least"}
RULE_WORDS = ("must be positive", "must be at least")


def scoped_nodes(node, where):
    """(where, child) for each node under ``node`` but the function and
    class definitions: ``where`` the dotted name of the innermost
    function or class around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from scoped_nodes(child, f"{where}.{child.name}")
            continue
        yield where, child
        yield from scoped_nodes(child, where)


def raised_texts(node, where):
    """(where, text) for each raise under ``node``: ``where`` as in
    :func:`scoped_nodes`, ``text`` the string constants of the raised
    expression, joined."""
    for where, child in scoped_nodes(node, where):
        if isinstance(child, ast.Raise) and child.exc is not None:
            yield where, "".join(
                leaf.value for leaf in ast.walk(child.exc)
                if isinstance(leaf, ast.Constant)
                and isinstance(leaf.value, str))


def test_only_the_core_helpers_word_a_refusal():
    wording = set()
    for path in sorted(pathlib.Path(dynlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        wording.update(where for where, text in raised_texts(tree, path.stem)
                       if any(words in text for words in RULE_WORDS))
    assert wording == REFUSERS


TABLE_NAMES = {"shadowing", "periodic", "strong-periodic", "spec-weak",
               "spec-full"}


def test_the_tables_are_named_in_one_registry():
    # one function refuses a table name it does not know, and one literal
    # of the library, the registry of dynlab.shadowing, spells all five
    refusing, spelled = set(), []
    for path in sorted(pathlib.Path(dynlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refusing.update(where for where, text in raised_texts(tree, path.stem)
                        if "unknown property" in text)
        for node in ast.walk(tree):
            items = (node.keys if isinstance(node, ast.Dict) else
                     node.elts if isinstance(node, (ast.Tuple, ast.List,
                                                    ast.Set)) else ())
            if TABLE_NAMES <= {item.value for item in items
                               if isinstance(item, ast.Constant)}:
                spelled.append(path.stem)
    assert refusing == {"shadowing._decider"}
    assert spelled == ["shadowing"]


SEARCHES = {"_die_search", "_closed_search"}


def library_calls(names):
    """{name: the scopes that call it} over the library's modules, and the
    (module, name) pairs that import one of ``names``."""
    callers, imported = {name: set() for name in names}, set()
    for path in sorted(pathlib.Path(dynlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, node in scoped_nodes(tree, path.stem):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                if name in names:
                    callers[name].add(where)
            elif isinstance(node, ast.ImportFrom):
                imported.update((path.stem, alias.name) for alias in node.names
                                if alias.name in names)
    return callers, imported


def test_the_tracing_searches_have_one_caller():
    # single cells and tables alike reach the two per-gap searches
    # through the gap loop of the cell search shadowing._decider returns,
    # and no other module imports them
    callers, imported = library_calls(SEARCHES)
    assert callers == {name: {"shadowing._decider.decide"}
                       for name in SEARCHES}
    assert imported == set()


def test_the_bound_warning_is_scanned_in_two_places():
    # the gap loop of _decider and the pairwise chain scan gap graphs
    # for BoundTooSmall through one helper; the structures warn nothing
    callers, _ = library_calls({"_scan_gap", "_warn_if_bound_blind", "warn"})
    assert callers == {
        "_scan_gap": {"shadowing._decider.decide",
                      "specification.pairwise_tracing_chain"},
        "_warn_if_bound_blind": {"shadowing._scan_gap"},
        "warn": {"shadowing._warn_if_bound_blind"},
    }
    assert not any(where.startswith("shadowing._gap_structures")
                   for scopes in callers.values() for where in scopes)


def test_a_step_rows_are_built_in_one_place():
    # the a-step push is gone from the library (its second copy is the
    # oracle reach_after_reference): is_mixing and verify's primitive
    # check read the rows built once per system and a
    names = set()
    for path in sorted(pathlib.Path(dynlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names.add(getattr(node, "id", getattr(node, "attr", getattr(
                node, "name", None))))
    assert "_reach_after" not in names
    callers, imported = library_calls({"_power_masks", "_image"})
    assert callers["_power_masks"] == {"recurrence.is_mixing",
                                       "recurrence.Decomposition.verify"}
    assert ("recurrence", "_power_masks") not in imported
    assert "recurrence.is_mixing" not in callers["_image"]
    # every set verify images itself is cut back to the piece at once:
    # its unrestricted steps come from the rows
    source = (pathlib.Path(dynlab.__file__).parent / "recurrence.py")
    verify = next(node for node in ast.walk(ast.parse(source.read_text(
        encoding="utf-8"))) if getattr(node, "name", None) == "verify")
    images = [node for node in ast.walk(verify) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_image"]
    cut = [node.left for node in ast.walk(verify)
           if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
           and getattr(node.right, "id", None) == "members"]
    assert images and all(any(call is left for left in cut)
                          for call in images)
