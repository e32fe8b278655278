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
import pathlib
from dataclasses import field
from fractions import Fraction

import pytest

import dynlab
from dynlab.core import Lasso, _Record
from dynlab.errors import EmptyShift, NotInvertible
from dynlab.gallery import (build_myex, build_product_truncation,
                            build_random_system, build_xpq)
from dynlab.expansive import gamma_set, n_expansive_constant
from dynlab.recurrence import (cp_construction, cyclic_decomposition,
                               is_transitive, spectral_decomposition)
from dynlab.shadowing import (modulus_table, shadowing_holds,
                              shadowing_modulus, special_shadowing_holds,
                              strong_shadow_point,
                              two_sided_limit_shadowing_check)
from dynlab.specification import (blockify, derived_periodic_shadowing,
                                  eta_modulus, generalized_spec_checks,
                                  local_weak_spec_holds,
                                  modulus_table_for_spec, trace_chain)
from dynlab.symbolic import (Sft, SymbolicPoint, build_sft, periodic_points,
                             product_system, window_system)

from helpers import cycle_system, stem_into_cycle

FIXED = Lasso(cycle=("z",))
TWO_SIDED = Lasso(cycle=("z",), two_sided=True)

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
    "n-expansive-constant-at-zero": (
        lambda sys: n_expansive_constant(sys, 0),
        ValueError, "n must be at least 1, got 0"),
    "basic-set-leaving-itself": (
        lambda sys: cyclic_decomposition(sys, ("s0", "s1")),
        ValueError, "a member has no step inside it"),
    "transitive-on-no-points": (
        lambda sys: is_transitive(sys, ()),
        ValueError, "empty subset"),
    "transient-anchor": (
        lambda sys: cp_construction(sys, ("s1", "z"), "s1"),
        ValueError, "anchor must be periodic"),
    "unknown-partition-route": (
        lambda sys: spectral_decomposition(sys).partition("orbit"),
        ValueError, "unknown route 'orbit'"),
    "shadowing-at-zero-delta": (
        lambda sys: shadowing_holds(sys, 0, 1),
        ValueError, "delta must be positive, got 0"),
    "strong-shadow-at-zero-epsilon": (
        lambda sys: strong_shadow_point(sys, ["z"], 0),
        ValueError, "epsilon must be positive, got 0"),
    "strong-shadow-of-no-points": (
        lambda sys: strong_shadow_point(sys, [], 1),
        ValueError, "need a non-empty cyclic sequence"),
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
        lambda sys: modulus_table_for_spec(cycle_system(1), "full", 0),
        ValueError, "length bound must be at least 1, got 0"),
    "unknown-table-property": (
        lambda sys: modulus_table(sys, "limit"),
        ValueError, "unknown property 'limit'"),
    "two-sided-limit-on-a-forward-map": (
        lambda sys: two_sided_limit_shadowing_check(sys, TWO_SIDED),
        NotInvertible, "needs an invertible system"),
    "two-sided-limit-of-a-one-sided-lasso": (
        lambda sys: two_sided_limit_shadowing_check(
            cycle_system(2), Lasso(cycle=("c0", "c1"))),
        ValueError, "two-sided lasso expected"),
    "weak-spec-at-gap-zero": (
        lambda sys: local_weak_spec_holds(sys, 1, 0, 1),
        ValueError, "N must be at least 1, got 0"),
    "blocking-a-two-sided-lasso": (
        lambda sys: blockify(sys, TWO_SIDED, 1, 1),
        ValueError, "blocking is a forward-time construction"),
    "unknown-spec-table-property": (
        lambda sys: modulus_table_for_spec(sys, "limit"),
        ValueError, "unknown property 'limit'"),
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
    "random-system-of-no-points": (
        lambda sys: build_random_system(1, 0),
        ValueError, "size must be at least 1, got 0"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal(call, error, fragment):
    with pytest.raises(error) as raised:
        call(stem_into_cycle())
    assert type(raised.value) is error
    assert fragment in str(raised.value)


# the helpers that word every refusal of a threshold or count
REFUSERS = {"core._positive", "core._at_least"}
RULE_WORDS = ("must be positive", "must be at least")


def raised_texts(node, where):
    """(where, text) for each raise under ``node``: ``where`` the dotted
    name of the innermost function or class around it, ``text`` the
    string constants of the raised expression, joined."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from raised_texts(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            yield where, "".join(
                leaf.value for leaf in ast.walk(child.exc)
                if isinstance(leaf, ast.Constant)
                and isinstance(leaf.value, str))
        yield from raised_texts(child, where)


def test_only_the_core_helpers_word_a_refusal():
    wording = set()
    for path in sorted(pathlib.Path(dynlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        wording.update(where for where, text in raised_texts(tree, path.stem)
                       if any(words in text for words in RULE_WORDS))
    assert wording == REFUSERS
