"""Refusals of bad arguments, one table row each: the call, the
exception type it must raise, and a fragment of the message.

A refusal that regressed, by raising another type or by dropping its
check and answering, fails its row.  The rows cover the refusals of
``expansive``, ``recurrence``, ``shadowing`` and ``specification`` that
no other fast test runs; each row runs on a fresh copy of the
three-point system s0 -> s1 -> z -> z, which is not invertible (the one
refusal that needs an invertible system builds a 2-cycle).
"""

import pytest

from dynlab.core import Lasso
from dynlab.errors import NotInvertible
from dynlab.expansive import gamma_set, n_expansive_constant
from dynlab.recurrence import (cp_construction, cyclic_decomposition,
                               is_transitive, spectral_decomposition)
from dynlab.shadowing import (modulus_table, shadowing_holds,
                              strong_shadow_point,
                              two_sided_limit_shadowing_check)
from dynlab.specification import (blockify, derived_periodic_shadowing,
                                  generalized_spec_checks,
                                  local_weak_spec_holds,
                                  modulus_table_for_spec)

from helpers import cycle_system, stem_into_cycle

FIXED = Lasso(cycle=("z",))
TWO_SIDED = Lasso(cycle=("z",), two_sided=True)

REFUSALS = {
    "threshold-at-zero": (
        lambda sys: gamma_set(sys, "z", 0),
        ValueError, "threshold must be positive"),
    "n-expansive-constant-at-zero": (
        lambda sys: n_expansive_constant(sys, 0),
        ValueError, "n must be at least 1"),
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
        ValueError, "thresholds must be positive"),
    "strong-shadow-at-zero-epsilon": (
        lambda sys: strong_shadow_point(sys, ["z"], 0),
        ValueError, "epsilon must be positive"),
    "strong-shadow-of-no-points": (
        lambda sys: strong_shadow_point(sys, [], 1),
        ValueError, "need a non-empty cyclic sequence"),
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
        ValueError, "need positive thresholds and N >= 1"),
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
        ValueError, "epsilon must be positive"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal(call, error, fragment):
    with pytest.raises(error) as raised:
        call(stem_into_cycle())
    assert type(raised.value) is error
    assert fragment in str(raised.value)
