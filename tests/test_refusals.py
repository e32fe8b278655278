"""Refusals of bad arguments, one table row each: the call, the
exception type it must raise, and a fragment of the message.

A refusal that regressed, by raising another type or by dropping its
check and answering, fails its row.  The rows cover the refusals of
``expansive`` and ``recurrence`` that no other fast test runs; each
row runs on a fresh copy of the three-point system s0 -> s1 -> z -> z.
"""

import pytest

from dynlab.expansive import gamma_set, n_expansive_constant
from dynlab.recurrence import (cp_construction, cyclic_decomposition,
                               is_transitive, spectral_decomposition)

from helpers import stem_into_cycle

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
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal(call, error, fragment):
    with pytest.raises(error) as raised:
        call(stem_into_cycle())
    assert type(raised.value) is error
    assert fragment in str(raised.value)
