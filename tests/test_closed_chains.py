"""The tracer-set search behind periodic tracing and local
specification, and the closed-form chain count behind the pairwise
chain, against one walk-listing loop per decision (``oracles``).

Verdicts, certificates, ``instances_checked`` and ``BoundTooSmall``
warnings must all agree.  The tracer-set search counts states, not
listed walks, and the chain count takes no cap, so under a cap the
library may decide where the listing runs out (see
:func:`assert_matches_reference`).  Also here: the binary
best-threshold search against a linear scan, and the sub-minimal
threshold fact that makes ``HypothesisReport.shadowing_populated``
constant.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from dynlab.core import Lasso, _largest_passing, threshold_grid
from dynlab.errors import BoundTooSmall, StateExplosion
from dynlab.gallery import build_random_system, build_xpq
from dynlab.recurrence import hypothesis_report
from dynlab.shadowing import (
    modulus_table,
    periodic_shadowing_holds,
    shadowing_holds,
    strong_periodic_shadowing_holds,
)
from dynlab.specification import (blockify, gap_values, local_spec_holds,
                                  pairwise_tracing_chain)
from dynlab.symbolic import window_system

from helpers import gallery_corpus, seeded_corpus
from oracles import (
    local_spec_reference,
    pairwise_chain_reference,
    periodic_variant_reference,
)

# the properties are exact, so a slow host must not fail them on time
untimed = settings(deadline=None)


def outcome(fn, *args):
    """What a call returns, or its cap hit, with the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except StateExplosion as exc:
            result = ("cap hit", exc.visited, exc.cap)
    return result, [str(w.message) for w in caught]


def hit_cap(result):
    """Whether an :func:`outcome` is a cap hit."""
    return isinstance(result[0], tuple) and result[0][0] == "cap hit"


def assert_matches_reference(run, reference, cap):
    """``run(cap)`` agrees with ``reference(cap)``, both :func:`outcome`s.

    Uncapped, or where the reference decides under the cap, they are
    equal.  Where the reference's walk listing hits the cap, the
    library, whose tracer-set search never holds more states than the
    listing has visited and whose chain count takes no cap, either hits
    it too, at the cap's first excess, or returns the uncapped
    reference outcome.
    """
    got, expected = run(cap), reference(cap)
    if cap is None or not hit_cap(expected):
        assert got == expected
    elif hit_cap(got):
        assert got[0] == ("cap hit", cap + 1, cap)
    else:
        assert got == reference(None)


@st.composite
def cells(draw, max_bound=4):
    """A seeded system of 1..6 points, grid thresholds delta and epsilon,
    a length bound, and a state cap (small caps force cap hits)."""
    sys = build_random_system(draw(st.integers(0, 10 ** 6)),
                              draw(st.integers(1, 6)), draw(st.booleans()))
    grid = threshold_grid(sys).positive
    return (sys, draw(st.sampled_from(grid)), draw(st.sampled_from(grid)),
            draw(st.integers(1, max_bound)),
            draw(st.sampled_from([None, 20, 200])))


@untimed
@given(cells(), st.booleans())
def test_periodic_variants_match_the_reference(cell, strong):
    sys, delta, epsilon, bound, cap = cell
    fn = strong_periodic_shadowing_holds if strong else periodic_shadowing_holds
    assert_matches_reference(
        lambda c: outcome(fn, sys, delta, epsilon, bound, c),
        lambda c: outcome(periodic_variant_reference, sys, delta, epsilon,
                          bound, strong, c),
        cap)


@untimed
@given(cells(), st.integers(1, 3))
def test_local_spec_matches_the_reference(cell, N):
    sys, delta, epsilon, bound, cap = cell
    assert_matches_reference(
        lambda c: outcome(local_spec_holds, sys, epsilon, N, delta, bound, c),
        lambda c: outcome(local_spec_reference, sys, epsilon, N, delta,
                          bound, c),
        cap)


@untimed
@given(cells(max_bound=3))
def test_pairwise_chain_matches_the_reference(cell):
    sys, delta, epsilon, bound, cap = cell
    assert_matches_reference(
        lambda c: outcome(pairwise_tracing_chain, sys, delta, epsilon, bound,
                          c),
        lambda c: outcome(pairwise_chain_reference, sys, delta, epsilon,
                          bound, c),
        cap)


def test_pairwise_chain_decides_where_the_listing_hits_the_cap():
    # the chain count takes no cap, and the three searches stay under it
    sys = build_random_system(2, 3, True)
    top = threshold_grid(sys).positive[-1]
    assert hit_cap(outcome(pairwise_chain_reference, sys, top, top, 2, 10))
    got = outcome(pairwise_tracing_chain, sys, top, top, 2, 10)
    assert got == outcome(pairwise_chain_reference, sys, top, top, 2, None)
    assert got[0]["instances_checked"] == 30


def test_engine_rejects_bad_bounds_and_thresholds():
    sys = build_random_system(3, 4, True)
    calls = [
        lambda: periodic_shadowing_holds(sys, 0, 0, 3),
        lambda: periodic_shadowing_holds(sys, 1, 1, 0),
        lambda: strong_periodic_shadowing_holds(sys, 1, 0, 3),
        lambda: local_spec_holds(sys, 1, 1, 1, k_bound=0),
        lambda: local_spec_holds(sys, 1, 0, 1),
        lambda: pairwise_tracing_chain(sys, 0, 1),
        lambda: pairwise_tracing_chain(sys, 1, 1, k_bound=-1),
    ]
    fixed = Lasso(cycle=(sys.points[0],))
    for N in (0, -1):  # a gap below 1
        calls += [lambda N=N: gap_values(sys, N),
                  lambda N=N: blockify(sys, fixed, N, 1)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_cap_hit_names_its_frontier_state():
    # frontier_sample is (gap, root, vertex, walk length) of the state
    # that went over the cap; the message stays the plain count
    sys = build_random_system(3, 4, True)
    top = threshold_grid(sys).positive[-1]
    calls = [
        (lambda: periodic_shadowing_holds(sys, top, top, 3, cap=4),
         (1, 0, 0, 2)),
        (lambda: strong_periodic_shadowing_holds(sys, top, top, 3, cap=2),
         (1, 2, 2, 1)),
        (lambda: local_spec_holds(sys, top, 2, top, 3, cap=5), (2, 0, 1, 2)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundTooSmall)
        for call, sample in calls:
            with pytest.raises(StateExplosion) as caught:
                call()
            exc = caught.value
            assert exc.frontier_sample == sample
            assert str(exc) == (f"subset search exceeded cap: visited "
                                f"{exc.cap + 1} states (cap {exc.cap})")


@pytest.mark.parametrize("prop, holds", [
    ("periodic", periodic_shadowing_holds),
    ("strong-periodic", strong_periodic_shadowing_holds),
])
def test_window_two_periodic_tables_are_decided(prop, holds, monkeypatch):
    # the closed-walk listing ran into the default cap on this table
    monkeypatch.delenv("DYNLAB_SUBSET_CAP", raising=False)
    sys = window_system(build_xpq(3, 2), 2)
    grid = threshold_grid(sys).positive
    table = modulus_table(sys, prop, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundTooSmall)
        for eps, best in table.rows:
            if best is not None:
                assert holds(sys, best, eps, 8)[0]
            above = [d for d in grid if best is None or d > best]
            if above:
                assert not holds(sys, above[0], eps, 8)[0]


@given(st.lists(st.integers(-50, 50), min_size=1, unique=True),
       st.integers(-60, 60))
def test_largest_passing_matches_a_linear_scan(values, threshold):
    values = sorted(values)
    probed = []

    def at_most_threshold(v):
        probed.append(v)
        return v <= threshold

    expected = max((v for v in values if v <= threshold), default=None)
    assert _largest_passing(values, at_most_threshold) == expected
    assert len(probed) <= 2 + len(values).bit_length()


def test_submin_delta_shadows_at_every_epsilon():
    # why HypothesisReport.shadowing_populated is constant: below the
    # least positive distance every pseudo-orbit is a true orbit
    for sys in list(seeded_corpus(20, 8)) + list(gallery_corpus()):
        grid = threshold_grid(sys)
        for eps in grid.positive:
            assert shadowing_holds(sys, grid.submin, eps) == (True, None)
        assert hypothesis_report(sys).shadowing_populated
