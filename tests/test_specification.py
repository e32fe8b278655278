"""Chain tracing: definitional cross-checks and the block reductions."""

import dataclasses
import itertools
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynlab import specification
from dynlab.core import Lasso, threshold_grid
from dynlab.errors import BoundTooSmall, DynlabError, ModulusViolation
from dynlab.gallery import build_random_system
from dynlab.shadowing import (
    _gap_structures,
    lipschitz_constants,
    modulus_table,
    periodic_shadowing_holds,
    shadowing_holds,
    strong_periodic_shadowing_holds,
)
from dynlab.specification import (
    SpecCertificate,
    blockify,
    eta_modulus,
    gap_values,
    generalized_spec_checks,
    local_spec_holds,
    local_weak_spec_holds,
    pairwise_tracing_chain,
    spec_to_shadow_point,
    trace_chain,
)

from dynlab.gallery import build_xpq
from dynlab.symbolic import window_system

from helpers import (cycle_system, gallery_corpus, random_system,
                     scalene_cycle, seeded_corpus, stem_into_cycle,
                     two_points_identity)
from oracles import gap_structures_reference, two_sided_limit_reference


def all_short_chains(sys, gap, delta, max_k):
    """Every chain with this gap up to length max_k, definitionally."""
    chains = [[p] for p in sys.points]
    out = list(chains)
    for _ in range(max_k - 1):
        nxt = []
        for ch in chains:
            for q in sys.points:
                if sys.d(sys.apply(ch[-1], gap), q) < delta:
                    nxt.append(ch + [q])
        out.extend(nxt)
        chains = nxt
    return [tuple(c) for c in out]


def test_gap_structures_repeat_with_the_claimed_period():
    # the quantifier discharge: everything n-indexed repeats with
    # period P beyond T+P
    for seed in (0, 1, 2):
        sys = random_system(seed=seed, n=5)
        T, P = sys.max_preperiod, sys.cycle_lcm
        grid = threshold_grid(sys)
        delta, eps = grid.positive[1], grid.positive[-2]
        gaps = {n: rest for n, *rest in _gap_structures(
            sys, range(1, T + 4 * P), sys.lt_cutoff(delta),
            sys.lt_cutoff(eps))}
        for n in range(T + P, T + 3 * P):
            assert gaps[n] == gaps[n + P]


def test_weak_chain_tracing_against_short_chain_scan():
    for seed in (0, 3):
        sys = random_system(seed=seed, n=4)
        grid = threshold_grid(sys)
        T, P = sys.max_preperiod, sys.cycle_lcm
        for delta in grid.positive[:2] + grid.positive[-1:]:
            for eps in (grid.positive[0], grid.positive[-1]):
                ok, info = local_weak_spec_holds(sys, eps, 1, delta)
                if ok:
                    # no short chain at any gap (well beyond the bound)
                    # may be untraceable
                    for n in range(1, T + 3 * P):
                        for ch in all_short_chains(sys, n, delta, 3):
                            assert trace_chain(sys, ch, n, eps), (n, ch)
                else:
                    bad = info["counterexample"]
                    assert bad.verify(sys)
                    assert trace_chain(sys, bad.sources, bad.gap, eps) is None


def test_two_point_identity_alternation_is_untraceable():
    sys = two_points_identity()
    for N in (1, 3):
        ok, info = local_weak_spec_holds(sys, Fraction(2, 5), N, Fraction(3, 2))
        assert not ok
        bad = info["counterexample"]
        assert bad.verify(sys)
        assert len(set(bad.sources)) == 2
    ok, info = local_spec_holds(sys, Fraction(2, 5), 1, Fraction(3, 2))
    assert not ok
    assert info["counterexample"].closed


def test_below_least_distance_chains_are_orbit_samples():
    for seed in range(4):
        sys = random_system(seed=seed, n=5, invertible=(seed % 2 == 0))
        sub = threshold_grid(sys).submin
        assert local_weak_spec_holds(sys, sub, 1, sub)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundTooSmall)
            assert local_spec_holds(sys, sub, 1, sub, k_bound=4)[0]


def test_weak_chain_tracing_at_gap_one_is_shadowing():
    # chains with gap 1 are pseudo-orbit prefixes, and bursts of longer
    # gaps refine into gap-1 chains, so the two deciders must agree at
    # every grid pair
    for seed in (2, 5, 6):
        sys = random_system(seed=seed, n=4, invertible=(seed == 5))
        grid = threshold_grid(sys)
        for delta in grid.positive:
            for eps in grid.positive:
                assert (
                    local_weak_spec_holds(sys, eps, 1, delta)[0]
                    == shadowing_holds(sys, delta, eps)[0]
                ), (seed, delta, eps)


def check_gap_range(sys):
    """Each gap n >= N up to N + 2(T + P) has the n-step map and windows
    of some gap in ``gap_values(sys, N)``, at N = 1, 2 and every grid
    epsilon: the range exhausts the quantifier over n >= N."""
    horizon = 2 * (sys.max_preperiod + sys.cycle_lcm)
    for N in (1, 2):
        gaps = specification.gap_values(sys, N)
        for eps in threshold_grid(sys).positive:
            def structure(n):
                _, step, allowed = gap_structures_reference(sys, n, eps, eps)
                return tuple(step), allowed
            covered = set(map(structure, gaps))
            assert all(structure(n) in covered
                       for n in range(N, N + horizon + 1)), (N, eps)


def test_gap_range_covers_every_gap():
    for sys in (scalene_cycle(), cycle_system(3), stem_into_cycle(),
                random_system(seed=13, n=4, invertible=True),
                random_system(seed=5, n=6)):
        check_gap_range(sys)


def test_closed_chain_tracing_sits_between_periodic_variants():
    # strong periodic tracing at a bound covering k*n implies closed
    # chain tracing, which implies plain periodic tracing
    systems = [
        cycle_system(3),
        two_points_identity(),
        stem_into_cycle(),
        random_system(seed=13, n=4, invertible=True),
    ]
    k_bound = 2
    for sys in systems:
        grid = threshold_grid(sys)
        gaps = gap_values(sys, 1)
        big_bound = k_bound * max(gaps)
        for delta in grid.positive:
            for eps in grid.positive:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", BoundTooSmall)
                    strong = strong_periodic_shadowing_holds(
                        sys, delta, eps, big_bound
                    )[0]
                    mid, info = local_spec_holds(sys, eps, 1, delta, k_bound)
                    plain = periodic_shadowing_holds(sys, delta, eps, k_bound)[0]
                if strong:
                    assert mid, (delta, eps)
                if mid:
                    assert plain, (delta, eps)
                else:
                    # the counterexample is a closed delta-chain
                    assert info["counterexample"].verify(sys), (delta, eps)


def test_blockify_true_orbit_is_free():
    sys = cycle_system(3)
    orbit = Lasso(cycle=tuple(sys.points))
    for N in (1, 2, 3):
        blocked = blockify(sys, orbit, N, threshold_grid(sys).submin)
        assert all(t == 0 for terms in blocked.terms for t in terms)
        assert blocked.instance.verify(sys)


def test_blockify_telescoping_and_violation():
    sys = cycle_system(3)
    drift = Lasso(cycle=("c0", "c0", "c1"))  # step errors 1, 0, 1
    blocked = blockify(sys, drift, 2, Fraction(3))
    assert blocked.lasso.cycle == ("c0", "c1", "c0")
    assert blocked.instance.verify(sys)
    assert [sum(t) for t in blocked.terms] == [1, 2, 1]
    with pytest.raises(ModulusViolation) as exc:
        blockify(sys, drift, 2, Fraction(2))
    assert exc.value.block == 1
    assert exc.value.terms == (1, 1)


def test_blocked_seam_bound_dominates_actual_gap():
    # the telescoped sum is an upper bound for the real seam distance
    for seed in (4, 7):
        sys = random_system(seed=seed, n=5)
        lasso = Lasso(
            stem=(sys.points[0],),
            cycle=(sys.points[1], sys.points[3], sys.points[2]),
        )
        top = threshold_grid(sys).top * 4
        for N in (1, 2, 3):
            blocked = blockify(sys, lasso, N, top)
            y = blocked.lasso
            for i, terms in enumerate(blocked.terms):
                gap = sys.d(sys.apply(y[i], N), y[i + 1])
                assert gap <= sum(terms)


def test_eta_modulus_is_exact_worst_spread():
    sys = random_system(seed=1, n=5)
    for delta1 in threshold_grid(sys).positive:
        for N in (1, 2):
            worst = Fraction(0)
            for u in sys.points:
                for v in sys.points:
                    if sys.d(u, v) < delta1:
                        for i in range(N + 1):
                            worst = max(
                                worst, sys.d(sys.apply(u, i), sys.apply(v, i))
                            )
            assert eta_modulus(sys, delta1, N) == worst


def test_chain_route_shadow_point_on_true_orbit():
    sys = cycle_system(3)
    orbit = Lasso(cycle=tuple(sys.points))
    z, cert = spec_to_shadow_point(sys, orbit, 1, Fraction(1))
    assert z == sys.points[0]
    assert cert.verify(sys)
    # c0 traces the one-source chain (c0,) at gap 1, but f(c0) = c1, so
    # not as a periodic tracer
    own = SpecCertificate("c0", ("c0",), 1, Fraction(1), False)
    assert own.verify(sys)
    assert not dataclasses.replace(own, periodic=True).verify(sys)


def test_chain_route_shadow_point_verifies_against_original():
    sys = random_system(seed=10, n=4)
    lasso = Lasso(cycle=(sys.points[2],))  # constant at some point
    # a constant sequence at x is a pseudo-orbit at level d(f(x),x)+;
    # the chain route must produce a genuine tracer or refuse loudly
    eps = threshold_grid(sys).top
    z, cert = spec_to_shadow_point(sys, lasso, 1, eps)
    assert cert.verify(sys)


def test_chain_route_refuses_without_eta_margin():
    sys = two_points_identity()
    alternating = Lasso(cycle=("a", "b"))
    with pytest.raises(ValueError):
        spec_to_shadow_point(sys, alternating, 1, Fraction(1))


def test_spec_tables_are_populated_with_gap_requirement_one():
    for seed in (0, 8):
        sys = random_system(seed=seed, n=4)
        weak = modulus_table(sys, "spec-weak")
        assert weak.populated()
        assert all(local_weak_spec_holds(sys, eps, 1, delta)[0]
                   for eps, delta in weak.rows)
        full = modulus_table(sys, "spec-full", 4)
        assert full.populated()


def test_spec_rows_take_gap_one_on_the_corpus():
    # why N = 1 suffices: at the sub-minimal delta every chain is a true
    # orbit, which traces itself, so every row has a passing delta there
    for sys in [*gallery_corpus(), *seeded_corpus(20, 7)]:
        if sys.n > 12:
            continue
        grid = threshold_grid(sys)
        for eps in grid.positive:
            assert local_weak_spec_holds(sys, eps, 1, grid.submin)[0]
            assert local_spec_holds(sys, eps, 1, grid.submin)[0]
        for prop in ("spec-weak", "spec-full"):
            table = modulus_table(sys, prop, 6)
            assert table.populated()
            assert all(delta in grid.positive for _, delta in table.rows)


def test_generalized_variants():
    sys = cycle_system(3)
    tail_exact = Lasso(stem=("c2", "c2"), cycle=("c2", "c0", "c1"))
    out = generalized_spec_checks(sys, "limit", tail_exact)
    assert out["holds"] and out["point"] == "c0"
    broken = Lasso(cycle=("c0", "c2"))
    assert not generalized_spec_checks(sys, "limit", broken)["holds"]

    env = generalized_spec_checks(sys, "lipschitz")
    assert env["envelope"] == lipschitz_constants(sys)

    inv = random_system(seed=5, n=4, invertible=True)
    env2 = generalized_spec_checks(inv, "lipschitz")
    assert env2["envelope"] == lipschitz_constants(inv)


def test_generalized_two_sided_variant():
    from dynlab.core import build_finite_system

    pts = ("a0", "a1", "b0", "b1")
    dist = [
        [0 if i == j else (1 if pts[i][0] == pts[j][0] else 10) for j in range(4)]
        for i in range(4)
    ]
    fmap = ("a1", "a0", "b1", "b0")
    sys = build_finite_system(pts, dist, fmap, invertible=True)
    joined = Lasso(stem=(), cycle=("a0", "a1"), two_sided=True,
                   past_cycle=("a0", "a1"))
    split = Lasso(stem=(), cycle=("b0", "b1"), two_sided=True,
                  past_cycle=("a0", "a1"))
    assert generalized_spec_checks(sys, "two-sided", joined) == {
        "variant": "two-sided", "holds": True, "point": "a0"}
    assert generalized_spec_checks(sys, "two-sided", split) == {
        "variant": "two-sided", "holds": False, "point": None}


def two_sided_outcome(call):
    """What a two-sided limit question answers, or the type and message
    of its refusal."""
    try:
        return call()
    except (ValueError, DynlabError) as exc:
        return type(exc), str(exc)


def check_two_sided(sys, lasso):
    """The two-sided variant answers as the point scan it replaced
    (``oracles.two_sided_limit_reference``): the same point, held iff
    there is one, or the same refusal."""
    def closed_form():
        out = generalized_spec_checks(sys, "two-sided", lasso)
        assert out["holds"] == (out["point"] is not None)
        return out["point"]

    assert two_sided_outcome(closed_form) == two_sided_outcome(
        lambda: two_sided_limit_reference(sys, lasso)), lasso


def orbit_cycle(sys, x, rounds=1):
    """The orbit of x over ``rounds`` rounds of its cycle: an exact
    cycle of f when x is periodic."""
    period = len(sys.cycle(sys.index[x]))
    return tuple(sys.apply(x, k) for k in range(rounds * period))


def check_two_sided_corpus():
    """Every pairing of exact future and past cycles, each run from each
    of its points, after stems of 0-2 points, on a 3-cycle and seeded
    bijections; some pairings join and some do not."""
    answers = set()
    for sys in (cycle_system(3), *(random_system(seed, 2 + seed % 6, True)
                                   for seed in range(8))):
        for x, y in itertools.product(sys.points, repeat=2):
            for stem in ((), sys.points[:1], sys.points[-2:]):
                lasso = Lasso(stem, orbit_cycle(sys, x), two_sided=True,
                              past_cycle=orbit_cycle(sys, y))
                check_two_sided(sys, lasso)
                answers.add(generalized_spec_checks(
                    sys, "two-sided", lasso)["holds"])
    assert answers == {True, False}


def test_two_sided_closed_form_matches_the_point_scan():
    check_two_sided_corpus()


@st.composite
def two_sided_cases(draw):
    """A seeded system of 1-9 points, most of them bijections, and a
    lasso over its points: a stem of 0-3 points, and future and past
    tails that are each an exact cycle over 1-2 rounds or any 1-3
    points; the past is sometimes left to default to the future, and
    some lassos are one-sided."""
    sys = build_random_system(draw(st.integers(0, 10 ** 6)),
                              draw(st.integers(1, 9)),
                              draw(st.integers(0, 5)) > 0)

    def tail():
        if draw(st.booleans()):
            return orbit_cycle(sys, draw(st.sampled_from(sys.points)),
                               draw(st.integers(1, 2)))
        return tuple(draw(st.lists(st.sampled_from(sys.points),
                                   min_size=1, max_size=3)))

    stem = tuple(draw(st.lists(st.sampled_from(sys.points), max_size=3)))
    shape = draw(st.sampled_from(("past", "default past", "one-sided")))
    if shape == "one-sided":
        return sys, Lasso(stem, tail())
    past = tail() if shape == "past" else None
    return sys, Lasso(stem, tail(), two_sided=True, past_cycle=past)


@settings(deadline=None, max_examples=300)
@given(two_sided_cases())
def test_two_sided_variant_matches_the_point_scan(case):
    check_two_sided(*case)


def test_bound_warnings_name_the_calling_line():
    sys = window_system(build_xpq(3, 2), 1)
    top = threshold_grid(sys).top
    calls = {
        "periodic": lambda: periodic_shadowing_holds(sys, top, top, 2),
        "local spec": lambda: local_spec_holds(sys, top, 1, top, 2),
        "pairwise": lambda: pairwise_tracing_chain(sys, top, top, 2),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BoundTooSmall)
            call()
        files = {w.filename for w in caught
                 if issubclass(w.category, BoundTooSmall)}
        assert files == {__file__}, name
