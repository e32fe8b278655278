"""Chain tracing: definitional cross-checks and the block reductions."""

import warnings
from fractions import Fraction

import pytest

from dynlab.core import Lasso, threshold_grid
from dynlab.errors import BoundTooSmall, ModulusViolation
from dynlab.shadowing import (
    lipschitz_constants,
    periodic_shadowing_holds,
    shadowing_holds,
    strong_periodic_shadowing_holds,
)
from dynlab.specification import (
    _gap_structures,
    blockify,
    eta_modulus,
    gap_values,
    generalized_spec_checks,
    local_spec_holds,
    local_weak_spec_holds,
    modulus_table_for_spec,
    spec_to_shadow_point,
    trace_chain,
)

from helpers import cycle_system, random_system, stem_into_cycle, two_points_identity


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
            sys, range(1, T + 4 * P), delta, eps)}
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
        for delta in grid.positive[:2]:
            for eps in grid.positive:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", BoundTooSmall)
                    strong = strong_periodic_shadowing_holds(
                        sys, delta, eps, big_bound
                    )[0]
                    mid = local_spec_holds(sys, eps, 1, delta, k_bound)[0]
                    plain = periodic_shadowing_holds(sys, delta, eps, k_bound)[0]
                if strong:
                    assert mid, (delta, eps)
                if mid:
                    assert plain, (delta, eps)


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
        weak = modulus_table_for_spec(sys, "weak")
        assert weak.populated()
        assert all(N == 1 for _, (N, _) in weak.rows)
        full = modulus_table_for_spec(sys, "full", k_bound=4)
        assert full.populated()


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
    assert generalized_spec_checks(sys, "two-sided", joined)["holds"]
    assert not generalized_spec_checks(sys, "two-sided", split)["holds"]
