"""Indistinguishability sets, the measure reduction, and stable sets.

The hierarchy's predicates compare one cutoff with per-system floors;
``check_hierarchy`` compares every answer they give, the strong measure
counterexample, the n-expansive constants and the hypothesis report
with the scans of the whole spread in ``tests/oracles.py``, on seeded
random systems and window systems.  ``tests/test_mutations.py`` plants
a fault under it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynlab import expansive
from dynlab.battery import run_theorem_battery
from dynlab.core import threshold_grid
from dynlab.errors import NotInvertible
from dynlab.gallery import build_myex, build_xpq
from dynlab.recurrence import hypothesis_report, spectral_decomposition
from dynlab.symbolic import build_sft, window_system
from dynlab.expansive import (
    enumerate_ergodic_measures,
    expansive_on_per,
    gamma_set,
    measure_expansive_holds,
    n_expansive_constant,
    n_expansive_holds,
    orbit_spread,
    stable_sets,
    strong_measure_expansive_holds,
    theorem_stableset_check,
)

from helpers import cycle_system, random_system, stem_into_cycle, two_points_identity
from oracles import (expansive_on_per_reference, gamma_window_points,
                     hypothesis_report_reference,
                     n_expansive_constant_reference, n_expansive_reference,
                     strong_measure_reference)

# the properties are exact, so a slow host must not fail them on time
untimed = settings(deadline=None)


def check_hierarchy(sys):
    """Every hierarchy answer at every grid delta and n = 1..sys.n + 1,
    the strong measure counterexample, the n-expansive constants and the
    hypothesis report, against the scans of the spread."""
    for delta in threshold_grid(sys).positive:
        for n in range(1, sys.n + 2):
            assert (n_expansive_holds(sys, n, delta)
                    == n_expansive_reference(sys, n, delta))
        holds, witness = strong_measure_expansive_holds(sys, delta)
        if witness is not None:
            witness = (witness[0], witness[1].weights)
        assert (holds, witness) == strong_measure_reference(sys, delta)
        assert expansive_on_per(sys, delta) == expansive_on_per_reference(
            sys, delta)
    for n in range(1, sys.n + 2):
        assert n_expansive_constant(sys, n) == n_expansive_constant_reference(
            sys, n)
    report = hypothesis_report(sys)
    assert ((report.invertible, report.strong_constant,
             report.strong_fails_at) == hypothesis_report_reference(sys))


def window(recipe):
    """A window system of the xpq(3,2) or xpq(5,3) shift, the golden
    mean shift or the full 2-shift."""
    name, w = recipe
    if name == "golden":
        sft = build_sft("ab", [("a", "a"), ("a", "b"), ("b", "a")])
    elif name == "full":
        sft = build_sft("ab", [(u, v) for u in "ab" for v in "ab"])
    else:
        sft = build_xpq(*name)
    return window_system(sft, w)


WINDOWS = (((3, 2), 1), ((3, 2), 2), ((5, 3), 1), ("golden", 1),
           ("golden", 2), ("golden", 3), ("full", 1), ("full", 2))


@untimed
@given(st.integers(0, 10 ** 6), st.integers(1, 9), st.booleans())
def test_hierarchy_floors_match_the_spread_scans(seed, size, invertible):
    check_hierarchy(random_system(seed, size, invertible))


@untimed
@given(st.sampled_from(WINDOWS))
def test_hierarchy_floors_match_the_spread_scans_on_windows(recipe):
    check_hierarchy(window(recipe))


def test_battery_and_decomposition_build_each_floor_once(monkeypatch):
    builds = []

    def count(name):
        build = getattr(expansive, name)

        def counted(sys):
            builds.append((name, sys))
            return build(sys)

        monkeypatch.setattr(expansive, name, counted)

    count("_build_n_floors")
    count("_build_periodic_floors")
    sys = build_myex(5, 3).system
    spectral_decomposition(sys)
    run_theorem_battery(sys, "hierarchy")
    once = [("_build_periodic_floors", sys), ("_build_n_floors", sys)]
    assert builds == once
    run_theorem_battery(sys, "hierarchy")
    spectral_decomposition(sys)
    assert builds == once


def test_spread_matches_long_unrolled_window():
    for seed in (0, 1, 2):
        sys = random_system(seed=seed, n=6, invertible=(seed == 1))
        spread = orbit_spread(sys)
        horizon = sys.max_preperiod + sys.cycle_lcm + 40
        for a in range(sys.n):
            for b in range(sys.n):
                worst = max(
                    sys.dist[sys.power(a, k)][sys.power(b, k)]
                    for k in range(horizon)
                )
                assert spread[a][b] == worst


def test_gamma_membership_is_a_threshold_on_spread():
    sys = random_system(seed=4, n=5)
    grid = threshold_grid(sys)
    for x in sys.points:
        prev = set()
        for delta in grid.positive:
            g = gamma_set(sys, x, delta)
            assert x in g.members
            assert set(g.members) == {
                y for y in sys.points if g.spread[y] <= delta
            }
            assert prev <= set(g.members)  # monotone in delta
            prev = set(g.members)
        assert gamma_set(sys, x, grid.submin).members == (x,)
        # independent: unrolled window with non-strict comparison
        assert set(gamma_set(sys, x, grid.positive[1]).members) == set(
            gamma_window_points(sys, x, grid.positive[1], 60)
        )


def test_gamma_is_stable_intersect_unstable_on_bijections():
    sys = random_system(seed=9, n=6, invertible=True)
    for x in sys.points:
        for delta in threshold_grid(sys).positive:
            g = set(gamma_set(sys, x, delta).members)
            sets = stable_sets(sys, x, delta)
            assert g == set(sets.s_local) & set(sets.u_local)


def test_three_cycle_gamma_and_constant():
    sys = cycle_system(3)  # pairwise distance 1
    assert set(gamma_set(sys, "c0", Fraction(3, 2)).members) == set(sys.points)
    assert gamma_set(sys, "c0", Fraction(1, 2)).members == ("c0",)
    # membership is non-strict, so 1-expansiveness is lost exactly AT 1
    assert n_expansive_constant(sys, 1) == Fraction(1, 2)
    assert n_expansive_constant(sys, 3) == threshold_grid(sys).top


def test_constant_is_the_last_passing_grid_value():
    for seed in (3, 5):
        sys = random_system(seed=seed, n=5)
        grid = threshold_grid(sys)
        for n in (1, 2, sys.n):
            c = n_expansive_constant(sys, n)
            assert c is not None and n_expansive_holds(sys, n, c)
            later = [d for d in grid.positive if d > c]
            if later:
                assert not n_expansive_holds(sys, n, later[0])


def test_ergodic_measures_are_cycle_uniform():
    sys = two_points_identity()
    measures = enumerate_ergodic_measures(sys)
    assert len(measures) == 2
    assert sorted(m.weights for m in measures) == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]
    for seed in range(4):
        rsys = random_system(seed=seed, n=6, invertible=(seed % 2 == 0))
        ms = enumerate_ergodic_measures(rsys)
        for m in ms:
            assert m.is_invariant(rsys)
            support = [i for i, w in enumerate(m.weights) if w > 0]
            assert all(w == Fraction(1, len(support)) for w in (
                m.weights[i] for i in support))


def test_measure_reduction_against_convex_combinations():
    # the per-cycle counting condition must agree with the literal
    # "for every invariant measure" condition; invariant measures are
    # exactly convex combinations of the cycle-uniform ones
    rng = random.Random(171)
    for seed in range(5):
        sys = random_system(seed=seed, n=5, invertible=(seed % 2 == 1))
        ergodic = enumerate_ergodic_measures(sys)
        mixtures = []
        for _ in range(6):
            raw = [Fraction(rng.randrange(0, 5)) for _ in ergodic]
            if sum(raw) == 0:
                raw[0] = Fraction(1)
            total = sum(raw)
            weights = tuple(
                sum((r / total) * m.weights[i] for r, m in zip(raw, ergodic))
                for i in range(sys.n)
            )
            mixtures.append(weights)
        for delta in threshold_grid(sys).positive:
            ok, counter = strong_measure_expansive_holds(sys, delta)
            literal = True
            for weights in mixtures:
                for x in sys.points:
                    g = gamma_set(sys, x, delta)
                    mu_gamma = sum(weights[sys.index[y]] for y in g.members)
                    if mu_gamma != weights[sys.index[x]]:
                        literal = False
            if ok:
                assert literal
            else:
                x, measure = counter
                assert measure.is_invariant(sys)
                g = gamma_set(sys, x, delta)
                assert measure.mass(sys, g.members) != measure.mass(sys, (x,))


def test_measure_expansive_is_vacuous():
    sys = random_system(seed=2, n=4)
    assert measure_expansive_holds(sys, Fraction(1, 7)) == (True, "vacuous")


def test_hierarchy_laws_on_random_systems():
    for seed in range(6):
        sys = random_system(seed=seed, n=5, invertible=(seed % 3 == 0))
        for delta in threshold_grid(sys).positive:
            one = n_expansive_holds(sys, 1, delta)
            strong = strong_measure_expansive_holds(sys, delta)[0]
            if one:
                assert strong
            if strong:
                assert measure_expansive_holds(sys, delta)[0]
                assert expansive_on_per(sys, delta)
            for n in (1, 2, 3):
                if n_expansive_holds(sys, n, delta):
                    assert n_expansive_holds(sys, n + 1, delta)


def test_periodic_distinguishability_uses_periodic_points_only():
    sys = stem_into_cycle()  # only z is periodic
    for delta in threshold_grid(sys).positive:
        assert expansive_on_per(sys, delta)  # one periodic point, no pairs


def test_stable_sets_on_bijections_and_collapses():
    inv = random_system(seed=8, n=5, invertible=True)
    for x in inv.points:
        sets = stable_sets(inv, x, threshold_grid(inv).submin)
        assert sets.s_global == (x,)
        assert sets.u_global == (x,)
        assert sets.s_local == (x,)
        assert sets.u_local == (x,)
    merge = stem_into_cycle()
    sets = stable_sets(merge, "z", Fraction(5))
    assert set(sets.s_global) == {"s0", "s1", "z"}
    assert sets.u_local is None
    with pytest.raises(NotInvertible):
        stable_sets(merge, "z", Fraction(1), include_unstable=True)


def test_stableset_inclusion_probe():
    sys = cycle_system(3)
    assert theorem_stableset_check(sys, Fraction(1, 2))
    # at epsilon=1 every point is in every local stable set, but global
    # stable sets on a bijection are singletons
    assert not theorem_stableset_check(sys, Fraction(1))
    one = cycle_system(1)
    assert theorem_stableset_check(one, Fraction(7))