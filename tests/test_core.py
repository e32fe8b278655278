import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dynlab.core import (
    FiniteSystem,
    Lasso,
    ThresholdGrid,
    _cached,
    as_fraction,
    build_finite_system,
    is_periodic_pseudo_orbit,
    is_pseudo_orbit,
    shadows,
    threshold_grid,
)
from dynlab.errors import MetricViolation, NotABijection, NotInvertible
from dynlab.gallery import build_random_system

from helpers import (
    all_lassos,
    cycle_system,
    random_system,
    stem_into_cycle,
    two_points_identity,
    unrolled_pseudo_orbit,
    unrolled_shadows,
)
from oracles import (le_cutoff_reference, lt_cutoff_reference,
                     orbits_reference, threshold_grid_reference)


def test_metric_validation_triangle():
    dist = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    with pytest.raises(MetricViolation) as err:
        build_finite_system(("a", "b", "c"), dist, ("a", "b", "c"))
    assert err.value.axiom == "triangle"
    assert set(err.value.points) == {"a", "b", "c"}


def test_metric_validation_symmetry_and_identity():
    with pytest.raises(MetricViolation) as err:
        build_finite_system(("a", "b"), [[0, 1], [2, 0]], ("a", "b"))
    assert err.value.axiom == "symmetry"
    with pytest.raises(MetricViolation) as err:
        build_finite_system(("a", "b"), [[1, 1], [1, 0]], ("a", "b"))
    assert err.value.axiom == "identity"
    with pytest.raises(MetricViolation) as err:
        build_finite_system(("a", "b"), [[0, 0], [0, 0]], ("a", "b"))
    assert err.value.axiom == "positivity"


def test_invertibility_flag():
    pts = ("a", "b")
    dist = [[0, 1], [1, 0]]
    with pytest.raises(NotABijection):
        build_finite_system(pts, dist, ("a", "a"), invertible=True)
    # a bijection may still be run on one-sided time
    sys_ = build_finite_system(pts, dist, ("b", "a"), invertible=False)
    assert not sys_.invertible
    assert build_finite_system(pts, dist, ("b", "a")).invertible


def test_malformed_systems_are_refused():
    dist = [[0, 1], [1, 0]]
    cases = [
        (("a", "a"), dist, ("a", "a"), None, "duplicate point"),
        ((), [], (), None, "at least one point"),
        (("a", "b"), [[0, 1], [1]], ("a", "b"), None, "shape"),
        (("a", "b"), dist, ("a", "c"), None, "outside the space: 'c'"),
        (("a", "b"), dist, ("a",), None, "map length"),
        (("a", "b"), dist, ("b", "a"), [["a"]], "relation length"),
    ]
    for points, table, fmap, relation, message in cases:
        with pytest.raises(ValueError, match=message):
            build_finite_system(points, table, fmap, relation=relation)


def test_orbit_powers_match_iteration():
    for seed in range(6):
        sys_ = random_system(seed, 7)
        for p in sys_.points:
            q = p
            for k in range(40):
                assert sys_.apply(p, k) == q
                q = sys_.apply(q)


def test_negative_powers_on_permutations():
    sys_ = random_system(3, 6, invertible=True)
    for p in sys_.points:
        for k in range(-15, 15):
            assert sys_.apply(sys_.apply(p, k), -k) == p
    with pytest.raises(NotInvertible):
        stem_into_cycle().apply("s0", -1)


def discrete_system(fmap):
    """Points 0..n-1 at mutual distance 1 under the map ``fmap``."""
    n = len(fmap)
    return build_finite_system(
        range(n), [[int(i != j) for j in range(n)] for i in range(n)], fmap)


@st.composite
def self_maps(draw):
    """A random self-map, relabelled at random: uniform, a permutation,
    one long cycle, or tails of random lengths into one cycle, each
    entering the cycle or an earlier tail."""
    kind = draw(st.sampled_from(("uniform", "permutation", "cycle", "tails")))
    if kind == "uniform":
        n = draw(st.integers(1, 30))
        fmap = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    elif kind == "permutation":
        fmap = draw(st.permutations(range(draw(st.integers(1, 30)))))
    elif kind == "cycle":
        n = draw(st.integers(1, 60))
        fmap = [(i + 1) % n for i in range(n)]
    else:
        period = draw(st.integers(1, 8))
        fmap = [(i + 1) % period for i in range(period)]
        for length in draw(st.lists(st.integers(1, 20), min_size=1,
                                    max_size=4)):
            target = draw(st.integers(0, len(fmap) - 1))
            fmap += [*range(len(fmap) + 1, len(fmap) + length), target]
    labels = draw(st.permutations(range(len(fmap))))
    relabelled = [0] * len(fmap)
    for i, j in enumerate(fmap):
        relabelled[labels[i]] = labels[j]
    return relabelled


def check_orbit_table(sys_):
    """The orbit table, and what is read off it, against one walk per
    start and against iterating the map (its inverse for negative k)."""
    prefixes, cycles = orbits_reference(sys_)
    assert sys_._orbits == (prefixes, cycles)
    assert sys_.max_preperiod == max(map(len, prefixes))
    assert sys_.cycle_lcm == math.lcm(*map(len, cycles))
    assert sys_.periodic_indices() == tuple(
        i for i, prefix in enumerate(prefixes) if not prefix)
    least = {cycle[cycle.index(min(cycle)):] + cycle[:cycle.index(min(cycle))]
             for cycle in cycles}
    assert sys_._cycles == tuple(sorted(least))
    steps = [sys_.fmap]
    if sys_.invertible:
        inverse = [0] * sys_.n
        for i, j in enumerate(sys_.fmap):
            inverse[j] = i
        steps.append(inverse)
    for sign, step in zip((1, -1), steps):
        for i in range(sys_.n):
            v = i
            for k in range(2 * sys_.n + 2):
                assert sys_.power(i, sign * k) == v, (i, sign * k)
                v = step[v]


@settings(deadline=None)
@given(self_maps())
def test_orbit_table_matches_one_walk_per_start(fmap):
    check_orbit_table(discrete_system(fmap))


class CountedMap(tuple):
    """A map whose reads are counted in ``reads``."""

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_orbit_table_reads_each_image_at_most_twice():
    # a tail of 1,000 points into a 1,000-cycle: one walk per start reads
    # about 2.5 million images.  The builder refuses 2,000 points, and
    # the table reads only n and the map, so it is built on a stand-in
    fmap = CountedMap([*range(1, 2000), 1000])
    fmap.reads = 0
    prefixes, cycles = FiniteSystem._orbits.build(
        SimpleNamespace(n=len(fmap), fmap=fmap))
    assert fmap.reads <= 2 * len(fmap)
    assert prefixes[0] == tuple(range(1000))
    assert cycles[0] == cycles[1000] == tuple(range(1000, 2000))
    assert cycles[1999] == (1999, *range(1000, 1999))


def test_lasso_indexing_two_sided():
    l = Lasso(stem=("a", "b"), cycle=("c", "d", "e"), two_sided=True)
    assert [l[i] for i in range(2, 8)] == ["c", "d", "e", "c", "d", "e"]
    assert [l[i] for i in (-3, -2, -1)] == ["c", "d", "e"]
    l2 = Lasso(stem=("a",), cycle=("c",), two_sided=True, past_cycle=("u", "v"))
    assert [l2[i] for i in (-4, -3, -2, -1, 0, 1)] == ["u", "v", "u", "v", "a", "c"]


def test_pseudo_orbit_strict_inequality():
    sys_ = two_points_identity()
    alternating = Lasso(cycle=("a", "b"))
    # steps have size exactly 1: not a 1-pseudo-orbit, but a (1+)-pseudo-orbit
    assert not is_pseudo_orbit(sys_, alternating, 1)
    assert is_pseudo_orbit(sys_, alternating, Fraction(3, 2))
    assert is_periodic_pseudo_orbit(sys_, alternating, Fraction(3, 2)) == 2
    assert is_periodic_pseudo_orbit(sys_, alternating, 1) is None
    assert is_periodic_pseudo_orbit(sys_, Lasso(stem=("a",), cycle=("b",)), 2) is None


def test_pseudo_orbit_matches_unrolled_definition():
    rng = random.Random(9)
    for seed in range(5):
        sys_ = random_system(seed, 5, invertible=seed % 2 == 0)
        grid = threshold_grid(sys_)
        for _ in range(40):
            stem = tuple(rng.choice(sys_.points) for _ in range(rng.randrange(3)))
            cyc = tuple(rng.choice(sys_.points) for _ in range(rng.randint(1, 3)))
            two = sys_.invertible and rng.random() < 0.5
            l = Lasso(stem=() if two and rng.random() < 0.5 else stem, cycle=cyc,
                      two_sided=two)
            for delta in grid.positive:
                assert is_pseudo_orbit(sys_, l, delta) == unrolled_pseudo_orbit(
                    sys_, l, delta, 60
                )


def test_shadows_matches_unrolled_definition():
    rng = random.Random(4)
    for seed in range(4):
        sys_ = random_system(seed, 5, invertible=seed % 2 == 0)
        grid = threshold_grid(sys_)
        lassos = [l for l in all_lassos(sys_, 3)]
        rng.shuffle(lassos)
        for l in lassos[:60]:
            if sys_.invertible and rng.random() < 0.5:
                l = Lasso(stem=l.stem, cycle=l.cycle, two_sided=True)
            for eps in (grid.submin, grid.positive[len(grid.positive) // 2], grid.top):
                for p in sys_.points:
                    assert shadows(sys_, p, l, eps) == unrolled_shadows(
                        sys_, p, l, eps, 120
                    )


def check_two_sided_shadows(sys_):
    """shadows equals the unrolled definition on every two-sided lasso
    whose stem (maybe empty), cycle and past have at most two entries,
    at every grid epsilon."""
    words = [w for k in (1, 2) for w in itertools.product(sys_.points, repeat=k)]
    for stem, cycle, past in itertools.product([()] + words, words, words):
        lasso = Lasso(stem, cycle, two_sided=True, past_cycle=past)
        for eps in threshold_grid(sys_).positive:
            for p in sys_.points:
                assert shadows(sys_, p, lasso, eps) == unrolled_shadows(
                    sys_, p, lasso, eps, 12), (p, lasso, eps)


def test_shadows_matches_unrolled_definition_on_every_short_past():
    check_two_sided_shadows(cycle_system(2))
    check_two_sided_shadows(two_points_identity())


def test_shadows_two_sided_needs_invertible():
    sys_ = stem_into_cycle()
    with pytest.raises(NotInvertible):
        shadows(sys_, "z", Lasso(cycle=("z",), two_sided=True), 1)


def test_cached_attribute_read_on_the_class_is_its_descriptor():
    # so help() and inspect see the build function's docstring
    attr = FiniteSystem.dist
    assert isinstance(attr, _cached) and attr.name == "dist"
    assert attr.__doc__ == attr.build.__doc__


def test_threshold_grid_one_point():
    sys_ = build_finite_system(("x",), [[0]], ("x",))
    assert threshold_grid(sys_).values == (0, 1)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(1, 7), st.booleans())
def test_grid_built_in_order_is_the_sorted_set_grid(seed, size, invertible):
    # one-point systems included: their grid is 0 and 1
    sys_ = build_random_system(seed, size, invertible)
    grid, values = threshold_grid(sys_), threshold_grid_reference(sys_)
    assert grid.values == values
    assert grid.positive == tuple(v for v in values if v > 0)


def test_grid_built_by_hand_keeps_its_positive_values():
    grid = ThresholdGrid((Fraction(1, 2), Fraction(0), Fraction(3)))
    assert grid.positive == (Fraction(1, 2), Fraction(3))
    assert grid.submin == Fraction(1, 2) and grid.top == Fraction(3)


def test_threshold_grid_three_points_distance_one():
    sys_ = cycle_system(3)
    values = threshold_grid(sys_).values
    assert Fraction(0) in values and Fraction(1) in values
    assert any(0 < v < 1 for v in values)
    assert values == tuple(sorted(values))
    assert threshold_grid(sys_).top > sys_.max_distance


def test_predicates_constant_between_grid_values():
    sys_ = random_system(11, 5)
    grid = threshold_grid(sys_)
    lassos = list(all_lassos(sys_, 3))[:200]
    for lo, hi in zip(grid.values, grid.values[1:]):
        mid = (lo + hi) / 2
        probes = [lo + (hi - lo) / 4, mid, hi]  # anywhere in (lo, hi]
        for l in lassos[::17]:
            answers = {is_pseudo_orbit(sys_, l, q) for q in probes}
            assert len(answers) == 1


def test_as_fraction_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="'1/0'"):
        as_fraction("1/0")
    with pytest.raises(ValueError, match="'-3/0'"):
        as_fraction("-3/0")
    assert as_fraction("6/4") == Fraction(3, 2)


def test_as_fraction_bounds_the_decimal_exponent():
    # Fraction would build 10**99999999 before returning
    for text in ("1e-99999999", "1e99999999", "2E+4301", "1e" + "9" * 9000):
        with pytest.raises(ValueError, match="exponent out of range"):
            as_fraction(text)
    assert as_fraction("0.5") == Fraction(1, 2)
    assert as_fraction("1e-3") == Fraction(1, 1000)
    assert as_fraction(" 1e-4_299 ") == Fraction(1, 10 ** 4299)


def test_as_fraction_bounds_the_digit_count():
    # accepted values must print: str() refuses ints above 4300 digits
    for text in ("1e-4300", " 1e-4_300 ", "1e4300", "-1e4300",
                 "9" * 4000 + "e1000"):
        with pytest.raises(ValueError, match="too many digits in '"):
            as_fraction(text)
    assert str(as_fraction("1e-4299")) == "1/1" + "0" * 4299
    assert str(as_fraction("-1e4299")) == "-1" + "0" * 4299
    assert str(as_fraction("9" * 4000 + "e300")) == "9" * 4000 + "0" * 300


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(1, 7), st.booleans(), st.data())
def test_integer_cutoffs_match_the_fraction_bisection(seed, size, invertible,
                                                      data):
    # at every distance, between distances, at the grid's sentinels, a
    # hair off each distance (a denominator longer than the scale) and
    # at a drawn rational
    sys = build_random_system(seed, size, invertible)
    values, grid = sys.distance_values, threshold_grid(sys)
    hair = Fraction(1, sys.scale * data.draw(st.integers(2, 10 ** 12)))
    thresholds = {Fraction(0), *values, grid.submin, grid.top,
                  *((a + b) / 2 for a, b in zip(values, values[1:])),
                  *(v + side * hair for v in values for side in (-1, 1)),
                  data.draw(st.fractions(0, 2 * grid.top,
                                         max_denominator=10 ** 15))}
    for q in thresholds:
        assert sys.lt_cutoff(q) == lt_cutoff_reference(sys, q), q
        assert sys.le_cutoff(q) == le_cutoff_reference(sys, q), q
    # the tables bisect the positive grid on its positions, the cutoffs
    assert [sys.lt_cutoff(q) for q in grid.positive] == [
        max(i, 1) for i in range(len(grid.positive))]
