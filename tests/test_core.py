import random
from fractions import Fraction

import pytest

from dynlab.core import (
    Lasso,
    as_fraction,
    build_finite_system,
    is_periodic_pseudo_orbit,
    is_pseudo_orbit,
    shadows,
    threshold_grid,
)
from dynlab.errors import MetricViolation, NotABijection, NotInvertible

from helpers import (
    all_lassos,
    cycle_system,
    random_system,
    stem_into_cycle,
    two_points_identity,
    unrolled_pseudo_orbit,
    unrolled_shadows,
)


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


def test_shadows_two_sided_needs_invertible():
    sys_ = stem_into_cycle()
    with pytest.raises(NotInvertible):
        shadows(sys_, "z", Lasso(cycle=("z",), two_sided=True), 1)


def test_threshold_grid_one_point():
    sys_ = build_finite_system(("x",), [[0]], ("x",))
    assert threshold_grid(sys_).values == (0, 1)


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
