from fractions import Fraction

import pytest

from dynlab.errors import EmptyShift, HorizonExceeded
from dynlab.symbolic import (
    build_sft,
    periodic_point_count,
    periodic_points,
    product_system,
    shift_distance,
    window_system,
)


def full_shift(k):
    letters = tuple(str(i) for i in range(k))
    return build_sft(letters, {(a, b) for a in letters for b in letters})


def two_loop_shift():
    # two loops through vertex 0, of lengths 3 and 2
    return build_sft(
        ("0", "1", "2", "3"),
        {("0", "1"), ("1", "2"), ("2", "0"), ("0", "3"), ("3", "0")},
    )


def test_pruning_drops_stranded_vertices():
    sft = build_sft(("a", "b", "c"), {("a", "a"), ("a", "b")})
    # b has no outgoing edge, c no edges at all: both go
    assert sft.alphabet == ("a",)
    assert sft.edges == frozenset({("a", "a")})


def test_pruning_can_empty_the_shift():
    with pytest.raises(EmptyShift):
        build_sft(("a", "b"), {("a", "b")})


def test_point_validates_transitions():
    sft = two_loop_shift()
    pt = sft.point(stem=("0", "1", "2"), cycle=("0", "3"))
    assert pt[0] == "0" and pt[3] == "0" and pt[4] == "3" and pt[-1] == "3"
    with pytest.raises(ValueError):
        sft.point(stem=("0",), cycle=("1", "0"))  # needs edge 0->1 ok, 1->0 bad


def test_symbolic_point_canonical_equality():
    sft = full_shift(2)
    a = sft.point(stem=("0", "1"), cycle=("0", "1"))
    b = sft.point(stem=(), cycle=("0", "1"))
    assert a == b and hash(a) == hash(b)
    assert sft.point(cycle=("1", "0")) != b  # a rotation is a different point
    assert sft.point(cycle=("0", "0")) == sft.point(cycle=("0",))


def test_shift_distance_basic():
    sft = full_shift(2)
    x = sft.point(cycle=("0", "1"))
    assert shift_distance(x, sft.point(stem=("0", "1"), cycle=("0", "1"))) == 0
    y = sft.point(cycle=("1", "0"))  # same cyclic word, shifted phase
    assert shift_distance(x, y) == Fraction(1, 1)  # disagree already at index 0
    z = sft.point(stem=("0", "1", "0", "0"), cycle=("0", "1"),
                  past_cycle=("0", "1"))
    # z agrees with x on indices <= 2 and at -1, -2, ...; differs first at 3
    assert shift_distance(x, z) == Fraction(1, 8)


def test_shift_distance_horizon():
    sft = full_shift(3)
    deep = 40
    x = sft.point(stem=("0",) * deep + ("1",), cycle=("0",))
    y = sft.point(stem=("0",) * deep + ("2",), cycle=("0",))
    assert shift_distance(x, y) == Fraction(1, 2 ** deep)
    with pytest.raises(HorizonExceeded):
        shift_distance(x, y, cap=10)


def test_periodic_points_full_two_shift():
    sft = full_shift(2)
    pts = periodic_points(sft, 2)
    assert len(pts) == 4 == periodic_point_count(sft, 2)


def test_periodic_points_two_loop_shift():
    sft = two_loop_shift()
    assert periodic_point_count(sft, 1) == 0 == len(periodic_points(sft, 1))
    pts = periodic_points(sft, 2)
    assert {p.cycle for p in pts} == {("0", "3"), ("3", "0")}
    # counts match the adjacency trace for a range of periods
    for n in range(1, 9):
        assert len(periodic_points(sft, n)) == periodic_point_count(sft, n)


def test_window_system_shape():
    sys_ = window_system(two_loop_shift(), 1)
    # points are the allowed words of length 3
    assert all(len(p.split(",")) == 3 for p in sys_.points)
    positives = sorted({d for row in sys_.dist for d in row if d > 0})
    assert positives[0] == Fraction(1, 2)  # 2^-w
    assert set(positives) <= {Fraction(1, 2), Fraction(1)}
    # the collapsed map is one of the recorded extensions, for every point
    for i, p in enumerate(sys_.points):
        succ = sys_.relation[i]
        assert sys_.fmap[i] in succ
        shifted = p.split(",")[1:]
        for j in succ:
            assert sys_.points[j].split(",")[:-1] == shifted
    assert not sys_.invertible


def test_window_metric_is_first_disagreement():
    sys_ = window_system(two_loop_shift(), 2)
    for p in sys_.points[:6]:
        for q in sys_.points[:6]:
            if p == q:
                continue
            u, v = p.split(","), q.split(",")
            k = min(abs(c - 2) for c in range(5) if u[c] != v[c])
            assert sys_.d(p, q) == Fraction(1, 2 ** k)


def test_product_counts_multiply():
    a, b = two_loop_shift(), full_shift(2)
    prod = product_system([a, b])
    for n in range(1, 7):
        assert periodic_point_count(prod, n) == (
            periodic_point_count(a, n) * periodic_point_count(b, n)
        )
    assert periodic_point_count(prod, 1) == 0


def test_periodic_point_count_rejects_periods_below_one():
    sft = two_loop_shift()
    for period in (0, -1):
        with pytest.raises(ValueError, match="period must be >= 1"):
            periodic_point_count(sft, period)
