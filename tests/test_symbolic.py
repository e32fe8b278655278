import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynlab import core, symbolic
from dynlab.errors import EmptyShift, HorizonExceeded
from dynlab.gallery import build_xpq
from dynlab.symbolic import (
    Sft,
    _allowed_words,
    _differ_at_radius,
    _word_count,
    build_sft,
    periodic_point_count,
    periodic_points,
    product_system,
    shift_distance,
    window_system,
)

from oracles import build_sft_reference, product_system_reference


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


def built(build, alphabet, edges):
    """The Sft ``build`` returns, or its error's type and message."""
    try:
        return build(alphabet, edges)
    except (ValueError, EmptyShift) as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(st.lists(st.integers(0, 7), max_size=8),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=20))
def test_pruning_matches_the_round_by_round_reference(alphabet, edges):
    # letter 8 lies outside every alphabet drawn, and letters repeat
    assert (built(build_sft, alphabet, edges)
            == built(build_sft_reference, alphabet, edges))


class CountedLetter:
    """A letter whose equality tests count against a shared budget."""

    budget = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return hash(self.value)

    def __eq__(self, other):
        CountedLetter.budget -= 1
        if CountedLetter.budget < 0:
            raise AssertionError("too many letter comparisons")
        return self.value == other.value


def test_pruning_a_long_dangling_path_is_linear(monkeypatch):
    # a path of 20,000 letters into a 2-cycle: a round-by-round pruning
    # drops one letter per round, each round comparing every letter
    size = 20_000
    alphabet = [CountedLetter(i) for i in range(size + 2)]
    # edges carry letters equal to, not the same as, the alphabet's
    edges = [(CountedLetter(i), CountedLetter(i + 1)) for i in range(size + 1)]
    edges.append((CountedLetter(size + 1), CountedLetter(size)))
    monkeypatch.setattr(CountedLetter, "budget", 20 * (len(alphabet)
                                                       + len(edges)))
    sft = build_sft(alphabet, edges)
    assert [letter.value for letter in sft.alphabet] == [size, size + 1]
    assert len(sft.edges) == 2


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


def test_product_edges_match_the_all_pairs_loop():
    # the alphabet in the same order and the same edges, pruning
    # included: the dead end's letter b carries no product walk
    dead_end = Sft(("a", "b"), frozenset({("a", "a"), ("a", "b")}))
    for factors in ([build_xpq(3, 2), build_xpq(5, 3)],
                    [build_xpq(2, 1), build_xpq(3, 2), build_xpq(5, 3)],
                    [build_xpq(3, 2)] * 3,
                    [two_loop_shift(), dead_end]):
        built, reference = (product_system(factors),
                            product_system_reference(factors))
        assert built.alphabet == reference.alphabet
        assert built.edges == reference.edges


def test_periodic_point_count_rejects_periods_below_one():
    sft = two_loop_shift()
    for period in (0, -1):
        with pytest.raises(ValueError, match=(
                f"^period must be at least 1, got {period}$")):
            periodic_point_count(sft, period)


def test_word_count_matches_the_listing_up_to_the_cap():
    dead_end = Sft(("a", "b"), frozenset({("a", "a"), ("a", "b")}))
    for sft, longest in ((two_loop_shift(), 14), (full_shift(2), 12),
                         (full_shift(3), 8), (dead_end, 6)):
        for length in range(1, longest + 1):
            listed = len(_allowed_words(sft, length))
            for cap in (1, 5, 1001):
                assert _word_count(sft, length, cap) == min(listed, cap)


def widest_radius(sft, w):
    """The largest radius at which two listed words of length 2w + 1
    first differ, or None when there is at most one word."""
    return max((min(abs(c - w) for c in range(2 * w + 1) if u[c] != v[c])
                for u, v in itertools.combinations(
                    _allowed_words(sft, 2 * w + 1), 2)), default=None)


def test_differ_at_radius_matches_the_listing():
    rng = random.Random(0)
    shifts = [two_loop_shift(), full_shift(2), build_xpq(3, 2),
              build_sft("abc", {("a", "b"), ("b", "c"), ("c", "a")}),
              Sft(("a", "b"), frozenset({("a", "a"), ("a", "b")}))]
    for _ in range(80):  # unpruned shifts too, with dead ends and sources
        letters = "abc"[:rng.randint(1, 3)]
        pairs = list(itertools.product(letters, repeat=2))
        shifts.append(Sft(tuple(letters), frozenset(
            rng.sample(pairs, rng.randint(1, len(pairs))))))
    for sft in shifts:
        for w in (1, 2) if len(sft.alphabet) > 2 else (1, 2, 3):
            assert _differ_at_radius(sft, w) == (widest_radius(sft, w) == w)


def window_outcome(sft, w):
    try:
        built = window_system(sft, w)
    except ValueError as exc:
        return str(exc)
    return built.points, built.scaled, built.scale


def test_window_budget_refuses_as_the_listing_path(monkeypatch):
    # acceptance is decided before the cubic metric check, stubbed out here
    monkeypatch.setattr(core, "_check_metric", lambda *args: None)
    for sft in (build_xpq(3, 2), build_xpq(2, 3)):
        early = [window_outcome(sft, w) for w in range(1, 10)]
        with monkeypatch.context() as listing:
            listing.setattr(symbolic, "_differ_at_radius", lambda *args: False)
            assert [window_outcome(sft, w) for w in range(1, 10)] == early
        assert [isinstance(out, str) for out in early] == [False] * 8 + [True]


def test_wide_window_is_refused_before_listing_words(monkeypatch):
    def listing(*args):
        raise AssertionError("words listed")

    monkeypatch.setattr(symbolic, "_allowed_words", listing)
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        window_system(build_xpq(3, 2), 9)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == (
        "distance table too costly to check: 616 points with 10-bit scaled "
        "distances exceed the budget of 1000000000 for n^3 times the bit "
        "width")
