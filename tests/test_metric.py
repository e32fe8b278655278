"""The integer metric check against the Fraction loop it replaced.

``build_finite_system`` validates the table on integers over the common
denominator of its distances; ``oracles.metric_violation_reference``
runs every axiom on Fractions.  On random metrics with planted faults
both must name the same axiom, the same points and the same message,
on small tables and on tables of up to 20 points with entries of
hundreds of bits; the packed triangle pass is also pinned on tables at
the edges of its field width.  The gallery and window builders hand
integer tables to the same assembly; every system they build, and
every window a shift file loads as, must equal field for field,
``scale`` included, the system ``build_finite_system`` makes from the
Fraction table the builder used to make
(``oracles.myex_table_reference`` and its siblings).
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynlab import cli, core, gallery
from dynlab.core import build_finite_system
from dynlab.errors import MetricViolation
from dynlab.gallery import build_product_truncation, build_xpq
from dynlab.serialize import sft_to_obj
from dynlab.symbolic import window_system

from helpers import gallery_recipes, myex_system, random_metric, random_system
from oracles import (metric_violation_reference, myex_table_reference,
                     random_table_reference, window_table_reference)

# the properties are exact, so a slow host must not fail them on time
untimed = settings(deadline=None)

FAULTS = ("raise", "lower", "asymmetric", "zero", "diagonal")


def violation(exc):
    return None if exc is None else (exc.axiom, exc.points, str(exc))


def check_metric(points, dist):
    """The library's verdict on a table against the Fraction loop;
    returns the violation found, or None."""
    try:
        build_finite_system(points, dist, points)
        found = None
    except MetricViolation as exc:
        found = exc
    assert violation(found) == violation(
        metric_violation_reference(points, dist))
    return violation(found)


@st.composite
def tables(draw):
    """A shortest-path metric on 1..6 points with 0-2 planted faults."""
    n = draw(st.integers(1, 6))
    dist = random_metric(random.Random(draw(st.integers(0, 10 ** 6))), n)
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(FAULTS if n > 1 else ("diagonal",)))
        i = draw(st.integers(0, n - 1))
        j = (i + draw(st.integers(1, max(n - 1, 1)))) % n
        amount = Fraction(draw(st.integers(1, 24)), draw(st.integers(1, 12)))
        if fault == "raise":
            dist[i][j] = dist[j][i] = dist[i][j] + amount
        elif fault == "lower":
            dist[i][j] = dist[j][i] = dist[i][j] - amount
        elif fault == "asymmetric":
            dist[i][j] += amount
        elif fault == "zero":
            dist[i][j] = dist[j][i] = Fraction(0)
        else:
            dist[i][i] = amount
    return [f"p{i}" for i in range(n)], dist


@untimed
@given(tables())
def test_metric_check_matches_the_fraction_loop(table):
    check_metric(*table)


def tight_triples(dist):
    """The triples (i, j, k) of distinct points with d(i,k) = d(i,j) +
    d(j,k), in product order."""
    return [(i, j, k) for i, j, k in itertools.permutations(range(len(dist)), 3)
            if dist[i][k] == dist[i][j] + dist[j][k]]


@st.composite
def wide_tables(draw):
    """An integer metric on 2..20 points with entries below 2^b, b from
    5 to 400, with 0-2 faults of one unit planted on tight triangles,
    all over a denominator.

    The points lie on a line, where every triple in line order is tight
    and the widest entry is 2^b - 1, the largest value of its field
    width, or at shortest-path distances, where every triple along a
    shortest path is tight.  A fault raises d(i,k) or lowers d(i,j) of
    a tight triple (i, j, k) by one, so that it fails by exactly one
    (raising 2^b - 1 widens the field)."""
    n = draw(st.integers(2, 20))
    bits = draw(st.integers(5, 400))
    widest = 2 ** bits - 1
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        where = {0, widest}
        while len(where) < n:
            where.add(rng.randrange(widest))
        where = rng.sample(sorted(where), n)
        dist = [[abs(x - y) for y in where] for x in where]
    else:
        dist = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            dist[i][j] = dist[j][i] = rng.choice(
                (widest, widest >> 1, rng.randint(1, widest)))
        for k, i, j in itertools.product(range(n), repeat=3):
            dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    tight = tight_triples(dist)
    for _ in range(draw(st.integers(0, 2)) if tight else 0):
        i, j, k = draw(st.sampled_from(tight))
        if draw(st.booleans()):
            dist[i][k] = dist[k][i] = dist[i][k] + 1
        else:
            dist[i][j] = dist[j][i] = dist[i][j] - 1
    den = draw(st.sampled_from((1, 3, 2 ** 70)))
    return ([f"p{i}" for i in range(n)],
            [[Fraction(v, den) for v in row] for row in dist])


@settings(deadline=None, max_examples=60)
@given(wide_tables())
def test_wide_metric_check_matches_the_fraction_loop(table):
    check_metric(*table)


def check_triangles(scaled):
    """The packed triangle pass on a symmetric table of positive
    off-diagonal ints against the Fraction loop."""
    points = [f"p{i}" for i in range(len(scaled))]
    assert core._triangles_hold(scaled) == (
        metric_violation_reference(points, scaled) is None)


# Entries of at most 4 bits, so 6-bit fields.  On the pair (p0, p1)
# the field of p2 reads 12 + 12 - 8 = 16, and that of p3 2 + 12 - 15 =
# -1, in the first table: d(p0,p3) = 15 exceeds 12 + 2 by exactly one,
# the one failing triangle.  In 5-bit fields the field of p2 would carry
# into that of p3 and make it pass; the field that carries then reads
# as failing itself, so the narrow pass still rejects the first table,
# and shows instead by rejecting the second, its tight twin.
CARRY_TABLES = (
    [[0, 12, 8, 15], [12, 0, 12, 2], [8, 12, 0, 10], [15, 2, 10, 0]],
    [[0, 12, 8, 14], [12, 0, 12, 2], [8, 12, 0, 10], [14, 2, 10, 0]],
)


def check_packed_triangles():
    for table in CARRY_TABLES:
        check_triangles(table)
    for bits in (2, 3, 8, 64, 300):
        widest = 2 ** bits - 1  # the largest entry of its field width
        check_triangles([[0, widest, widest], [widest, 0, widest],
                         [widest, widest, 0]])
        check_triangles([[0, widest, 1], [widest, 0, widest - 1],
                         [1, widest - 1, 0]])


def test_packed_triangles_on_the_field_boundaries():
    check_packed_triangles()
    assert [core._triangles_hold(table) for table in CARRY_TABLES] == [
        False, True]


def test_planted_triangle_faults_keep_their_first_triple():
    # one entry of a 30-point table raised at a time: the first failing
    # triple in product order lies past the first row
    base = gallery.build_myex(5, 3).system
    dist = [list(row) for row in base.dist]
    rng = random.Random(0)
    found = []
    for _ in range(12):
        i, j = rng.sample(range(base.n), 2)
        old = dist[i][j]
        dist[i][j] = dist[j][i] = old + Fraction(rng.randint(1, 9),
                                                  rng.randint(1, 7))
        found.append(check_metric(list(base.points), dist))
        dist[i][j] = dist[j][i] = old
    assert all(v is not None and v[0] == "triangle" for v in found)


def test_collinear_points_are_a_metric():
    check_metric(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    with pytest.raises(MetricViolation, match=r"\(triangle\).*: 3 > 1 \+ 1"):
        build_finite_system("abc", [[0, 1, 3], [1, 0, 1], [3, 1, 0]], "abc")


def test_common_denominator_is_bounded():
    big = 10 ** 1499
    p, q, r = big + 1, big + 2, big + 3  # pairwise coprime
    a, b, c = (f"{s + 1}/{s}" for s in (p, q, r))
    with pytest.raises(ValueError, match="common denominator .* 4300 digits"):
        build_finite_system("abc", [[0, a, b], [a, 0, c], [b, c, 0]], "abc")
    # two such denominators stay within the bound
    sys = build_finite_system("ab", [[0, a], [a, 0]], "ab")
    assert sys.scale == p and sys.d("a", "b") == Fraction(p + 1, p)


def hostile_table():
    """70 points at distances 1 + a/p over three coprime 1400-digit p:
    the common denominator has about 4200 digits, under its bound, but
    the triangle check would subtract 14,000-bit integers 70^3 / 2 times."""
    ps = [10 ** 1399 + k for k in (1, 2, 3)]
    n = 70
    points = [f"p{i}" for i in range(n)]
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = ps[(i + j) % 3]
            dist[i][j] = dist[j][i] = Fraction(p + 1 + i * n + j, p)
    return points, dist


def test_metric_check_over_budget_is_refused_unchecked(monkeypatch):
    points, dist = hostile_table()

    def unreachable(*args):
        raise AssertionError("the metric check ran")

    monkeypatch.setattr(core, "_check_metric", unreachable)
    with pytest.raises(ValueError, match="too costly to check: 70 points "
                                         "with 13943-bit scaled"):
        build_finite_system(points, dist, points)


def test_hostile_table_is_refused_before_scaling():
    # the refusal multiplies no entry out: 4,900 products of 4,648-bit
    # numerators by 9,296-bit factors took 0.2-0.3 s on a 2-core Xeon VM
    points, dist = hostile_table()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too costly to check"):
            build_finite_system(points, dist, points)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1, times


@settings(deadline=None)
@given(st.lists(st.fractions(max_denominator=2 ** 70).filter(bool)
                | st.integers(-2 ** 200, 2 ** 200).map(Fraction),
                min_size=1, max_size=12))
def test_widest_bits_match_the_multiplied_entries(entries):
    pairs = dict.fromkeys((q.numerator, q.denominator) for q in entries)
    scale = math.lcm(*(den for _, den in pairs))
    factor = {den: scale // den for _, den in pairs}
    widest = max(scale, *(abs(num) * factor[den] for num, den in pairs))
    assert core._widest_bits(scale, pairs, factor) == widest.bit_length()


def test_widest_bits_on_every_small_entry():
    # every width boundary of |num| * factor up to 2^12, zero included
    for num in range(-64, 65):
        for f in range(1, 65):
            assert (core._widest_bits(1, {(num, 7): None}, {7: f})
                    == max(1, abs(num) * f).bit_length()), (num, f)


def test_metric_check_budget_admits_the_largest_window():
    # the 168-point product window: the largest gallery or window build
    sys = window_system(build_product_truncation((2, 3, 5), 2), 2)
    assert sys.n == 168


# the Fraction table each library builder used to hand build_finite_system
REFERENCE_TABLES = {
    window_system: window_table_reference,
    myex_system: myex_table_reference,
    random_system: random_table_reference,
}


def system_fields(sys):
    return (sys.points, sys.scale, sys.scaled, sys.rank, sys.distance_values,
            sys.dist, sys.fmap, sys.invertible, sys.relation)


def check_built_as_reference(sys, table):
    """A system from an integer-table builder against the system
    ``build_finite_system`` makes from the Fraction reference table of
    the same family and arguments, field by field."""
    assert system_fields(sys) == system_fields(build_finite_system(*table))
    assert all(sys.d(x, y) == sys.dist[i][j]
               for i, x in enumerate(sys.points)
               for j, y in enumerate(sys.points))


def test_gallery_corpus_builds_unchanged():
    # the gallery's windows of xpq(3,2) at radii 1-2 and of the product
    # at radius 1, and one radius wider each
    recipes = [*gallery_recipes(), (myex_system, (7, 3)),
               (window_system, (build_xpq(3, 2), 3)),
               (window_system, (build_product_truncation((2, 3, 5), 2), 2)),
               *((random_system, (seed, 2 + seed % 7, False))
                 for seed in range(20, 30))]
    for build, args in recipes:
        check_built_as_reference(build(*args),
                                 REFERENCE_TABLES[build](*args))


def test_window_files_load_as_the_reference(tmp_path):
    path = tmp_path / "xpq.json"
    path.write_text(json.dumps(sft_to_obj(build_xpq(3, 2))))
    sft = cli.parse_system_file(str(path))
    for w in (1, 2):
        check_built_as_reference(cli._load_finite(str(path), w),
                                 window_table_reference(sft, w))
