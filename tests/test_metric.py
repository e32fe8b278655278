"""The integer metric check against the Fraction loop it replaced.

``build_finite_system`` validates the table on integers over the common
denominator of its distances; ``oracles.metric_violation_reference``
runs every axiom on Fractions.  On random shortest-path metrics with
planted faults both must name the same axiom, the same points and the
same message.  Systems built from valid tables must keep the Fraction
distances, ranks and distance values they had.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynlab import gallery, symbolic
from dynlab.core import as_fraction, build_finite_system
from dynlab.errors import MetricViolation

from helpers import gallery_corpus, random_metric
from oracles import metric_violation_reference

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


def fields_reference(dist):
    """Fraction matrix, ranks and sorted distinct values of a table."""
    matrix = tuple(tuple(as_fraction(v) for v in row) for row in dist)
    values = tuple(sorted({v for row in matrix for v in row}))
    pos = {v: r for r, v in enumerate(values)}
    return matrix, tuple(tuple(pos[v] for v in row) for row in matrix), values


def test_gallery_corpus_builds_unchanged(monkeypatch):
    tables = []

    def recording(points, dist, *args, **kwargs):
        tables.append(dist)
        return build_finite_system(points, dist, *args, **kwargs)

    for module in (gallery, symbolic):
        monkeypatch.setattr(module, "build_finite_system", recording)
    systems = list(gallery_corpus())
    assert len(tables) == len(systems)
    for sys, dist in zip(systems, tables):
        assert (sys.dist, sys.rank, sys.distance_values) == fields_reference(
            dist)
        assert all(sys.d(x, y) == sys.dist[i][j]
                   for i, x in enumerate(sys.points)
                   for j, y in enumerate(sys.points))
