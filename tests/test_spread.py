"""The integer orbit spread, cached on the system, against the Fraction
window loop it replaced (``oracles.orbit_spread_reference``).

Every expansiveness threshold question is recomputed here from the
reference spread with Fraction comparisons, at every grid delta, on
random preperiodic maps and random bijections.  Also here: the cache
is built once per system and cannot be changed through a returned
matrix.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dynlab.battery import run_theorem_battery
from dynlab.core import FiniteSystem, build_finite_system, threshold_grid
from dynlab.expansive import (
    expansive_on_per,
    gamma_set,
    n_expansive_constant,
    n_expansive_holds,
    orbit_spread,
    stable_sets,
    strong_measure_expansive_holds,
)
from dynlab.gallery import build_myex

from helpers import random_metric, random_system
from oracles import orbit_spread_reference

# the properties are exact, so a slow host must not fail them on time
untimed = settings(deadline=None)


@st.composite
def systems(draw):
    """A random metric with a random map: a bijection, or any map (so
    with transient points and a preperiod T > 0)."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        images = draw(st.permutations(range(n)))
    else:
        images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    points = [f"p{i}" for i in range(n)]
    dist = random_metric(random.Random(draw(st.integers(0, 10 ** 6))), n)
    return build_finite_system(points, dist, [points[j] for j in images])


def reference_cycles(sys):
    """Cycles of the map, each from its least point, by least point."""
    cycles = []
    for i in range(sys.n):
        if sys.preperiod(i) == 0 and min(sys.cycle(i)) == i:
            cyc, j = [i], sys.fmap[i]
            while j != i:
                cyc.append(j)
                j = sys.fmap[j]
            cycles.append(cyc)
    return cycles


def reference_strong_measure(sys, close):
    for x in range(sys.n):
        for cyc in reference_cycles(sys):
            inside = sum(1 for y in cyc if close[x][y])
            if inside != (1 if x in cyc else 0):
                weights = tuple(Fraction(1, len(cyc)) if i in cyc
                                else Fraction(0) for i in range(sys.n))
                return False, (sys.points[x], weights)
    return True, None


@untimed
@given(systems())
def test_threshold_answers_match_the_fraction_spread(sys):
    spread = orbit_spread_reference(sys)
    assert orbit_spread(sys) == spread
    periodic = [i for i in range(sys.n) if sys.preperiod(i) == 0]
    for delta in threshold_grid(sys).positive:
        close = [[s <= delta for s in row] for row in spread]
        for n in range(1, 5):
            assert n_expansive_holds(sys, n, delta) == all(
                sum(row) <= n for row in close)
        holds, witness = strong_measure_expansive_holds(sys, delta)
        if witness is not None:
            witness = (witness[0], witness[1].weights)
        assert (holds, witness) == reference_strong_measure(sys, close)
        assert expansive_on_per(sys, delta) == all(
            spread[x][y] > delta
            for x in periodic for y in periodic if x != y)
        for xi, x in enumerate(sys.points):
            members = tuple(sys.points[y] for y in range(sys.n)
                            if close[xi][y])
            g = gamma_set(sys, x, delta)
            assert g.members == members
            assert g.spread == {sys.points[y]: spread[xi][y]
                                for y in range(sys.n)}
            assert stable_sets(sys, x, delta).s_local == members


def test_returned_spread_is_a_copy():
    sys = random_system(seed=3, n=6)
    grid = threshold_grid(sys)

    def answers():
        return ([n_expansive_constant(sys, n) for n in range(1, 5)],
                [strong_measure_expansive_holds(sys, d)[0]
                 for d in grid.positive],
                [gamma_set(sys, x, grid.positive[1]).spread
                 for x in sys.points])

    before, expected = answers(), orbit_spread(sys)
    for row in orbit_spread(sys):
        row[:] = [Fraction(0)] * sys.n
    assert orbit_spread(sys) == expected
    assert answers() == before


def test_hierarchy_battery_builds_the_spread_once(monkeypatch):
    builds = []
    build = FiniteSystem._build_spread_rank

    def counted(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(FiniteSystem, "_build_spread_rank", counted)
    sys = build_myex(6, 2).system
    run_theorem_battery(sys, "hierarchy")
    assert builds == [sys]
    run_theorem_battery(sys, "hierarchy")
    assert builds == [sys]
