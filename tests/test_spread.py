"""The integer orbit spread, cached on the system, against the Fraction
window loop over the longest preperiod plus the lcm of all cycle lengths
(``oracles.orbit_spread_reference``).

Every expansiveness threshold question is recomputed here from the
reference spread with Fraction comparisons, at every grid delta, on
random preperiodic maps and random bijections.  The spread alone is
also checked on maps drawn by cycle type (up to 14 points), and on
sampled pairs of coprime 31- and 37-cycles, whose lcm the library's
pair-orbit walk never scans.  On bijections strong measure
expansiveness is checked to be 1-expansiveness.  The local unstable set,
read off the spread row, is checked against the backward scan over one
lcm of all cycle lengths (``oracles.unstable_local_reference``).  Also
here: the cache is built once per system and cannot be changed through
a returned matrix.
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

from helpers import gallery_corpus, random_metric, random_system, seeded_corpus
from oracles import orbit_spread_reference, unstable_local_reference

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


@st.composite
def cycle_type_systems(draw, tails=True):
    """A random metric with a map built from a cycle type: up to two
    fixed points, two to four cycles of lengths 1-7, and (with
    ``tails``) transient points that each map to a point listed before
    them, at most 14 points in all; the points are then relabelled by a
    random permutation, so neither the cycles nor the tails come in
    index order.  Without tails the map is a bijection."""
    count = draw(st.integers(2, 4))
    lengths = [1] * draw(st.integers(0, 2))
    for k in range(count):
        room = 14 - sum(lengths) - (count - k - 1)
        lengths.append(draw(st.integers(1, min(7, room))))
    images = []
    for length in lengths:
        start = len(images)
        images += [start + (i + 1) % length for i in range(length)]
    if tails:
        for i in range(len(images), draw(st.integers(len(images), 14))):
            images.append(draw(st.integers(0, i - 1)))
    n = len(images)
    label = draw(st.permutations(range(n)))
    points = [f"p{i}" for i in range(n)]
    fmap = [None] * n
    for i, j in enumerate(images):
        fmap[label[i]] = points[label[j]]
    dist = random_metric(random.Random(draw(st.integers(0, 10 ** 6))), n)
    return build_finite_system(points, dist, fmap)


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


def check_spread(sys):
    """The library spread against the Fraction window loop; returns it."""
    spread = orbit_spread_reference(sys)
    assert orbit_spread(sys) == spread
    return spread


@untimed
@given(systems())
def test_threshold_answers_match_the_fraction_spread(sys):
    spread = check_spread(sys)
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


@untimed
@given(cycle_type_systems())
def test_spread_by_cycle_type_matches_the_fraction_window(sys):
    check_spread(sys)


def coprime_long_cycles():
    """Cycles of lengths 31 and 37 (lcm 1147), three fixed points and a
    two-point tail into the 31-cycle, placed at random distinct
    positions on a line."""
    fmap = [(i + 1) % 31 for i in range(31)]
    fmap += [31 + (i + 1) % 37 for i in range(37)]
    fmap += [68, 69, 70, 72, 0]
    points = list(range(len(fmap)))
    place = random.Random(7).sample(range(10 ** 4), len(points))
    dist = [[abs(x - y) for y in place] for x in place]
    return build_finite_system(points, dist, fmap)


def test_spread_on_coprime_long_cycles():
    sys = coprime_long_cycles()
    assert sys.cycle_lcm == 1147 and sys.max_preperiod == 2
    spread = orbit_spread(sys)
    rng = random.Random(0)
    pairs = [(a, b) for a in range(68, sys.n) for b in range(sys.n)]
    pairs += [tuple(rng.sample(range(68), 2)) for _ in range(60)]
    for a, b in pairs:
        u, v, worst = a, b, Fraction(0)
        for _ in range(sys.max_preperiod + sys.cycle_lcm):
            worst = max(worst, sys.dist[u][v])
            u, v = sys.fmap[u], sys.fmap[v]
        assert spread[a][b] == spread[b][a] == worst


@untimed
@given(cycle_type_systems(tails=False))
def test_strong_measure_is_one_expansive_on_bijections(sys):
    """On a bijection every point is periodic, so a second point of
    Gamma_delta(x) lies on a cycle and breaks the strong measure
    condition at x: the two properties agree at every threshold, and
    no finite bijection is strong measure expansive without being
    1-expansive."""
    assert sys.invertible
    for delta in threshold_grid(sys).positive:
        assert (strong_measure_expansive_holds(sys, delta)[0]
                == n_expansive_holds(sys, 1, delta))


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


def test_unstable_sets_match_the_backward_scan():
    cells = 0
    for sys in [*seeded_corpus(20, 7), *gallery_corpus()]:
        if not sys.invertible:
            continue
        for epsilon in threshold_grid(sys).positive:
            for x in sys.points:
                assert (stable_sets(sys, x, epsilon).u_local
                        == unstable_local_reference(sys, x, epsilon))
                cells += 1
    assert cells == 982


def prime_cycles():
    """77 points on cycles of the primes 2..19 (lcm 9,699,690), all at
    mutual distance 1."""
    points, fmap = [], []
    for length in (2, 3, 5, 7, 11, 13, 17, 19):
        names = [f"c{length}_{k}" for k in range(length)]
        points += names
        fmap += names[1:] + names[:1]
    dist = [[int(i != j) for j in range(77)] for i in range(77)]
    return build_finite_system(points, dist, fmap)


def test_unstable_sets_do_not_scan_the_cycle_lcm(monkeypatch):
    sys = prime_cycles()
    assert sys.invertible and sys.cycle_lcm == 9699690
    calls = []
    power = FiniteSystem.power

    def counted(self, i, k):
        calls.append(k)
        return power(self, i, k)

    monkeypatch.setattr(FiniteSystem, "power", counted)
    sets = stable_sets(sys, "c2_0", threshold_grid(sys).top)
    assert sets.u_local == sets.s_local == sys.points
    assert sets.u_global == sets.s_global == ("c2_0",)
    assert len(calls) <= 2 * sys.n
