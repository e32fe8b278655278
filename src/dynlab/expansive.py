"""Orbit-indistinguishability sets and the expansiveness hierarchy.

The central object is the spread matrix S[x][y] = sup_i d(f^i(x),
f^i(y)) (i over forward time, or all of time on invertible systems),
computed exactly once per system, on integer ranks, by walking each
orbit of pairs of cycle points once and filling the pairs with a
transient point from their image pairs
(:attr:`FiniteSystem.spread_rank`).  Every
notion in this module is a threshold question against S: the set of
points delta-indistinguishable from x is {y : S[x][y] <= delta}
(non-strict, following the local stable set convention), which is
rank < ``sys.le_cutoff(delta)``; the hierarchy asks how large those
sets may be, counted pointwise or through invariant measures.

Measure quantifiers collapse on a finite system: ergodic invariant
measures are exactly the uniform distributions on cycles of the map,
every invariant measure is a convex combination of those, and the
defining conditions are linear in the measure — so "for every
invariant measure" reduces to a per-cycle counting condition.  The
reduction is unit-tested against explicit convex combinations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (_Record, _at_least, _largest_passing, _positive,
                   as_fraction, threshold_grid)
from .errors import NotInvertible

__all__ = [
    "GammaSet",
    "InvariantMeasure",
    "StableSets",
    "orbit_spread",
    "gamma_set",
    "n_expansive_holds",
    "n_expansive_constant",
    "enumerate_ergodic_measures",
    "strong_measure_expansive_holds",
    "measure_expansive_holds",
    "expansive_on_per",
    "lockstep_orbit_pair",
    "stable_sets",
    "theorem_stableset_check",
]


def orbit_spread(sys):
    """S[x][y] = max distance the orbits of x and y ever reach.

    Once both points are on their cycles, of lengths p and q, the pair
    (f^i(x), f^i(y)) runs around a pair orbit of length lcm(p, q), so S
    is the largest distance on that orbit; before that, S[x][y] is the
    larger of d(x, y) and S[f(x)][f(y)].  On an invertible system every
    point is periodic and f^{-k} = f^{P-k} on each cycle (P the cycle
    lcm), so the pair orbit also exhausts negative time: no separate
    backward scan is needed for the two-sided convention.

    The spread is computed once per system, on integer ranks, in O(n^2)
    steps whatever the cycle lengths (:attr:`FiniteSystem.spread_rank`);
    this returns a fresh matrix of the distance values those ranks
    stand for.
    """
    values = sys.distance_values
    return [[values[r] for r in row] for row in sys.spread_rank]


class GammaSet(_Record):
    """Points delta-indistinguishable from the center, with witnesses.

    ``spread`` maps every point of the system to the largest synchronized
    orbit distance against the center; membership is spread <= delta.
    """

    center: object
    delta: Fraction
    members: tuple
    spread: dict


def gamma_set(sys, x, delta):
    delta = _positive(delta, "delta")
    cutoff = sys.le_cutoff(delta)
    row = sys.spread_rank[sys.index[x]]
    members = tuple(
        sys.points[y] for y in range(sys.n) if row[y] < cutoff
    )
    values = sys.distance_values
    witness = {sys.points[y]: values[row[y]] for y in range(sys.n)}
    return GammaSet(x, delta, members, witness)


def _at_most_n_close(sys, n, delta):
    cutoff = sys.le_cutoff(delta)
    return all(sum(1 for r in row if r < cutoff) <= n
               for row in sys.spread_rank)


def n_expansive_holds(sys, n, delta):
    """Does every point's delta-indistinguishability set have <= n members?"""
    _at_least(n, 1, "n")
    return _at_most_n_close(sys, n, _positive(delta, "delta"))


def n_expansive_constant(sys, n):
    """Largest grid delta at which the system is n-expansive.

    Never None: below the least positive distance every
    indistinguishability set is a singleton.
    """
    _at_least(n, 1, "n")
    # sets only grow with delta, so the predicate is downward closed
    return _largest_passing(threshold_grid(sys).positive,
                            lambda delta: _at_most_n_close(sys, n, delta))


class InvariantMeasure(_Record):
    """A rational invariant probability vector over the points."""

    weights: tuple
    ergodic: bool

    def mass(self, sys, pts):
        return sum(self.weights[sys.index[p]] for p in pts)

    def is_invariant(self, sys):
        push = [Fraction(0)] * len(self.weights)
        for i, w in enumerate(self.weights):
            push[sys.fmap[i]] += w
        return tuple(push) == self.weights and sum(self.weights) == 1


def enumerate_ergodic_measures(sys):
    """Uniform measures on the cycles of the map, one per cycle.

    On a finite system these are exactly the ergodic invariant
    measures, and every invariant measure is a convex combination.
    """
    return [_uniform(sys, cyc) for cyc in sys._cycles]


def _uniform(sys, cyc):
    """The uniform (ergodic) measure on the cycle ``cyc``."""
    weights, share = [Fraction(0)] * sys.n, Fraction(1, len(cyc))
    for i in cyc:
        weights[i] = share
    return InvariantMeasure(tuple(weights), ergodic=True)


def strong_measure_expansive_holds(sys, delta):
    """Must every invariant measure give Gamma_delta(x) no more mass
    than {x}, for every x?

    Linear in the measure, so it reduces to cycles: for every x and
    every cycle O of the map, |Gamma_delta(x) ∩ O| must equal
    |{x} ∩ O|.  Returns (bool, counterexample) where the counterexample
    is (x, uniform measure on the offending cycle).
    """
    cutoff = sys.le_cutoff(_positive(delta, "delta"))
    spread = sys.spread_rank
    cycles = sys._cycles
    for x in range(sys.n):
        for cyc in cycles:
            inside = sum(1 for y in cyc if spread[x][y] < cutoff)
            if inside != (1 if x in cyc else 0):
                return False, (sys.points[x], _uniform(sys, cyc))
    return True, None


def measure_expansive_holds(sys, delta):
    """Non-atomic invariant measures do not exist on a finite point set,
    so the condition holds vacuously at every delta."""
    _positive(delta, "delta")
    return True, "vacuous"


def expansive_on_per(sys, delta):
    """Are periodic points pairwise delta-distinguishable?"""
    cutoff = sys.le_cutoff(_positive(delta, "delta"))
    spread = sys.spread_rank
    per = sys.periodic_indices()
    return all(
        spread[x][y] >= cutoff for x in per for y in per if x != y
    )


def lockstep_orbit_pair(sys):
    """A pair of points on distinct cycles whose distance never changes
    along the orbit, with that constant offset; None if no pair exists.

    A lockstep pair is the sharpest way strong measure expansiveness
    can degrade: the two orbits move in step at a fixed offset c, so
    each point sits in the other's indistinguishability set at every
    threshold >= c and the uniform measure on either cycle witnesses a
    failure there.  A system free of such pairs keeps the property
    uniformly — entangled orbits must drift apart at some time — while
    a satellite-style construction plants lockstep pairs at offsets
    shrinking with the family parameter.  Constancy is invariant along
    the joint orbit, so anchoring the first coordinate at one cycle
    member scans every alignment; the joint orbit is read off the two
    cycles.
    """
    rank, cycles = sys.rank, sys._cycles
    for a, c1 in enumerate(cycles):
        for c2 in cycles[a + 1:]:
            span = math.lcm(len(c1), len(c2))
            for j, y in enumerate(c2):
                offset = rank[c1[0]][y]
                if all(rank[c1[k % len(c1)]][c2[(j + k) % len(c2)]] == offset
                       for k in range(1, span)):
                    return (sys.points[c1[0]], sys.points[y],
                            sys.distance_values[offset])
    return None


class StableSets(_Record):
    """Local and global stable/unstable sets around a center point.

    Unstable fields are None when backward time was not requested (or
    not available).  Global sets on a finite system are exact: orbits
    converge iff they eventually coincide.
    """

    center: object
    epsilon: Fraction
    s_local: tuple
    s_global: tuple
    u_local: tuple | None = None
    u_global: tuple | None = None


def _eventual_images(sys):
    """f^(T + P) of every index, T the longest preperiod and P the cycle
    lcm: two orbits converge iff they meet by then.  Built once per
    system."""
    def build():
        horizon = sys.max_preperiod + sys.cycle_lcm
        return tuple(sys.power(y, horizon) for y in range(sys.n))
    return sys._memoized(("eventual",), build)


def stable_sets(sys, x, epsilon, include_unstable=None):
    """Stable sets of x at epsilon; unstable sides on invertible systems.

    include_unstable: None computes them exactly when the system is
    invertible; True demands them (NotInvertible otherwise); False
    skips them.
    """
    epsilon = as_fraction(epsilon)
    if include_unstable is None:
        include_unstable = sys.invertible
    elif include_unstable and not sys.invertible:
        raise NotInvertible("unstable sets need backward time")
    xi = sys.index[x]
    cutoff = sys.le_cutoff(epsilon)
    spread = sys.spread_rank[xi]
    s_local = tuple(sys.points[y] for y in range(sys.n)
                    if spread[y] < cutoff)
    eventual = _eventual_images(sys)
    s_global = tuple(sys.points[y] for y in range(sys.n)
                     if eventual[y] == eventual[xi])
    u_local = u_global = None
    if include_unstable:
        # every point of a bijection is periodic, so backward time runs
        # through the same pair orbits as forward time: the local
        # unstable set is the local stable set; and backward convergence
        # on a bijection forces equality
        u_local, u_global = s_local, (sys.points[xi],)
    return StableSets(x, epsilon, s_local, s_global,
                      u_local, u_global)


def theorem_stableset_check(sys, epsilon):
    """Is the local stable set of every periodic point contained in its
    global one?  This decides the unstable sides too: on an invertible
    system :func:`stable_sets` makes the local unstable set the local
    stable one, and both global sets the point alone (f^(T+P) is a
    bijection)."""
    epsilon = as_fraction(epsilon)
    for p in sys.periodic_indices():
        sets = stable_sets(sys, sys.points[p], epsilon)
        if not set(sets.s_local) <= set(sets.s_global):
            return False
    return True
