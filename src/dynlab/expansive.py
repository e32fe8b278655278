"""Orbit-indistinguishability sets and the expansiveness hierarchy.

The central object is the spread matrix S[x][y] = sup_i d(f^i(x),
f^i(y)) (i over forward time, or all of time on invertible systems),
computed exactly through the eventual-periodicity window, once per
system and on integer ranks (:attr:`FiniteSystem.spread_rank`).  Every
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
from dataclasses import dataclass
from fractions import Fraction

from .core import _largest_passing, as_fraction, threshold_grid
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

    Pairs (f^i(x), f^i(y)) are eventually periodic with preperiod <= T
    and period dividing P, so i < T+P exhausts i >= 0.  On an invertible
    system every point is periodic (T=0) and f^{-k} = f^{P-k} on each
    cycle, so the same forward window also exhausts negative time: no
    separate backward scan is needed for the two-sided convention.

    The spread is computed once per system, on integer ranks
    (:attr:`FiniteSystem.spread_rank`); this returns a fresh matrix of
    the distance values those ranks stand for.
    """
    values = sys.distance_values
    return [[values[r] for r in row] for row in sys.spread_rank]


@dataclass(frozen=True)
class GammaSet:
    """Points delta-indistinguishable from the center, with witnesses.

    ``spread`` maps every point of the system to the largest synchronized
    orbit distance against the center; membership is spread <= delta.
    """

    center: object
    delta: Fraction
    members: tuple
    spread: dict


def _positive(value):
    value = as_fraction(value)
    if value <= 0:
        raise ValueError("threshold must be positive")
    return value


def gamma_set(sys, x, delta):
    delta = _positive(delta)
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
    if n < 1:
        raise ValueError("n must be at least 1")
    return _at_most_n_close(sys, n, _positive(delta))


def n_expansive_constant(sys, n):
    """Largest grid delta at which the system is n-expansive.

    Never None: below the least positive distance every
    indistinguishability set is a singleton.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # sets only grow with delta, so the predicate is downward closed
    return _largest_passing(threshold_grid(sys).positive,
                            lambda delta: _at_most_n_close(sys, n, delta))


@dataclass(frozen=True)
class InvariantMeasure:
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
    out = []
    for cyc in _cycles(sys):
        w = [Fraction(0)] * sys.n
        share = Fraction(1, len(cyc))
        for i in cyc:
            w[i] = share
        out.append(InvariantMeasure(tuple(w), ergodic=True))
    return out


def _cycles(sys):
    seen = set()
    cycles = []
    for i in range(sys.n):
        if sys.preperiod(i) == 0 and i not in seen:
            cyc = sys.cycle(i)
            if min(cyc) == i:
                cycles.append(cyc)
                seen.update(cyc)
    return sorted(cycles, key=lambda c: c[0])


def strong_measure_expansive_holds(sys, delta):
    """Must every invariant measure give Gamma_delta(x) no more mass
    than {x}, for every x?

    Linear in the measure, so it reduces to cycles: for every x and
    every cycle O of the map, |Gamma_delta(x) ∩ O| must equal
    |{x} ∩ O|.  Returns (bool, counterexample) where the counterexample
    is (x, uniform measure on the offending cycle).
    """
    cutoff = sys.le_cutoff(_positive(delta))
    spread = sys.spread_rank
    cycles = _cycles(sys)
    for x in range(sys.n):
        for cyc in cycles:
            inside = sum(1 for y in cyc if spread[x][y] < cutoff)
            if inside != (1 if x in cyc else 0):
                w = [Fraction(0)] * sys.n
                for i in cyc:
                    w[i] = Fraction(1, len(cyc))
                return False, (sys.points[x], InvariantMeasure(tuple(w), True))
    return True, None


def measure_expansive_holds(sys, delta):
    """Non-atomic invariant measures do not exist on a finite point set,
    so the condition holds vacuously at every delta."""
    _positive(delta)
    return True, "vacuous"


def expansive_on_per(sys, delta):
    """Are periodic points pairwise delta-distinguishable?"""
    cutoff = sys.le_cutoff(_positive(delta))
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
    member scans every alignment.
    """
    cycles = _cycles(sys)
    for a in range(len(cycles)):
        for b in range(a + 1, len(cycles)):
            c1, c2 = cycles[a], cycles[b]
            span = math.lcm(len(c1), len(c2))
            x = c1[0]
            for y in c2:
                offset = sys.dist[x][y]
                u, v = x, y
                steady = True
                for _ in range(span - 1):
                    u, v = sys.fmap[u], sys.fmap[v]
                    if sys.dist[u][v] != offset:
                        steady = False
                        break
                if steady:
                    return sys.points[x], sys.points[y], offset
    return None


@dataclass(frozen=True)
class StableSets:
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
    T, P = sys.max_preperiod, sys.cycle_lcm
    cutoff = sys.le_cutoff(epsilon)
    spread = sys.spread_rank[xi]
    s_local = tuple(sys.points[y] for y in range(sys.n)
                    if spread[y] < cutoff)
    s_global = tuple(sys.points[y] for y in range(sys.n)
                     if sys.power(xi, T + P) == sys.power(y, T + P))
    u_local = u_global = None
    if include_unstable:
        u_local, u_global = [], []
        for y in range(sys.n):
            if all(
                sys.dist[sys.power(xi, -k)][sys.power(y, -k)] <= epsilon
                for k in range(P)
            ):
                u_local.append(sys.points[y])
            # backward convergence on a bijection forces equality
            if y == xi:
                u_global.append(sys.points[y])
        u_local, u_global = tuple(u_local), tuple(u_global)
    return StableSets(x, epsilon, s_local, s_global,
                      u_local, u_global)


def theorem_stableset_check(sys, epsilon):
    """Is the local stable set of every periodic point contained in its
    global one (and the unstable sides likewise, when available)?"""
    epsilon = as_fraction(epsilon)
    for p in sys.periodic_indices():
        sets = stable_sets(sys, sys.points[p], epsilon)
        if not set(sets.s_local) <= set(sets.s_global):
            return False
        if sets.u_local is not None and not set(sets.u_local) <= set(sets.u_global):
            return False
    return True
