"""Shared builders and brute-force oracles for the test suite.

Everything here sticks to direct definitions (unrolled windows, explicit
enumeration) so the package's reductions are always checked against an
independent route.
"""

import itertools
import random
from fractions import Fraction

from dynlab.core import Lasso, build_finite_system
from dynlab.gallery import (build_myex, build_product_truncation,
                            build_random_system, build_xpq)
from dynlab.symbolic import window_system


def random_metric(rng, n):
    """Random exact metric via shortest-path completion of random weights."""
    base = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 4, 6]))
            base[i][j] = base[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = base[i][k] + base[k][j]
                if via < base[i][j]:
                    base[i][j] = via
    return base


def random_system(seed, n, invertible=False):
    """Deterministic small test system (the library's seeded generator)."""
    return build_random_system(seed, n, invertible)


def seeded_corpus(count, max_size):
    """Frozen mix of sizes 2..max_size, alternating invertibility."""
    for seed in range(count):
        size = 2 + seed % (max_size - 1)
        yield random_system(seed=seed, n=size, invertible=(seed % 2 == 0))


def myex_system(lattice_q, K):
    return build_myex(lattice_q, K).system


def gallery_recipes():
    """Every built-in family at small parameters, windows included, as
    (builder, arguments) pairs."""
    return (
        (window_system, (build_xpq(3, 2), 1)),
        (window_system, (build_xpq(3, 2), 2)),
        (window_system, (build_xpq(5, 3), 1)),
        (window_system, (build_product_truncation((2, 3, 5), 2), 1)),
        (myex_system, (2, 1)),
        (myex_system, (5, 3)),
        *((random_system, (seed, 3 + seed % 4, seed % 2 == 0))
          for seed in (1, 2, 5, 7, 13)),
    )


def gallery_corpus():
    """Every built-in family at small parameters, windows included."""
    for build, args in gallery_recipes():
        yield build(*args)


def two_points_identity(gap=Fraction(1)):
    pts = ("a", "b")
    dist = [[0, gap], [gap, 0]]
    return build_finite_system(pts, dist, ("a", "b"), invertible=True)


def cycle_system(n, gap=Fraction(1)):
    """n points, pairwise distance gap, cyclic map."""
    pts = tuple(f"c{i}" for i in range(n))
    dist = [[Fraction(0) if i == j else gap for j in range(n)] for i in range(n)]
    fmap = tuple(pts[(i + 1) % n] for i in range(n))
    return build_finite_system(pts, dist, fmap, invertible=True)


def scalene_cycle():
    """A 3-cycle whose pair (c0, c1) is farthest apart at its third step."""
    return build_finite_system(
        ["c0", "c1", "c2"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]],
        ["c1", "c2", "c0"])


def stem_into_cycle():
    """Two transient points merging into a fixed point (non-invertible)."""
    pts = ("s0", "s1", "z")
    dist = [
        [Fraction(0), Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(2), Fraction(1), Fraction(0)],
    ]
    return build_finite_system(pts, dist, ("s1", "z", "z"))


def unrolled_shadows(sys, point, lasso, epsilon, horizon):
    """Direct definition of epsilon-shadowing over a long finite window."""
    for k in range(horizon):
        if sys.d(sys.apply(point, k), lasso[k]) >= epsilon:
            return False
    if lasso.two_sided:
        for k in range(-horizon, 0):
            if sys.d(sys.apply(point, k), lasso[k]) >= epsilon:
                return False
    return True


def unrolled_pseudo_orbit(sys, lasso, delta, horizon):
    """Direct definition of a delta-pseudo-orbit over a long finite window."""
    lo = -horizon if lasso.two_sided else 0
    for i in range(lo, horizon):
        if sys.d(sys.apply(lasso[i]), lasso[i + 1]) >= delta:
            return False
    return True


def all_lassos(sys, max_len, two_sided=False):
    """Every lasso over the points with stem+cycle <= max_len (no edge filter)."""
    pts = sys.points
    for total in range(1, max_len + 1):
        for seq in itertools.product(pts, repeat=total):
            for cut in range(total):
                yield Lasso(stem=seq[:cut], cycle=seq[cut:], two_sided=two_sided)
