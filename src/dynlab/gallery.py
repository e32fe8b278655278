"""Concrete example systems.

Three families do the heavy lifting in tests and demos:

* two-loop vertex shifts — a long and a short loop of coprime lengths
  sharing one vertex, the minimal mixing shifts of finite type;
* their products, whose periodic spectra are intersections of the
  factors' loop-length semigroups (so short periods can be absent while
  tracing behaves perfectly);
* a hyperbolic toral map restricted to a rational lattice, decorated
  with "satellite" orbits at metric offset 1/k from chosen periodic
  anchors — the offsets shrink as more satellites are added, which
  degrades every expansiveness-type constant while leaving the
  dynamics a bijection.

A seeded random-system generator rounds out the gallery for property
tests; it is deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .core import FiniteSystem, _Record, _assemble, _check_size
from .errors import NotCoprime, NotEnoughOrbits
from .symbolic import build_sft, product_system

__all__ = [
    "MyexInstance",
    "build_myex",
    "build_product_truncation",
    "build_random_system",
    "build_xpq",
]


def build_xpq(p, q):
    """Edge shift with loops of lengths p and q through a shared vertex.

    Vertices are 0..p+q-2: the long loop runs 0 -> 1 -> ... -> p-1 -> 0,
    the short loop 0 -> p -> ... -> p+q-2 -> 0 (a self-loop at 0 when
    q == 1).  The loop lengths must be coprime, which makes the graph's
    period 1 and hence the shift mixing.
    """
    if p < 1 or q < 1:
        raise ValueError("loop lengths must be positive")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"loop lengths {p} and {q} share a factor")
    edges = [(i, i + 1) for i in range(p - 1)] + [(p - 1, 0)]
    if q == 1:
        edges.append((0, 0))
    else:
        edges += [(0, p)]
        edges += [(p + i, p + i + 1) for i in range(q - 2)]
        edges.append((p + q - 2, 0))
    return build_sft(tuple(range(p + q - 1)), edges)


def _is_prime(value):
    """Trial division, enough for the small primes the products use."""
    return value > 1 and all(
        value % d for d in range(2, math.isqrt(value) + 1))


def build_product_truncation(primes, n_factors):
    """Product of consecutive two-loop shifts over a run of primes.

    Factor i is the (primes[i+1], primes[i]) two-loop shift, so each
    factor's closed-walk lengths form the numerical semigroup generated
    by two consecutive primes, and the product's periodic spectrum is
    the intersection of those semigroups: with more factors the least
    period grows without bound even though every factor is mixing.
    """
    primes = list(primes)
    if n_factors < 1:
        raise ValueError("need at least one factor")
    if len(primes) < n_factors + 1:
        raise ValueError("need n_factors + 1 primes")
    if any(b <= a for a, b in zip(primes, primes[1:])):
        raise ValueError("primes must be strictly increasing")
    for value in primes:
        if not _is_prime(value):
            raise ValueError(f"{value} is not prime")
    factors = [build_xpq(primes[i + 1], primes[i]) for i in range(n_factors)]
    return product_system(factors)


# -- hyperbolic lattice map with satellite orbits ---------------------------
#
# A lattice point (a/q, b/q) is kept as the integer pair (a, b) mod q.

_ANOSOV = ((2, 1), (1, 1))


def _lattice_apply(pt, q):
    x, y = pt
    return ((_ANOSOV[0][0] * x + _ANOSOV[0][1] * y) % q,
            (_ANOSOV[1][0] * x + _ANOSOV[1][1] * y) % q)


def _lattice_orbits(q):
    """Orbits of the lattice map, sorted by (length, least point)."""
    seen, orbits = set(), []
    for start in itertools.product(range(q), repeat=2):
        if start in seen:
            continue
        orbit, v = [], start
        while v not in seen:
            seen.add(v)
            orbit.append(v)
            v = _lattice_apply(v, q)
        orbits.append(tuple(sorted(orbit)))
    return sorted(orbits, key=lambda o: (len(o), o[0]))


class MyexInstance(_Record):
    """A lattice map with satellite orbits, plus the names to address it.

    ``anchors[k-1]`` is the lattice point p_k whose orbit the k-th
    satellite family mirrors at metric offset 1/k; ``orbits[k-1]`` are
    the satellite identifiers q(k, 0..pi-1), where pi is the anchor's
    period.  ``system`` is the assembled finite metric system (a
    bijection, so fully two-sided).
    """

    lattice_q: int
    satellites: int
    anchors: tuple
    orbits: tuple
    system: FiniteSystem


def build_myex(lattice_q, K):
    """Lattice hyperbolic map with K satellite orbits at offsets 1/k.

    Satellite q(k, j) sits at distance 1/k + d(y, A^j(p_k)) from any
    lattice point y and rotates q(k, j) -> q(k, j+1 mod period); the
    anchors p_1..p_K are representatives of distinct lattice orbits,
    taken in increasing period order (ties by least point).  The table
    is built on integers over q * lcm(1..K), and the metric axioms are
    still re-verified exhaustively on those integers during assembly.

    Raises NotEnoughOrbits when the lattice has fewer than K orbits.
    """
    if lattice_q < 2:
        raise ValueError("lattice denominator must be >= 2")
    if K < 1:
        raise ValueError("need at least one satellite family")
    orbits = _lattice_orbits(lattice_q)
    if K > len(orbits):
        raise NotEnoughOrbits(
            f"lattice 1/{lattice_q} has {len(orbits)} orbits, wanted {K}")

    q = lattice_q
    lattice = sorted(pt for orbit in orbits for pt in orbit)
    names = {pt: f"({Fraction(pt[0], q)},{Fraction(pt[1], q)})"
             for pt in lattice}
    anchors = [orbits[k][0] for k in range(K)]

    points, fmap = [], []
    for pt in lattice:
        points.append(names[pt])
        fmap.append(names[_lattice_apply(pt, q)])
    # distances over scale = q * lcm(1..K): a lattice distance m/q is
    # m * lcm(1..K), the offset 1/k is scale // k
    unit = math.lcm(*range(1, K + 1))
    scale = q * unit
    # location: the offset and lattice point of each satellite, in order
    sat_orbits, location = [], []
    for k in range(1, K + 1):
        period = len(orbits[k - 1])
        ids = [f"q({k},{j})" for j in range(period)]
        pt = anchors[k - 1]
        for j, sid in enumerate(ids):
            points.append(sid)
            fmap.append(ids[(j + 1) % period])
            location.append((scale // k, pt))
            pt = _lattice_apply(pt, q)
        sat_orbits.append(tuple(ids))

    # wrap[t]: the distance of t/q to the nearest integer, over scale
    wrap = [unit * min(t, q - t) for t in range(q)]
    # lattice points carry offset 0, so one formula covers every pair
    placed = [(0, pt) for pt in lattice] + location
    matrix = [[0 if i == j else oa + ob + max(wrap[(pa[0] - pb[0]) % q],
                                              wrap[(pa[1] - pb[1]) % q])
               for j, (ob, pb) in enumerate(placed)]
              for i, (oa, pa) in enumerate(placed)]
    system = _assemble(points, matrix, scale, fmap, True, None)
    return MyexInstance(
        lattice_q, K, tuple(names[a] for a in anchors),
        tuple(sat_orbits), system)


def build_random_system(seed, size, invertible=False):
    """Deterministic random system: shortest-path metric, random map.

    Pairwise weights are drawn as exact rationals and completed to a
    metric by all-pairs shortest paths; the map is a uniform random
    function, or a uniform random permutation when ``invertible``.
    The same seed always yields the identical system.  A size above
    1000 is refused before any weight is drawn: no such table passes the
    metric-check budget.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    _check_size(size, f"random system size {size}")
    rng = random.Random(seed)
    # weights m/c with c in {1, 2, 3, 4, 6} are kept over 12 as m * (12 // c)
    base = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            w = rng.randint(1, 12) * (12 // rng.choice([1, 2, 3, 4, 6]))
            base[i][j] = base[j][i] = w
    for k in range(size):
        row_k = base[k]
        for row in base:
            via = row[k]
            for j in range(size):
                if via + row_k[j] < row[j]:
                    row[j] = via + row_k[j]
    points = tuple(f"p{i}" for i in range(size))
    if invertible:
        perm = list(range(size))
        rng.shuffle(perm)
        fmap = [points[perm[i]] for i in range(size)]
    else:
        fmap = [points[rng.randrange(size)] for _ in range(size)]
    return _assemble(points, base, 12, fmap, invertible or None, None)
