"""Finite metric systems and eventually periodic pseudo-orbits.

A *finite metric system* is a finite set of points with an exact
(rational-valued) metric and a self-map.  Orbits on such a system are
eventually periodic, so every infinite quantifier "for all times i"
can be discharged by checking a finite window: preperiod plus one
least common multiple of the cycle lengths involved.  That reduction
is the workhorse of this module and is unit-tested against long
unrolled prefixes.

Infinite (pseudo-)orbits are represented by :class:`Lasso` values:
a finite stem followed by a cycle repeated forever, optionally
extended into the past by a (possibly different) cycle.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MetricViolation, NotABijection, NotInvertible

__all__ = [
    "FiniteSystem",
    "Lasso",
    "ThresholdGrid",
    "as_fraction",
    "build_finite_system",
    "is_pseudo_orbit",
    "is_periodic_pseudo_orbit",
    "shadows",
    "threshold_grid",
]


# Largest decimal exponent magnitude a string may carry, CPython's
# default int digit limit: Fraction("1e-99999999") would build
# 10**99999999 before any check could run.  A parsed numerator or
# denominator must also stay within that many digits, or it could not
# be printed back.
_MAX_EXPONENT = 4300
_DIGIT_BOUND = 10 ** _MAX_EXPONENT  # the least integer of 4301 digits
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")
_LONG_DENOMINATOR = (f"common denominator of the distances has more than "
                     f"{_MAX_EXPONENT} digits")


def as_fraction(value):
    """Coerce ints, strings like ``"2/3"``, and Fractions to Fraction.

    A decimal exponent of magnitude above 4300, or a numerator or
    denominator of more than 4300 digits, is a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _EXPONENT.search(value)
        if match:
            digits = match[1].replace("_", "").lstrip("0")
            if (len(digits) > len(str(_MAX_EXPONENT))
                    or int(digits or "0") > _MAX_EXPONENT):
                raise ValueError(f"decimal exponent out of range in {value!r}"
                                 f" (magnitude at most {_MAX_EXPONENT})")
        try:
            q = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        if abs(q.numerator) >= _DIGIT_BOUND or q.denominator >= _DIGIT_BOUND:
            raise ValueError(f"too many digits in {value!r} (numerator and "
                             f"denominator at most {_MAX_EXPONENT} digits)")
        return q
    raise TypeError(f"not an exact rational: {value!r}")


class _cached:
    """An attribute built by ``build(instance)`` on first read, then
    stored on the instance, where later reads find it.

    functools.cached_property stores through ``instance.__dict__``; on
    CPython 3.11 reading ``__dict__`` moves an object's attributes out
    of their inline layout and slows every later attribute read of it,
    by about 40% for ``FiniteSystem.rank``.  A plain setattr does not.
    """

    def __init__(self, build):
        self.build, self.name, self.__doc__ = (build, build.__name__,
                                               build.__doc__)

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.build(instance)
        setattr(instance, self.name, value)
        return value


class FiniteSystem:
    """A finite metric space together with a self-map.

    Use :func:`build_finite_system` instead of calling this directly;
    the builder validates the metric axioms and the map.

    Attributes
    ----------
    points : tuple
        Point identifiers, in canonical order.
    scaled : tuple of tuple of int
        The distance matrix aligned with ``points``, times ``scale``:
        the one distance store.
    scale : int
        The common denominator of the distances, so that
        ``dist[i][j] == Fraction(scaled[i][j], scale)``.
    distance_values : tuple of Fraction
        The distinct distances, ascending.
    rank : tuple of tuple of int
        ``rank[i][j]`` is the position of ``dist[i][j]`` in
        ``distance_values``.  Both are built once, from the sorted
        distinct integers of ``scaled``.
    fmap : tuple of int
        ``fmap[i]`` is the index of the image of point ``i``.
    invertible : bool
        Whether the system acts on two-sided time.  When True the map
        is a bijection and every point is periodic.
    relation : tuple of tuple of int, or None
        Optional multivalued successor relation (used by window systems
        to remember the full shift-extension structure that the
        single-valued map collapses).
    """

    def __init__(self, points, scaled, scale, fmap, invertible, relation=None):
        self.points = tuple(points)
        self.index = {p: i for i, p in enumerate(self.points)}
        self.scaled = tuple(tuple(row) for row in scaled)
        self.scale = scale
        self.fmap = tuple(fmap)
        self.invertible = bool(invertible)
        self.relation = None if relation is None else tuple(
            tuple(sorted(succ)) for succ in relation
        )
        levels = sorted({d for row in self.scaled for d in row})
        pos = {d: r for r, d in enumerate(levels)}
        self.rank = tuple(tuple(pos[d] for d in row) for row in self.scaled)
        self.distance_values = tuple(Fraction(d, scale) for d in levels)
        self._memo = {}  # threshold structures, see _memoized

    # -- basic queries -------------------------------------------------

    @property
    def n(self):
        return len(self.points)

    @_cached
    def dist(self):
        """Exact distance matrix aligned with ``points``, as Fractions."""
        values = self.distance_values
        return tuple(tuple(values[r] for r in row) for row in self.rank)

    def d(self, x, y):
        """Distance between two point identifiers."""
        return self.distance_values[self.rank[self.index[x]][self.index[y]]]

    def apply(self, x, k=1):
        """Point identifier of the k-th image of ``x`` (k may be negative)."""
        return self.points[self.power(self.index[x], k)]

    # -- orbit structure -----------------------------------------------

    @_cached
    def _orbits(self):
        """(prefixes, cycles): per index, the orbit before its cycle and
        the cycle it enters, as index tuples."""
        prefixes, cycles = [], []
        for start in range(self.n):
            seen = {}
            seq = []
            v = start
            while v not in seen:
                seen[v] = len(seq)
                seq.append(v)
                v = self.fmap[v]
            enter = seen[v]
            prefixes.append(tuple(seq[:enter]))
            cycles.append(tuple(seq[enter:]))
        return tuple(prefixes), tuple(cycles)

    def preperiod(self, i):
        """Number of steps before the orbit of index ``i`` enters its cycle."""
        return len(self._orbits[0][i])

    def cycle(self, i):
        """The cycle (as an index tuple) eventually reached from index ``i``."""
        return self._orbits[1][i]

    def power(self, i, k):
        """Index of f^k applied to index ``i``; negative k needs invertibility."""
        prefixes, cycles = self._orbits
        prefix, cycle = prefixes[i], cycles[i]
        if k < 0:
            if not self.invertible:
                raise NotInvertible("negative iterates need an invertible system")
            return cycle[k % len(cycle)]
        if k < len(prefix):
            return prefix[k]
        return cycle[(k - len(prefix)) % len(cycle)]

    @property
    def max_preperiod(self):
        return max((self.preperiod(i) for i in range(self.n)), default=0)

    @property
    def cycle_lcm(self):
        """lcm of the lengths of all cycles of the functional graph."""
        lengths = {len(self.cycle(i)) for i in range(self.n)}
        return math.lcm(*lengths) if lengths else 1

    def periodic_indices(self):
        """Indices lying on a cycle of the functional graph."""
        return tuple(i for i in range(self.n) if self.preperiod(i) == 0)

    # -- exact threshold machinery ---------------------------------------
    #
    # Only the relative order of distances matters to the decision
    # procedures, so distances are compared through integer ranks.

    @_cached
    def spread_rank(self):
        """spread_rank[a][b] = max of rank[f^i a][f^i b] over all i >= 0.

        The rank of the largest distance the orbits of a and b ever
        reach.  The pair orbit repeats with period lcm(c_a, c_b) once
        both orbits are on their cycles (of lengths c_a, c_b), so each
        scan stops there, not at the lcm of all cycles.  Built once per
        system, on integer ranks.
        """
        return self._build_spread_rank()

    def _build_spread_rank(self):
        rank, fmap = self.rank, self.fmap
        pre, cyc = self._orbits
        spread = [[0] * self.n for _ in range(self.n)]
        for a in range(self.n):
            for b in range(a + 1, self.n):
                u, v = a, b
                worst = 0
                for _ in range(max(len(pre[a]), len(pre[b]))
                               + math.lcm(len(cyc[a]), len(cyc[b]))):
                    if rank[u][v] > worst:
                        worst = rank[u][v]
                    u, v = fmap[u], fmap[v]
                spread[a][b] = spread[b][a] = worst
        return tuple(tuple(row) for row in spread)

    def _memoized(self, key, build):
        """The memo entry ``key``, made by ``build()`` on first use.

        The memo holds the threshold structures every tracing question
        at the same cutoffs shares: the grid, balls, gap windows, tracer
        masks and component sizes.  A key is a name followed by integer
        cutoffs and gaps, never a Fraction, and an entry is immutable
        (tuples, ints, the frozen grid), so callers share it.  No search
        verdict is memoized."""
        try:
            return self._memo[key]
        except KeyError:
            entry = self._memo[key] = build()
            return entry

    def _balls(self, cut):
        """balls[y]: the bitmask of the j with rank[y][j] < cut."""
        return self._memoized(("balls", cut), lambda: tuple(
            sum(1 << j for j, r in enumerate(row) if r < cut)
            for row in self.rank))

    def _near(self, cut):
        """near[y]: the j with rank[y][j] < cut, ascending; the members
        of balls[y]."""
        return self._memoized(("near", cut), lambda: tuple(
            tuple(j for j, r in enumerate(row) if r < cut)
            for row in self.rank))

    def lt_cutoff(self, q):
        """Number of distance values < q, so d < q iff rank(d) < cutoff."""
        return bisect_left(self.distance_values, q)

    def le_cutoff(self, q):
        """Number of distance values <= q, so d <= q iff rank(d) < cutoff."""
        return bisect_right(self.distance_values, q)

    @property
    def max_distance(self):
        return self.distance_values[-1]

    def __repr__(self):
        tag = "invertible" if self.invertible else "forward"
        return f"<FiniteSystem {self.n} points, {tag}>"


@dataclass(frozen=True)
class Lasso:
    """Finite presentation of an eventually periodic (pseudo-)orbit.

    One-sided lassos denote the sequence ``stem`` followed by ``cycle``
    repeated forever.  Two-sided lassos additionally run a cycle
    backwards in time: index -1 is the last element of ``past_cycle``
    (which defaults to ``cycle``), index -2 the one before, and so on.
    """

    stem: tuple = ()
    cycle: tuple = ()
    two_sided: bool = False
    past_cycle: tuple | None = None

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be non-empty")
        if self.past_cycle is not None and not self.two_sided:
            raise ValueError("past_cycle only makes sense for two-sided lassos")

    @property
    def past(self):
        return self.cycle if self.past_cycle is None else self.past_cycle

    def __getitem__(self, i):
        s = len(self.stem)
        if i < 0:
            if not self.two_sided:
                raise IndexError("one-sided lasso has no negative indices")
            return self.past[i % len(self.past)]
        if i < s:
            return self.stem[i]
        return self.cycle[(i - s) % len(self.cycle)]

    def transitions(self):
        """All consecutive pairs (x_i, x_{i+1}), i drawn from one full pattern.

        Covers the stem, the seams, and one full wrap of every cycle;
        by periodicity this is every transition the lasso ever makes.
        """
        s = len(self.stem)
        pairs = []
        if self.two_sided:
            past = self.past
            pairs += [(past[j], past[(j + 1) % len(past)]) for j in range(len(past))]
            # seam from the past into index 0:
            pairs.append((past[-1], self[0]))
        pairs += [(self.stem[j], self[j + 1]) for j in range(s)]
        pairs += [
            (self.cycle[j], self.cycle[(j + 1) % len(self.cycle)])
            for j in range(len(self.cycle))
        ]
        return pairs


@dataclass(frozen=True)
class ThresholdGrid:
    """All thresholds at which any strict or non-strict predicate can flip.

    Contains 0, every distance value of the system, a value strictly
    below the least positive distance, and a sentinel strictly above
    the maximum distance (strict-< predicates keep changing up there).
    Between consecutive grid values every predicate built from distance
    comparisons is constant.
    """

    values: tuple

    @functools.cached_property
    def positive(self):
        return tuple(v for v in self.values if v > 0)

    @property
    def submin(self):
        """A positive value below every positive distance."""
        return self.positive[0]

    @property
    def top(self):
        """A value above every distance."""
        return self.values[-1]


def build_finite_system(points, dist, fmap, invertible=None, relation=None):
    """Validate and assemble a :class:`FiniteSystem`.

    Parameters
    ----------
    points : sequence
        Point identifiers (order is kept and canonical).
    dist : sequence of sequences
        Square matrix of exact rationals (Fraction, int, or "p/q" strings).
    fmap : sequence
        Image of each point, given by identifier, aligned with ``points``.
    invertible : bool or None
        Requested time structure.  ``None`` means "two-sided iff the map
        is a bijection".  ``True`` on a non-bijection raises
        :class:`NotABijection`.  ``False`` on a bijection is allowed and
        simply runs the system on one-sided time.
    relation : sequence of sequences or None
        Optional multivalued successor structure, by identifier.

    Raises
    ------
    MetricViolation
        If the distance table is not a metric (with the failing points).
    NotABijection
        See ``invertible``.
    ValueError
        On a malformed table, or when the common denominator of the
        distances has more than 4300 digits.
    """
    matrix = [[as_fraction(v) for v in row] for row in dist]
    scale = _common_denominator(matrix)
    scaled = [[v.numerator * (scale // v.denominator) for v in row]
              for row in matrix]
    return _assemble(points, scaled, scale, fmap, invertible, relation)


def _assemble(points, scaled, scale, fmap, invertible, relation):
    """Validate and assemble a :class:`FiniteSystem` from an integer
    table: the distance from ``points[i]`` to ``points[j]`` is
    ``scaled[i][j] / scale``, with ``scale`` a positive int.

    The one validation path: :func:`build_finite_system` and the
    gallery and window builders all end here.  The common factor of
    ``scale`` and the entries is divided out first, so ``scale`` is the
    least common denominator of the distances whatever table a builder
    hands in.  Raises as :func:`build_finite_system` documents."""
    points = tuple(points)
    n = len(points)
    if len(set(points)) != n:
        raise ValueError("duplicate point identifiers")
    if n == 0:
        raise ValueError("a system needs at least one point")
    if len(scaled) != n or any(len(row) != n for row in scaled):
        raise ValueError("distance matrix shape does not match points")
    common = math.gcd(scale, *itertools.chain.from_iterable(scaled))
    if common > 1:
        scale //= common
        scaled = [[v // common for v in row] for row in scaled]
    if scale >= _DIGIT_BOUND:
        raise ValueError(_LONG_DENOMINATOR)
    _check_metric(points, scaled, scale)

    idx = {p: i for i, p in enumerate(points)}
    try:
        fidx = tuple(idx[y] for y in fmap)
    except KeyError as e:
        raise ValueError(f"map sends a point outside the space: {e}") from None
    if len(fidx) != n:
        raise ValueError("map length does not match points")

    bijective = len(set(fidx)) == n
    if invertible is None:
        invertible = bijective
    elif invertible and not bijective:
        raise NotABijection("map declared invertible is not a bijection")

    rel = None
    if relation is not None:
        rel = tuple(tuple(idx[y] for y in succ) for succ in relation)
        if len(rel) != n:
            raise ValueError("relation length does not match points")

    sys_ = FiniteSystem(points, scaled, scale, fidx, invertible, rel)
    if sys_.invertible:
        # Finite bijections have no transient part; rely on this everywhere.
        assert all(sys_.preperiod(i) == 0 for i in range(n))
    return sys_


def _common_denominator(matrix):
    """lcm of the denominators of the distances.

    Folded one value at a time, so that a table whose lcm outgrows
    4300 digits is refused before it is built."""
    scale = 1
    for row in matrix:
        for v in row:
            scale = math.lcm(scale, v.denominator)
            if scale >= _DIGIT_BOUND:
                raise ValueError(_LONG_DENOMINATOR)
    return scale


def _check_metric(points, scaled, scale):
    """Raise MetricViolation at the first failing axiom: identity, then
    symmetry and positivity pair by pair, then the triangle inequality
    d(i,k) <= d(i,j) + d(j,k) at the first triple (i, j, k) in product
    order.  Decided on ``scaled``, the integer matrix; the message
    quotes the distances ``scaled[i][j] / scale`` as Fractions."""
    n = len(points)
    for i in range(n):
        if scaled[i][i] != 0:
            raise MetricViolation("identity", (points[i],), "nonzero self-distance")
    for i, j in itertools.combinations(range(n), 2):
        if scaled[i][j] != scaled[j][i]:
            raise MetricViolation("symmetry", (points[i], points[j]))
        if scaled[i][j] <= 0:
            raise MetricViolation("positivity", (points[i], points[j]))
    # (i, j) fails for some k iff d(i,k) - d(j,k) > d(i,j), and by
    # symmetry (j, i) iff d(i,k) - d(j,k) < -d(i,j): one difference list
    # decides both, and (i, i) never fails
    for i, j in itertools.combinations(range(n), 2):
        diff = list(map(operator.sub, scaled[i], scaled[j]))
        if max(diff) > scaled[i][j] or min(diff) < -scaled[i][j]:
            break
    else:
        return
    # some triple fails: find the first in product order
    for i, j in itertools.product(range(n), repeat=2):
        row_i, row_j, bound = scaled[i], scaled[j], scaled[i][j]
        if max(map(operator.sub, row_i, row_j)) > bound:
            k = next(k for k in range(n) if row_i[k] - row_j[k] > bound)
            raise MetricViolation(
                "triangle",
                (points[i], points[j], points[k]),
                f"{Fraction(row_i[k], scale)} > {Fraction(bound, scale)} + "
                f"{Fraction(row_j[k], scale)}",
            )


def is_pseudo_orbit(sys, lasso, delta):
    """True iff every step of the lasso jumps by less than ``delta``.

    A sequence (x_i) is a delta-pseudo-orbit when d(f(x_i), x_{i+1}) < delta
    for every i in its time set; the lasso structure reduces that to one
    pass over :meth:`Lasso.transitions`.
    """
    cutoff = sys.lt_cutoff(as_fraction(delta))
    for a, b in lasso.transitions():
        if sys.rank[sys.fmap[sys.index[a]]][sys.index[b]] >= cutoff:
            return False
    return True


def is_periodic_pseudo_orbit(sys, lasso, delta):
    """Period of the lasso as a periodic delta-pseudo-orbit, else None.

    Only pure cycles (empty stem, past equal to future cycle) qualify.
    The returned period is the declared cycle length, not necessarily
    the least one.
    """
    if lasso.stem or (lasso.past_cycle is not None and lasso.past_cycle != lasso.cycle):
        return None
    if not is_pseudo_orbit(sys, lasso, delta):
        return None
    return len(lasso.cycle)


def _forward_window(sys, i, lasso):
    """Window length certifying all forward comparisons of orbit vs lasso."""
    s = len(lasso.stem)
    joint_start = max(sys.preperiod(i), s)
    period = math.lcm(len(sys.cycle(i)), len(lasso.cycle))
    return joint_start + period


def shadows(sys, point, lasso, epsilon):
    """Decide d(f^i(point), x_i) < epsilon for every time i of the lasso.

    Both the orbit of ``point`` and the lasso are eventually periodic,
    so the infinite check reduces to the joint preperiod plus one joint
    period forward (and one joint period backward for two-sided lassos,
    which require an invertible system).
    """
    cutoff = sys.lt_cutoff(as_fraction(epsilon))
    i0 = sys.index[point]
    for k in range(_forward_window(sys, i0, lasso)):
        if sys.rank[sys.power(i0, k)][sys.index[lasso[k]]] >= cutoff:
            return False
    if lasso.two_sided:
        if not sys.invertible:
            raise NotInvertible("two-sided lasso on a one-sided system")
        back = math.lcm(len(sys.cycle(i0)), len(lasso.past))
        for k in range(-back, 0):
            if sys.rank[sys.power(i0, k)][sys.index[lasso[k]]] >= cutoff:
                return False
    return True


def threshold_grid(sys):
    """The :class:`ThresholdGrid` of a system, built once per system.

    Examples
    --------
    Three points at mutual distance 1 give {0, 1/2, 1, 2}: the distance
    values plus a sub-minimal and a top sentinel.
    """
    return sys._memoized(("grid",), lambda: _build_grid(sys))


def _build_grid(sys):
    positive = [v for v in sys.distance_values if v > 0]
    values = {Fraction(0)}
    if positive:
        values.add(positive[0] / 2)
        values.update(positive)
        values.add(positive[-1] + 1)
    else:
        values.add(Fraction(1))
    return ThresholdGrid(tuple(sorted(values)))


def _largest_passing(values, predicate):
    """Rightmost value in ascending ``values`` satisfying a monotone
    (downward-closed) predicate, or None, by binary search."""
    lo, hi = 0, len(values) - 1
    if predicate(values[hi]):
        return values[hi]
    if not predicate(values[lo]):
        return None
    # invariant: predicate(values[lo]) and not predicate(values[hi])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(values[mid]):
            lo = mid
        else:
            hi = mid
    return values[lo]


# -- digraph helpers -----------------------------------------------------------


def _image(w, rows):
    """The union of rows[z] over the bits z of the bitmask w: one step
    of the relation whose successor bitmasks are ``rows`` (1 << f(z)
    for a map f)."""
    out = 0
    while w:
        low = w & -w
        out |= rows[low.bit_length() - 1]
        w ^= low
    return out


def _strong_components(succ):
    """Strongly connected components of a digraph, as a list of vertex lists.

    ``succ`` gives each vertex's successors: a sequence indexed by
    0..n-1, or a dict keyed by the vertices.  Iterative Tarjan (SIAM J.
    Comput. 1, 1972), so depth is not bounded by the recursion limit.
    """
    vertices = succ.keys() if isinstance(succ, dict) else range(len(succ))
    # A vertex placed in a component gets an index above every DFS index,
    # so edges into finished components never lower a low-link.
    placed = len(vertices)
    index, low, stack, frames, components = {}, {}, [], [], []
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        frames.append((root, iter(succ[root])))
        while frames:
            v, targets = frames[-1]
            for w in targets:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        index[w] = placed
                    components.append(component)
    return components


def _closed_walk_counts(succ, m, primitive=False):
    """Closed walks of each length 1..m (entry k-1 for length k) of the
    digraph with edges {(v, w) : w in succ[v]}, i.e. trace(A^k): walk
    counts from each start are pushed forward as exact integers.

    With ``primitive``, count only the closed walks w with w[0] = min(w)
    that repeat no shorter walk.  Walks from each start r then stay
    inside the vertices >= r.  Such a walk of length k is the (k/d)-th
    power of exactly one primitive one of length d, for one d dividing
    k, so subtracting the primitive counts of the proper divisors
    leaves the primitive walks."""
    succ = [set(out) for out in succ]
    counts = [0] * m
    for start in range(len(succ)):
        floor = start if primitive else 0
        layer = {start: 1}
        for k in range(m):
            nxt = {}
            for v, walks in layer.items():
                for w in succ[v]:
                    if w >= floor:
                        nxt[w] = nxt.get(w, 0) + walks
            layer = nxt
            counts[k] += layer.get(start, 0)
    if primitive:
        for k in range(2, m + 1):
            counts[k - 1] -= sum(counts[d - 1] for d in range(1, k)
                                 if k % d == 0)
    return counts
