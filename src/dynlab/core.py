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
import reprlib
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
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
# The triangle check subtracts packed rows of n fields, each two bits
# wider than the widest scaled entry, about n^2 times: some n^3 times
# that bit width in bit operations.  A table whose n^3 times the bit
# width of the widest of L and the scaled entries exceeds this is
# refused unchecked.  The 168-point product window (3-bit entries)
# needs 1.4e7.
_METRIC_BUDGET = 10 ** 9
# Above this many points n^3 alone exceeds the budget, so such a table is
# refused at any bit width: builders refuse it before listing its points.
_MAX_POINTS = 1000


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


def _positive(value, name):
    """The threshold ``value`` as a Fraction; ValueError unless positive.
    With :func:`_at_least`, the one place a threshold or count is refused."""
    value = as_fraction(value)
    if value.numerator <= 0:  # a Fraction's denominator is positive
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _at_least(value, least, name):
    """ValueError when the count ``value`` is below ``least``."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _point_indices(sys, points):
    """The indices in ``sys`` of ``points``, in order; ValueError naming
    the first that is not a point of ``sys``.  A public call that takes
    points reads their indices here, before any search."""
    try:
        return list(map(sys.index.__getitem__, points))
    except KeyError as missing:
        raise ValueError(
            f"{missing.args[0]!r} is not a point of the system") from None


def _known_points(sys, lasso, *points):
    """ValueError naming the first of ``points``, then of the lasso's
    entries, that is not a point of ``sys``; a public call that takes a
    lasso asks this once, before any search."""
    _point_indices(sys, itertools.chain(points, lasso.stem, lasso.cycle,
                                        lasso.past_cycle or ()))


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


class _Record:
    """Base of dynlab's frozen result records (Lasso, the certificates,
    tables and reports).

    A subclass that declares fields is processed once by
    ``dataclass(init=False, repr=False, eq=False)``, which compiles no
    code, so ``dataclasses.fields``, ``replace``, ``is_dataclass`` and
    ``__match_args__`` work on it as on any dataclass.  The methods that
    ``@dataclass(frozen=True)`` would compile for every class (0.7 ms
    each on CPython 3.11, most of ``import dynlab``) are defined here
    once and behave as the compiled ones do: ``__init__`` takes the
    fields positionally or by keyword, with their defaults, then runs
    ``__post_init__``; ``repr``, ``==`` and ``hash`` read the field
    tuple; and fields cannot be set or deleted.  A subclass that
    declares no fields (``SymbolicPoint``) keeps its parent's, as an
    undecorated subclass of a dataclass does: only those fields are
    frozen on it.  ``__dataclass_params__`` reads init, repr, eq and
    frozen as False.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__annotations__" not in cls.__dict__:
            return
        dataclass(init=False, repr=False, eq=False)(cls)
        declared = fields(cls)
        if len(cls.__dataclass_fields__) != len(declared) or any(
                f.default_factory is not MISSING or not f.init
                for f in declared):
            raise TypeError(f"{cls.__qualname__}: record fields take plain "
                            f"defaults only, and no ClassVar or InitVar")
        cls._names = names = tuple(f.name for f in declared)
        cls._defaults = {f.name: f.default for f in declared
                         if f.default is not MISSING}
        # the field tuple, read in C for == and hash
        cls._values = (operator.attrgetter(*names) if len(names) > 1 else
                       staticmethod(lambda self: tuple(
                           getattr(self, name) for name in names)))

    def __init__(self, *args, **kwargs):
        names = self._names
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values, in order, of a call that passes keywords
        or leaves defaults; TypeError on a call that does not fit."""
        names = cls._names
        values = dict(cls._defaults)
        values.update(zip(names, args))
        values.update(kwargs)
        if (len(args) > len(names)
                or values.keys() != cls.__dataclass_fields__.keys()
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__qualname__}() takes the fields {names} "
                            f"(defaults {cls._defaults}), got {len(args)} "
                            f"positional arguments and the keywords "
                            f"{sorted(kwargs)}")
        return map(values.__getitem__, names)

    def __post_init__(self):
        pass

    @reprlib.recursive_repr()
    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._names)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def _frozen(self, name):
        """Whether ``name`` is frozen: any name on a record whose class
        declared its fields, a field name on any record."""
        return "__dataclass_fields__" in vars(type(self)) or name in self._names

    def __setattr__(self, name, value):
        if self._frozen(name):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if self._frozen(name):
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)


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
    levels : tuple of int
        The distinct entries of ``scaled``, ascending.
    distance_values : tuple of Fraction
        The distinct distances, ascending: ``levels`` over ``scale``.
    rank : tuple of tuple of int
        ``rank[i][j]`` is the position of ``dist[i][j]`` in
        ``distance_values``.  Both are built once, from ``levels``.
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
        self.levels = tuple(sorted(set(
            itertools.chain.from_iterable(self.scaled))))
        pos = {d: r for r, d in enumerate(self.levels)}
        self.rank = tuple(tuple(map(pos.__getitem__, row))
                          for row in self.scaled)
        self.distance_values = tuple(Fraction(d, scale) for d in self.levels)
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
        the cycle it enters, read from where the orbit enters it, as
        index tuples.

        Built in one pass, reading each image once: a walk stops at the
        first point with an entry, or at the first repeat, which closes
        a new cycle whose points take its rotations.  The walk's
        transients are then filled backwards, each taking its image's
        prefix behind itself and its image's cycle."""
        fmap = self.fmap
        prefixes, cycles = [None] * self.n, [None] * self.n
        for start in range(self.n):
            seen, walk, v = {}, [], start
            while cycles[v] is None and v not in seen:
                seen[v] = len(walk)
                walk.append(v)
                v = fmap[v]
            if cycles[v] is None:
                cycle = walk[seen[v]:]
                del walk[seen[v]:]
                for r, u in enumerate(cycle):
                    prefixes[u], cycles[u] = (), tuple(cycle[r:] + cycle[:r])
            for u in reversed(walk):
                prefixes[u], cycles[u] = (u,) + prefixes[v], cycles[v]
                v = u
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

    @_cached
    def max_preperiod(self):
        """The largest number of steps before an orbit enters its cycle."""
        return max(map(len, self._orbits[0]), default=0)

    @_cached
    def cycle_lcm(self):
        """lcm of the lengths of all cycles of the functional graph."""
        lengths = set(map(len, self._orbits[1]))
        return math.lcm(*lengths) if lengths else 1

    @_cached
    def _periodic(self):
        """The indices on a cycle, read by :meth:`periodic_indices`."""
        return tuple(i for i, prefix in enumerate(self._orbits[0])
                     if not prefix)

    def periodic_indices(self):
        """Indices lying on a cycle of the functional graph."""
        return self._periodic

    @_cached
    def _cycles(self):
        """The cycles of the map, each read from its least index, ordered
        by it."""
        return tuple(cyc for i, (prefix, cyc) in enumerate(zip(*self._orbits))
                     if not prefix and min(cyc) == i)

    # -- exact threshold machinery ---------------------------------------
    #
    # Only the relative order of distances matters to the decision
    # procedures, so distances are compared through integer ranks.

    @_cached
    def spread_rank(self):
        """spread_rank[a][b] = max of rank[f^i a][f^i b] over all i >= 0.

        The rank of the largest distance the orbits of a and b ever
        reach, built once per system on integer ranks, in O(n^2) steps
        whatever the cycle lengths.  A pair of fixed points never moves,
        so its entry is its rank.  The pairs between two cycles of
        lengths p and q split into gcd(p, q) pair orbits of length
        lcm(p, q): each orbit is walked once and its largest rank
        written to every pair on it (of a cycle paired with itself,
        only the offsets 1..p//2 are walked: offset p - r is offset r
        transposed).  A pair with a transient point
        then takes the larger of its own rank and the entry of its
        image pair, by ascending preperiod, so the image is final first.
        """
        return self._build_spread_rank()

    def _build_spread_rank(self):
        rank, fmap = self.rank, self.fmap
        spread = [list(row) for row in rank]
        cycles = sorted(self._cycles, key=len, reverse=True)
        for k, c1 in enumerate(cycles):
            if len(c1) == 1:
                break
            for c2 in cycles[k:]:
                steps = math.lcm(len(c1), len(c2))
                # a cycle paired with itself: offsets r and p - r walk
                # one pair orbit, transposed, and offset 0 is the
                # diagonal, whose rank 0 is already final
                offsets = (range(1, len(c1) // 2 + 1) if c2 is c1
                           else range(math.gcd(len(c1), len(c2))))
                for offset in offsets:
                    u, v, worst = c1[0], c2[offset], 0
                    for _ in range(steps):
                        if rank[u][v] > worst:
                            worst = rank[u][v]
                        u, v = fmap[u], fmap[v]
                    # back at the orbit's start: write the largest rank
                    # to every pair on it
                    for _ in range(steps):
                        spread[u][v] = spread[v][u] = worst
                        u, v = fmap[u], fmap[v]
        prefixes = self._orbits[0]
        done = list(self._periodic)
        for a in sorted((i for i in range(self.n) if prefixes[i]),
                        key=lambda i: len(prefixes[i])):
            done.append(a)
            row, image, ranks = spread[a], spread[fmap[a]], rank[a]
            for b in done:
                worst = image[fmap[b]]
                if ranks[b] > worst:
                    worst = ranks[b]
                row[b] = spread[b][a] = worst
        return tuple(map(tuple, spread))

    def _memoized(self, key, build):
        """The memo entry ``key``, made by ``build()`` on first use.

        The memo holds what questions at the same cutoffs share: the
        grid ``("grid",)``; balls as bitmasks and as tuples
        (``("balls", cut)``, ``("near", cut)``); the gap maps and
        tracking windows ``("windows", e_cut)``; the longest primitive
        closed walk of a gap graph ``("walks", d_cut, n)``; the tracer
        masks of the closed-chain search ``("masks", e_cut, n, length)``
        and its exact-period hits and step^k orbits, read off the
        cycles, ``("closures", n, length)``, one entry per residue of
        the walk length k modulo ``length``, the least of the bound and
        the lcm of the cycle lengths; the closed-chain counts
        ``("chain counts", d_cut, n, k_bound)``; the admissible steps
        as successor bitmasks ``("steps",)`` and the a-step rows
        ``("steps", a)``; f^(T + P) of every index
        ``("eventual",)``; and the expansiveness floors, the cutoffs up
        to which each rung of the hierarchy holds (``("n floors",)``,
        ``("periodic floors",)``).  A key is a name followed by integer
        cutoffs, gaps and bounds, never a Fraction, and an entry is
        immutable (tuples, ints, the frozen grid), so callers share it.
        No search verdict is memoized."""
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
        """Number of distance values < q, so d < q iff rank(d) < cutoff.

        Counted on ``levels`` in integers: a level is below q * scale iff
        it is below the ceiling of q * scale, read off the numerator and
        denominator of the rational q with no Fraction comparison."""
        return bisect_left(self.levels,
                           -(-q.numerator * self.scale // q.denominator))

    def le_cutoff(self, q):
        """Number of distance values <= q, so d <= q iff rank(d) < cutoff.

        Counted on ``levels`` in integers, as :meth:`lt_cutoff`: a level
        is at most q * scale iff it is at most its floor."""
        return bisect_right(self.levels,
                            q.numerator * self.scale // q.denominator)

    @property
    def max_distance(self):
        return self.distance_values[-1]

    def __repr__(self):
        tag = "invertible" if self.invertible else "forward"
        return f"<FiniteSystem {self.n} points, {tag}>"


class Lasso(_Record):
    """Finite presentation of an eventually periodic (pseudo-)orbit.

    One-sided lassos denote the sequence ``stem`` followed by ``cycle``
    repeated forever.  Two-sided lassos additionally run a cycle
    backwards in time: index -1 is the last element of ``past_cycle``
    (which defaults to ``cycle``), index -2 the one before, and so on.
    :class:`~dynlab.symbolic.SymbolicPoint` is the canonical two-sided
    form.
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


class ThresholdGrid(_Record):
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
        On a malformed table, when the common denominator of the
        distances has more than 4300 digits, or when the metric check
        would cost too much: n^3 times the bit width of the widest
        scaled distance (or of the common denominator) above 10^9.
    """
    points = tuple(points)
    matrix = [[as_fraction(v) for v in row] for row in dist]
    # each distinct entry once, keyed on its (numerator, denominator):
    # hashing a Fraction costs a modular inverse
    pairs = dict.fromkeys((v.numerator, v.denominator)
                          for row in matrix for v in row)
    dens = dict.fromkeys(den for _, den in pairs)
    scale = _common_denominator(dens)
    factor = {den: scale // den for den in dens}
    # a hostile table is refused before its entries are multiplied out;
    # reduced entries over their lcm share no factor with it, so these
    # are the widths _assemble will see
    _check_budget(_check_shape(points, matrix),
                  _widest_bits(scale, pairs, factor))
    value = {(num, den): num * factor[den] for num, den in pairs}
    scaled = [[value[v.numerator, v.denominator] for v in row]
              for row in matrix]
    return _assemble(points, scaled, scale, fmap, invertible, relation)


def _widest_bits(scale, pairs, factor):
    """Bit width of the widest of ``scale`` and the scaled entries
    ``num * factor[den]`` over the (num, den) ``pairs``, multiplying no
    entry out: a b-bit |num| times the c-bit factor has b + c bits iff
    |num| reaches ceil(2^(b + c - 1) / factor), a bound shared by every
    entry of that denominator and width, and b + c - 1 bits otherwise."""
    bits, least = scale.bit_length(), {}
    for num, den in pairs:
        a, f = abs(num), factor[den]
        if a:
            key = den, a.bit_length()
            full = key[1] + f.bit_length()
            if key not in least:
                least[key] = -(-(1 << (full - 1)) // f)
            bits = max(bits, full - (a < least[key]))
    return bits


def _check_shape(points, table):
    """The number of points, once they are distinct and non-empty and
    ``table`` is square over them."""
    n = len(points)
    if len(set(points)) != n:
        raise ValueError("duplicate point identifiers")
    if n == 0:
        raise ValueError("a system needs at least one point")
    if len(table) != n or any(len(row) != n for row in table):
        raise ValueError("distance matrix shape does not match points")
    return n


def _check_size(n, what):
    """Refuse ``what``, a system of at least ``n`` points, before its
    table is built, when ``n`` is above _MAX_POINTS."""
    if n > _MAX_POINTS:
        raise ValueError(
            f"{what}: more than {_MAX_POINTS} points exceed the budget of "
            f"{_METRIC_BUDGET} for n^3 times the bit width")


def _check_budget(n, bits):
    """Refuse a table whose metric check would cost too much."""
    if n ** 3 * bits > _METRIC_BUDGET:
        raise ValueError(
            f"distance table too costly to check: {n} points with {bits}-bit "
            f"scaled distances exceed the budget of {_METRIC_BUDGET} for "
            f"n^3 times the bit width")


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
    n = _check_shape(points, scaled)
    common = math.gcd(scale, *itertools.chain.from_iterable(scaled))
    if common > 1:
        scale //= common
        scaled = [[v // common for v in row] for row in scaled]
    widest = max(scale, *map(abs, itertools.chain.from_iterable(scaled)))
    _check_budget(n, widest.bit_length())
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
        try:
            rel = tuple(tuple(idx[y] for y in succ) for succ in relation)
        except KeyError as e:
            raise ValueError("relation sends a point outside the space: "
                             f"{e}") from None
        if len(rel) != n:
            raise ValueError("relation length does not match points")

    sys_ = FiniteSystem(points, scaled, scale, fidx, invertible, rel)
    if sys_.invertible:
        # Finite bijections have no transient part; rely on this everywhere.
        assert all(sys_.preperiod(i) == 0 for i in range(n))
    return sys_


def _common_denominator(dens):
    """lcm of the distinct denominators ``dens`` of the distances.

    Folded one denominator at a time, so that a table whose lcm
    outgrows 4300 digits is refused before it is built, and once per
    distinct denominator, since an lcm of long integers costs far more
    than hashing them."""
    scale = 1
    for den in dens:
        scale = math.lcm(scale, den)
        if scale >= _DIGIT_BOUND:
            raise ValueError(f"common denominator of the distances has "
                             f"more than {_MAX_EXPONENT} digits")
    return scale


def _check_metric(points, scaled, scale):
    """Raise MetricViolation at the first failing axiom: identity, then
    symmetry and positivity pair by pair, then the triangle inequality
    d(i,k) <= d(i,j) + d(j,k) at the first triple (i, j, k) in product
    order.  Decided on ``scaled``, the integer matrix; the message
    quotes the distances ``scaled[i][j] / scale`` as Fractions.

    The triangles are decided by :func:`_triangles_hold`, a packed pass
    over the pairs; only when it finds a failure are the rows rescanned
    in product order for the first failing triple."""
    n = len(points)
    for i in range(n):
        if scaled[i][i] != 0:
            raise MetricViolation("identity", (points[i],), "nonzero self-distance")
    for i, j in itertools.combinations(range(n), 2):
        if scaled[i][j] != scaled[j][i]:
            raise MetricViolation("symmetry", (points[i], points[j]))
        if scaled[i][j] <= 0:
            raise MetricViolation("positivity", (points[i], points[j]))
    if _triangles_hold(scaled):
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


def _triangles_hold(scaled):
    """Whether d(i,k) <= d(i,j) + d(j,k) for every triple, on a symmetric
    table ``scaled`` of non-negative ints.

    Each row is packed into one int, entry k in the W-bit field k, with
    W two bits wider than the widest entry.  The pair (i, j) holds for
    every k iff each field of d(i,j) + 2^(W-1) + row j - row i keeps its
    top bit: a field's value lies in (0, 2^W), so no borrow or carry
    crosses into the next, and its top bit is set iff d(j,k) + d(i,j)
    >= d(i,k).  Subtracting the rows the other way round decides (j, i),
    and (i, i) never fails.  Exact integers throughout: n^2 / 2 pairs,
    each a few sums of n W-bit fields."""
    n = len(scaled)
    width = max(map(max, scaled)).bit_length() + 2
    offsets = range(0, n * width, width)
    ones = sum(1 << k for k in offsets)
    top = ones << (width - 1)
    packed = [sum(map(operator.lshift, row, offsets)) for row in scaled]
    for i, j in itertools.combinations(range(n), 2):
        slack = scaled[i][j] * ones + top
        diff = packed[j] - packed[i]
        if (slack + diff) & (slack - diff) & top != top:
            return False
    return True


def is_pseudo_orbit(sys, lasso, delta):
    """True iff every step of the lasso jumps by less than ``delta``.

    A sequence (x_i) is a delta-pseudo-orbit when d(f(x_i), x_{i+1}) < delta
    for every i in its time set; the lasso structure reduces that to one
    pass over :meth:`Lasso.transitions`.
    """
    cutoff = sys.lt_cutoff(_positive(delta, "delta"))
    _known_points(sys, lasso)
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
    if (not is_pseudo_orbit(sys, lasso, delta) or lasso.stem
            or lasso.past != lasso.cycle):
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
    cutoff = sys.lt_cutoff(_positive(epsilon, "epsilon"))
    _known_points(sys, lasso, point)
    i0 = sys.index[point]
    if _first_miss(sys, i0, lasso, cutoff) is not None:
        return False
    if lasso.two_sided:
        if not sys.invertible:
            raise NotInvertible("two-sided lasso on a one-sided system")
        return _shadows_backward(sys, i0, lasso, cutoff)
    return True


def _first_miss(sys, i0, lasso, cutoff):
    """The forward half of :func:`shadows`: the least k >= 0 with
    rank(f^k(i0), x_k) >= cutoff, or None when the orbit of i0 traces
    every forward time of the lasso."""
    for k in range(_forward_window(sys, i0, lasso)):
        if sys.rank[sys.power(i0, k)][sys.index[lasso[k]]] >= cutoff:
            return k
    return None


def _shadows_backward(sys, i0, lasso, cutoff):
    """The backward half of :func:`shadows`: rank(f^k(i0), x_k) < cutoff
    for every k < 0.  On an invertible system both sides run backward
    along cycles, so one joint period of them is every negative time."""
    back = math.lcm(len(sys.cycle(i0)), len(lasso.past))
    return all(sys.rank[sys.power(i0, k)][sys.index[lasso[k]]] < cutoff
               for k in range(-back, 0))


def threshold_grid(sys):
    """The :class:`ThresholdGrid` of a system, built once per system.

    Examples
    --------
    Three points at mutual distance 1 give {0, 1/2, 1, 2}: the distance
    values plus a sub-minimal and a top sentinel.
    """
    return sys._memoized(("grid",), lambda: _build_grid(sys))


def _build_grid(sys):
    """The grid in order: ``distance_values`` ascend from 0, so 0, half
    the least positive distance, the positive distances and the largest
    plus one (0 and 1 on one point)."""
    zero, *positive = sys.distance_values
    if not positive:
        return ThresholdGrid((zero, Fraction(1)))
    return ThresholdGrid((zero, positive[0] / 2, *positive, positive[-1] + 1))


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


def _row_power(rows, a):
    """The a-step successor bitmasks of the relation whose one-step
    bitmasks are ``rows``, a >= 0 (the identity rows at a = 0): the
    rows squared and multiplied along the bits of a, lowest first, in
    O(n log a) images.  Intermediate steps go anywhere."""
    power = None  # the identity, built only when a = 0
    while a:
        if a & 1:
            power = rows if power is None else tuple(
                map(_image, power, itertools.repeat(rows)))
        a >>= 1
        if a:
            rows = tuple(map(_image, rows, itertools.repeat(rows)))
    return tuple(1 << z for z in range(len(rows))) if power is None else power


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


def _cycle_spectrum(lengths, m):
    """Closed walks of each length 1..m (entry k-1 for length k) of a
    map whose cycles have the given lengths, one entry per cycle: the
    closed walks of length k are the whole rounds of the cycles whose
    length p divides k, one from each of their p points, so trace(A^k)
    = sum over p | k of p * c_p, c_p the number of p-cycles."""
    points = [0] * m  # entry p - 1: the points on p-cycles
    for p in lengths:
        if p <= m:
            points[p - 1] += p
    counts = [0] * m
    for p, count in enumerate(points, 1):
        if count:
            for k in range(p - 1, m, p):
                counts[k] += count
    return counts


def _twin_quotient(succ):
    """The digraph of the hashable successor rows ``succ`` with its twins
    merged, round after round until no two rows are equal: twins are
    vertices with equal rows, so frozensets of successors merge as sets
    and tuples as multisets.

    Each round keeps one vertex per class of equal rows, in order of
    first members, and gives it the first member's row with every
    successor replaced by its class, as a sorted tuple: a class reached
    from that row through several members gets one edge per member.
    With A = P·R, where P sends each vertex to its class and R keeps one
    row per class, the quotient's matrix is R·P, and trace((P·R)^k) =
    trace((R·P)^k) for k >= 1, so the closed-walk counts of every
    positive length are kept.  Rows of a twin-free digraph come back
    as given.  A window system, a higher-block model of a shift of
    finite type, is mostly twins: the 70 points of the (2,3,5) product
    window merge to 15 vertices."""
    while True:
        classes = {}
        cls = [classes.setdefault(row, len(classes)) for row in succ]
        if len(classes) == len(succ):
            return succ
        succ = [tuple(sorted(map(cls.__getitem__, row))) for row in classes]


def _closed_walk_counts(succ, m, primitive=False):
    """Closed walks of each length 1..m (entry k-1 for length k) of the
    digraph with edges {(v, w) : w in succ[v]}, i.e. trace(A^k); a
    repeated successor is one edge.

    A map, where no vertex has two successors (a vertex may have none),
    is read off its cycle lengths by :func:`_cycle_spectrum`.  One
    pointer walk from each unseen vertex finds the cycles in O(n): each
    vertex is stamped once with a running step count, and a walk that
    stops on a vertex stamped by itself, not by an earlier walk, closes
    a cycle as long as the steps since that stamp.

    Any other digraph is first merged to its twin quotient by
    :func:`_twin_quotient` (vertices with equal successor rows share
    their closed-walk counts), whose edges may repeat; n and A below
    are the quotient's.  Primitive counts keep the unmerged digraph:
    its least-rooted walks are ordered by vertex, and a class has no
    least member.

    The walks are then pushed from all starts at once, in packed
    integer fields (the idiom of :func:`_triangles_hold`): ``at[v]`` is
    one int whose W-bit field r counts the walks of the current length
    from r to v, and one step sets ``at[v]`` to the sum of ``at[u]``
    over the edges (u, v), once per edge.  Masking field v of each
    ``at[v]`` gathers the diagonal of A^k into one int, and halving
    folds, each adding the upper half of its fields onto the lower
    half, sum it to trace(A^k) in linear time, where one product with a
    1 in every field would cost a full multiplication of n*W-bit ints.
    W is the bit length of the largest number of walks of one length
    k <= m (at least n, the walks of length 0), counted first by the
    same push on plain ints.  That number bounds every entry of A^k and
    every partial sum of trace(A^k), so no field carries into the next.

    With ``primitive``, count only the closed walks w with w[0] = min(w)
    that repeat no shorter walk: c_k for a map, one round of each
    k-cycle from its least point.  The push clears the fields r > v of
    ``at[v]`` at each step, so walks from r stay inside the vertices
    >= r.  Such a walk of length k is the (k/d)-th power of exactly one
    primitive one of length d, for one d dividing k, so subtracting the
    primitive counts of the proper divisors leaves the primitive walks."""
    succ = [frozenset(out) for out in succ]
    if all(len(out) < 2 for out in succ):
        lengths, seen, steps = [], [0] * len(succ), 0
        for root in range(len(succ)):
            v, first = root, steps + 1
            while v is not None and not seen[v]:
                steps += 1
                seen[v] = steps
                v = next(iter(succ[v]), None)
            if v is not None and seen[v] >= first:
                lengths.append(steps - seen[v] + 1)
        if primitive:
            return [lengths.count(k) for k in range(1, m + 1)]
        return _cycle_spectrum(lengths, m)
    if not primitive:
        succ = _twin_quotient(succ)
    n = len(succ)
    preds = [[] for _ in succ]
    for u, out in enumerate(succ):
        for v in out:
            preds[v].append(u)
    # a vertex with one predecessor reads it directly
    preds = [p[0] if len(p) == 1 else p for p in preds]

    def push(at):
        return [at[p] if type(p) is int else sum(map(at.__getitem__, p))
                for p in preds]

    most, at = n, [1] * n
    for _ in range(m):
        at = push(at)
        most = max(most, sum(at))
    width = most.bit_length()
    shifts = range(0, n * width, width)
    at = [1 << s for s in shifts]
    diag = [((1 << width) - 1) << s for s in shifts]
    low = [(1 << s + width) - 1 for s in shifts]
    folds, fields = [], n
    while fields > 1:
        fields -= fields // 2
        folds.append((fields * width, (1 << fields * width) - 1))
    counts = []
    for _ in range(m):
        at = push(at)
        if primitive:
            at = list(map(int.__and__, at, low))
        trace = sum(map(int.__and__, at, diag))
        for shift, mask in folds:
            trace = (trace & mask) + (trace >> shift)
        counts.append(trace)
    if primitive:
        for k in range(2, m + 1):
            counts[k - 1] -= sum(counts[d - 1] for d in range(1, k)
                                 if k % d == 0)
    return counts
