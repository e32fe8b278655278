"""Chain recurrence, the non-wandering set, and spectral decompositions.

Everything here treats a system through its *admissible step sets*: a
plain system steps with its map, while a window system steps with the
full multivalued extension relation it carries.  The single-valued map
of a window system picks one canonical extension per word, and using it
alone would make recurrence structure (periods, basic sets, mixing) an
artifact of that choice; the relation restores every admissible step.
Vertex sets are integer bitmasks (bit i for index i); one step of a
set is :func:`dynlab.core._image` over the steps as successor bitmasks,
and mixing squares such rows up to Wielandt's exponent.

The spectral decomposition is computed twice, by independent routes:

* a graph route — strongly connected pieces of the recurrent part,
  with the cyclic parts read off breadth-first phase classes; and
* a stable-set route — iterating "global stable set of a periodic
  anchor, intersected with the piece" until it closes up.

Both variants are kept on the result and compared, and every claimed
invariant can be re-verified from scratch via :meth:`Decomposition.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (_image, _largest_passing, _strong_components, as_fraction,
                   threshold_grid)
from .expansive import stable_sets, strong_measure_expansive_holds
from .shadowing import DeltaGraph

__all__ = [
    "BasicPiece",
    "ChainRecurrence",
    "Decomposition",
    "HypothesisReport",
    "basic_sets",
    "chain_graph",
    "chain_recurrent_set",
    "cp_construction",
    "cyclic_decomposition",
    "hypothesis_report",
    "is_mixing",
    "is_transitive",
    "nonwandering_set",
    "spectral_decomposition",
]


def _step_sets(sys):
    """Admissible one-step successors per index: relation, else the map."""
    if sys.relation is not None:
        return sys.relation
    return tuple((j,) for j in sys.fmap)


def _mask(indices):
    return sum(1 << i for i in indices)


def _members(mask):
    """The indices of the bits of ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _step_masks(sys):
    """The admissible steps of :func:`_step_sets` as successor bitmasks."""
    return tuple(_mask(out) for out in _step_sets(sys))


def chain_graph(sys, delta):
    """Digraph with an edge x -> y iff some admissible step from x lands
    within delta of y (strict, matching the pseudo-orbit convention).

    Infinite walks of this graph are exactly the delta-pseudo-orbits a
    multivalued stepper can realise; for plain systems it coincides with
    the delta step graph used by the tracing procedures.
    """
    delta = as_fraction(delta)
    near = sys._balls(sys.lt_cutoff(delta))
    return DeltaGraph(delta, tuple(_members(_image(out, near))
                                   for out in _step_masks(sys)))


def _chain_levels(sys):
    """Yield (delta, strong components, bitmask of the points on a closed
    walk of length >= 1) of the chain graph at each positive grid delta."""
    for delta in threshold_grid(sys).positive:
        succ = chain_graph(sys, delta).succ
        comps = _strong_components(succ)
        yield delta, comps, _mask(i for comp in comps for i in comp
                                  if len(comp) > 1 or comp[0] in succ[comp[0]])


@dataclass(frozen=True)
class ChainRecurrence:
    """Chain recurrent points, with the per-threshold table they came from.

    ``table`` rows are (delta, points-on-a-delta-chain-cycle) over the
    positive threshold grid, ascending; ``points`` is the intersection.
    """

    points: tuple
    table: tuple


def chain_recurrent_set(sys):
    """Points that chain back to themselves at every positive grid delta.

    A point is recurrent at delta when it lies on a cycle of
    :func:`chain_graph`; shrinking delta only removes edges, so the
    intersection over the grid decides every positive threshold at once.
    """
    rows = []
    common = (1 << sys.n) - 1
    for delta, _, on_cycle in _chain_levels(sys):
        rows.append((delta, tuple(sys.points[i] for i in _members(on_cycle))))
        common &= on_cycle
    return ChainRecurrence(
        tuple(sys.points[i] for i in _members(common)), tuple(rows)
    )


def nonwandering_set(sys):
    """Points every neighborhood of which returns to itself.

    Direct reading on the grid: x is non-wandering iff for every grid
    epsilon some admissible k-step image of the open ball B(x, eps)
    meets the ball again, k >= 1.  Some return happens by step n (the
    number of points) if any does: a shortest walk from the ball back
    to it has distinct intermediate points, all outside the ball, so
    its length is at most n.  Sets are pushed as bitmasks.
    """
    steps = _step_masks(sys)
    balls = [sys._balls(sys.lt_cutoff(eps))
             for eps in threshold_grid(sys).positive]
    result = []
    for x in range(sys.n):
        for ball in (by_eps[x] for by_eps in balls):
            layer = ball
            for _ in range(sys.n):
                layer = _image(layer, steps)
                if layer & ball:
                    break
            else:
                break  # this ball never returns: x wanders
        else:
            result.append(sys.points[x])
    return tuple(result)


def basic_sets(sys):
    """Classes of mutual chain reachability, within the recurrent part.

    Two recurrent points are equivalent when they lie in the same
    strongly connected component of the chain graph at *every* positive
    grid delta.  Returned as point tuples, each in canonical order,
    sorted by their least member.
    """
    labels = {i: [] for i in range(sys.n)}
    recurrent = (1 << sys.n) - 1
    for _, comps, on_cycle in _chain_levels(sys):
        for comp in comps:
            tag = min(comp)
            for i in comp:
                labels[i].append(tag)
        recurrent &= on_cycle
    classes = {}
    for i in _members(recurrent):
        classes.setdefault(tuple(labels[i]), []).append(i)
    pieces = sorted(classes.values(), key=lambda ids: ids[0])
    return tuple(tuple(sys.points[i] for i in ids) for ids in pieces)


def _restricted_succ(sys, members):
    """Admissible steps that stay inside ``members`` (an index set)."""
    steps = _step_sets(sys)
    return {i: tuple(j for j in steps[i] if j in members) for i in members}


def _phase_levels(succ):
    """Breadth-first levels from the least vertex, and the graph's period.

    ``succ`` is a strongly connected graph as a dict of successor
    lists.  The period (gcd of all closed-walk lengths) is the gcd of
    level[i] + 1 - level[j] over the edges i -> j.
    """
    root = min(succ)
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for i in frontier:
            for j in succ[i]:
                if j not in level:
                    level[j] = level[i] + 1
                    nxt.append(j)
        frontier = nxt
    period = 0
    for i, out in succ.items():
        for j in out:
            period = math.gcd(period, level[i] + 1 - level[j])
    return level, period


def cyclic_decomposition(sys, B):
    """Period and cyclic parts of the step graph restricted to a basic set.

    Returns (a, parts) where a is the gcd of the lengths of all closed
    walks inside B (the period of the restricted graph) and parts
    C_0..C_{a-1} are the breadth-first phase classes, anchored so that
    C_0 contains the least member and each step advances the phase by
    one.

    Raises ValueError when B is not strongly connected under the
    restricted steps (then it is not a basic set).
    """
    members = {sys.index[p] for p in B}
    succ = _restricted_succ(sys, members)
    if any(not out for out in succ.values()):
        raise ValueError("not a basic set: a member has no step inside it")
    if len(_strong_components(succ)) != 1:
        raise ValueError("not a basic set: not strongly connected")
    level, a = _phase_levels(succ)
    parts = [[] for _ in range(a)]
    for i in sorted(members):
        parts[level[i] % a].append(sys.points[i])
    return a, tuple(tuple(part) for part in parts)


def _reach_after(steps, start, k):
    """Bitmask of the indices reachable from the bitmask ``start`` in
    exactly k steps of the successor bitmasks ``steps``."""
    for _ in range(k):
        start = _image(start, steps)
    return start


def _primitive(rows, full):
    """Is some power full of the relation whose successor bitmasks are
    ``rows``, a dict over the m bits of ``full``?  Squares the rows until
    each is ``full``: a full power stays full, and a primitive relation
    is full from exponent (m - 1)^2 + 1 on (H. Wielandt, Math. Z. 52,
    1950), so squaring up to that exponent decides exactly."""
    bound, exponent = (len(rows) - 1) ** 2 + 1, 1
    while not all(row == full for row in rows.values()):
        if exponent >= bound:
            return False
        rows = {i: _image(r, rows) for i, r in rows.items()}
        exponent *= 2
    return True


def is_mixing(sys, part, a):
    """Is the a-step dynamics restricted to the part primitive?

    Builds the "reachable in exactly ``a`` admissible steps" relation
    between part members as bitmask rows and asks :func:`_primitive`
    whether some power of it is full.  Walks may only pass through
    points that can return to the part, so no explicit restriction of
    the intermediate steps is needed for parts of a genuine
    decomposition; a wrong ``a`` shows up as a parity-style
    obstruction and yields False.
    """
    steps, full = _step_masks(sys), _mask(sys.index[p] for p in part)
    return _primitive({i: _reach_after(steps, 1 << i, a) & full
                       for i in _members(full)}, full)


def is_transitive(sys, subset):
    """Does one admissible orbit visit every point of the subset?

    Plain systems: some point's forward orbit covers the subset.
    Multivalued systems: the relation restricted to the subset is
    strongly connected (a covering closed walk then exists).
    """
    wanted = {sys.index[p] for p in subset}
    if not wanted:
        raise ValueError("empty subset")
    if len(wanted) == 1:
        return True
    if sys.relation is None:
        for i in range(sys.n):
            seen = set(sys.cycle(i))
            j = i
            while j not in seen:
                seen.add(j)
                j = sys.fmap[j]
            if wanted <= seen:
                return True
        return False
    return len(_strong_components(_restricted_succ(sys, wanted))) == 1


def cp_construction(sys, B, p):
    """Part of a basic set grown from a periodic anchor's stable set.

    C_p = (global stable set of p) intersected with B.  Requires p to
    be a periodic member of B.
    """
    if p not in B:
        raise ValueError("anchor must belong to the basic set")
    if sys.preperiod(sys.index[p]) != 0:
        raise ValueError("anchor must be periodic")
    top = threshold_grid(sys).top
    stable = set(stable_sets(sys, p, top, include_unstable=False).s_global)
    return tuple(q for q in B if q in stable)


def _cp_parts(sys, B):
    """Stable-set route to the cyclic parts: iterate the anchor forward.

    Returns (M, parts) where M is the least positive step count with
    C_{f^M(anchor)} == C_anchor, or None when B holds no periodic point
    to anchor on (possible only for multivalued systems, where the
    canonical map may spiral out of the piece).
    """
    periodic = [p for p in B if sys.preperiod(sys.index[p]) == 0]
    if not periodic:
        return None
    anchor = periodic[0]
    first = cp_construction(sys, B, anchor)
    parts, point = [first], sys.apply(anchor)
    bound = len(sys.cycle(sys.index[anchor]))
    for m in range(1, bound + 1):
        current = cp_construction(sys, B, point)
        if current == first:
            return m, tuple(parts)
        parts.append(current)
        point = sys.apply(point)
    raise AssertionError("anchor iteration must close within its period")


@dataclass(frozen=True)
class HypothesisReport:
    """Grid diagnosis of the assumptions the decomposition relies on.

    ``strong_constant`` is the largest grid delta at which strong
    measure expansiveness holds (on a finite system the sub-minimal
    threshold always works, so it is never None); ``strong_fails_at``
    lists every positive grid delta where it fails, which is how a
    degenerating example announces itself.
    """

    invertible: bool
    strong_constant: Fraction
    strong_fails_at: tuple

    @property
    def shadowing_populated(self):
        """Whether every grid epsilon has a shadowing delta: always True.

        At the sub-minimal grid threshold the step graph is the map
        itself, so every pseudo-orbit is a true orbit and shadows itself
        at any positive epsilon.  The flag is kept for the report format.
        """
        return True

    @property
    def passes(self):
        return self.invertible and self.shadowing_populated


def hypothesis_report(sys):
    grid = threshold_grid(sys)
    constant = _largest_passing(
        grid.positive, lambda d: strong_measure_expansive_holds(sys, d)[0]
    )
    fails = tuple(d for d in grid.positive if d > constant)
    return HypothesisReport(sys.invertible, constant, fails)


@dataclass(frozen=True)
class BasicPiece:
    """One basic set with both decompositions of its cyclic structure.

    ``parts``/``period`` come from the graph route, ``cp_parts`` from
    the stable-set route (None when no periodic anchor exists);
    ``routes_agree`` compares them as partitions.
    """

    points: tuple
    period: int
    parts: tuple
    mixing: tuple
    cp_parts: tuple | None
    routes_agree: bool | None


@dataclass(frozen=True)
class Decomposition:
    pieces: tuple
    report: HypothesisReport

    def partition(self, route="graph"):
        """All cyclic parts of all pieces, as a set of frozensets."""
        if route == "graph":
            return {frozenset(part) for piece in self.pieces
                    for part in piece.parts}
        if route == "stable-set":
            return {frozenset(part) for piece in self.pieces
                    if piece.cp_parts is not None for part in piece.cp_parts}
        raise ValueError(f"unknown route {route!r}")

    def verify(self, sys):
        """Re-check every structural claim from scratch.

        Returns a dict of named booleans; all True means the output is
        a genuine decomposition of the non-wandering set into cyclically
        rotating, internally mixing pieces.
        """
        seen = set()
        disjoint = True
        for piece in self.pieces:
            if seen & set(piece.points):
                disjoint = False
            seen |= set(piece.points)
        covers = tuple(sorted(seen, key=sys.index.get)) == nonwandering_set(sys)

        steps = _step_masks(sys)
        invariant = shift = power = transitive = primitive = True
        for piece in self.pieces:
            members = _mask(sys.index[p] for p in piece.points)
            if any(not steps[i] & members for i in _members(members)):
                invariant = False
            a, parts = piece.period, piece.parts
            masks = [_mask(sys.index[p] for p in part) for part in parts]
            for k, here in enumerate(masks):
                if _image(here, steps) & members != masks[(k + 1) % a]:
                    shift = False
                back = here
                for _ in range(a):
                    back = _image(back, steps) & members
                if back != here:
                    power = False
            if not is_transitive(sys, piece.points):
                transitive = False
            # mixing flags re-checked by a different criterion: primitive
            # iff strongly connected with trivial period
            for flag, here in zip(piece.mixing, masks):
                step_a = {i: _members(_reach_after(steps, 1 << i, a) & here)
                          for i in _members(here)}
                connected = len(_strong_components(step_a)) == 1
                if flag != (connected and _phase_levels(step_a)[1] == 1):
                    primitive = False

        return {
            "disjoint": disjoint,
            "covers_nonwandering": covers,
            "invariant": invariant,
            "parts_shift": shift,
            "parts_period": power,
            "transitive": transitive,
            "primitive": primitive,
        }


def spectral_decomposition(sys):
    """Basic sets, cyclic parts, periods and mixing flags, twice over.

    The hypotheses that make the decomposition meaningful (invertible,
    tracing modulus populated, strong measure expansiveness scale) are
    diagnosed in the report, never enforced: degenerate instances get a
    decomposition plus an honest flag.
    """
    pieces = []
    for B in basic_sets(sys):
        a, parts = cyclic_decomposition(sys, B)
        mixing = tuple(is_mixing(sys, part, a) for part in parts)
        cp = _cp_parts(sys, B)
        if cp is None:
            cp_parts, agree = None, None
        else:
            m, cp_parts = cp
            agree = (m == a) and (
                {frozenset(p) for p in cp_parts} == {frozenset(p) for p in parts}
            )
        pieces.append(BasicPiece(B, a, parts, mixing, cp_parts, agree))
    return Decomposition(tuple(pieces), hypothesis_report(sys))