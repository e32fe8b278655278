"""Chain recurrence, the non-wandering set, and spectral decompositions.

Everything here treats a system through its *admissible step sets*: a
plain system steps with its map, while a window system steps with the
full multivalued extension relation it carries.  The single-valued map
of a window system picks one canonical extension per word, and using it
alone would make recurrence structure (periods, basic sets, mixing) an
artifact of that choice; the relation restores every admissible step.
Vertex sets are integer bitmasks (bit i for index i); one step of a
set is :func:`dynlab.core._image` over the steps as successor bitmasks,
the a-step rows are built once per system and a, and mixing squares
such rows up to Wielandt's exponent.

The spectral decomposition is computed twice, by independent routes:

* a graph route — the strongly connected pieces of the step relation
  that carry a closed walk, which are the basic sets at every grid
  threshold (the chain graph only gains edges as the threshold grows,
  and below the least positive distance it is the step relation), with
  the cyclic parts read off breadth-first phase classes; and
* a stable-set route — iterating "global stable set of a periodic
  anchor, intersected with the piece" until it closes up.

Both variants are kept on the result and compared, and every claimed
invariant can be re-verified from scratch via :meth:`Decomposition.verify`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (_Record, _at_least, _image, _point_indices, _positive,
                   _row_power, _strong_components, threshold_grid)
from .expansive import _eventual_images, _strong_constant

__all__ = [
    "BasicPiece",
    "ChainRecurrence",
    "Decomposition",
    "DeltaGraph",
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
    mask = 0
    for i in indices:
        mask |= 1 << i  # a repeated index sets its bit once
    return mask


def _members(mask):
    """The indices of the bits of ``mask``, ascending: one step per set
    bit, peeling the lowest."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _step_masks(sys):
    """The admissible steps of :func:`_step_sets` as successor bitmasks,
    built once per system."""
    return sys._memoized(("steps",), lambda: tuple(
        _mask(out) for out in _step_sets(sys)))


def _power_masks(sys, a):
    """The a-step successor bitmask of every index, a >= 1, built once
    per system and a.  A map's row is read off the orbit table; a
    relation's rows are the one-step rows raised to the a-th power by
    :func:`~dynlab.core._row_power`.  Intermediate steps go anywhere."""
    def build():
        if sys.relation is None:
            rows = []
            for i in range(sys.n):
                rows.append(1 << sys.power(i, a))
            return tuple(rows)
        return _row_power(_step_masks(sys), a)
    return sys._memoized(("steps", a), build)


def _cyclic_components(succ):
    """The strong components of ``succ`` that carry a closed walk of
    length >= 1: more than one vertex, or a vertex with a self-loop."""
    return [comp for comp in _strong_components(succ)
            if len(comp) > 1 or comp[0] in succ[comp[0]]]


class DeltaGraph(_Record):
    """The chain graph of a system at threshold delta (strict inequality)."""

    delta: Fraction
    succ: tuple  # succ[i]: the j within delta of a step from i, ascending


def chain_graph(sys, delta):
    """Digraph with an edge x -> y iff some admissible step from x lands
    within delta of y (strict, matching the pseudo-orbit convention).

    Infinite walks of this graph are exactly the delta-pseudo-orbits a
    multivalued stepper can realise; for plain systems it coincides with
    the delta step graph used by the tracing procedures.
    """
    delta = _positive(delta, "delta")
    near = sys._balls(sys.lt_cutoff(delta))
    return DeltaGraph(delta, tuple(_members(_image(out, near))
                                   for out in _step_masks(sys)))


class ChainRecurrence(_Record):
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
    intersection over the grid decides every positive threshold at once,
    and it is the first row: at the sub-minimal delta the chain graph is
    the step relation.  The table keeps every row.
    """
    rows = []
    common = (1 << sys.n) - 1
    for delta in threshold_grid(sys).positive:
        on_cycle = _mask(i for comp in _cyclic_components(
            chain_graph(sys, delta).succ) for i in comp)
        rows.append((delta, tuple(sys.points[i] for i in _members(on_cycle))))
        common &= on_cycle
    return ChainRecurrence(
        tuple(sys.points[i] for i in _members(common)), tuple(rows)
    )


def nonwandering_set(sys):
    """Points every neighborhood of which returns to itself.

    Read on the grid, x is non-wandering iff for every grid epsilon some
    admissible k-step image of the open ball B(x, eps) meets the ball
    again, k >= 1.  The least ball, at the sub-minimal epsilon, is {x},
    and every other ball contains it: if {x} returns to x, every ball
    returns.  So x is non-wandering iff x is reached again from {x},
    that is, iff x lies on a closed walk of the step relation: in a
    strong component of it with more than one point, or alone with a
    self-loop.  Those are read off one strong-component pass
    (:func:`_cyclic_components`), in point order.
    """
    on_cycle = sorted(i for comp in _cyclic_components(_step_sets(sys))
                      for i in comp)
    return tuple(sys.points[i] for i in on_cycle)


def basic_sets(sys):
    """Classes of mutual chain reachability, within the recurrent part.

    Two recurrent points are equivalent when they lie in the same
    strongly connected component of the chain graph at *every* positive
    grid delta.  Decided once, on the step relation: the chain graph
    only gains edges as delta grows, and at the sub-minimal delta it is
    the step relation, so its components refine those at every delta
    and its points on a closed walk are the recurrent ones.  Returned
    as point tuples, each in canonical order, sorted by their least
    member.
    """
    pieces = sorted(sorted(comp)
                    for comp in _cyclic_components(_step_sets(sys)))
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
    members = set(_point_indices(sys, B))
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


def _primitive(rows, full):
    """Is some power full of the relation whose successor bitmasks are
    ``rows``, a dict over the m bits of ``full``?  Squares the rows until
    each is ``full``: a full power stays full, and a primitive relation
    is full from exponent (m - 1)^2 + 1 on (H. Wielandt, Math. Z. 52,
    1950), so squaring up to that exponent decides exactly.  A row's
    image depends only on the row, and the rows converge (often to
    ``full``), so each squaring images every distinct row once."""
    bound, exponent = (len(rows) - 1) ** 2 + 1, 1
    while not all(row == full for row in rows.values()):
        if exponent >= bound:
            return False
        images = {r: _image(r, rows) for r in set(rows.values())}
        rows = {i: images[r] for i, r in rows.items()}
        exponent *= 2
    return True


def is_mixing(sys, part, a):
    """Is the a-step dynamics restricted to the part primitive?

    Reads the "reachable in exactly ``a`` admissible steps" relation
    between part members off the a-step rows of the system
    (:func:`_power_masks`, built once per system and ``a``), each row
    cut to the part, and asks :func:`_primitive` whether some power of
    it is full.  The intermediate steps are not restricted, so the
    question keeps its meaning for any part and ``a`` >= 1; on the
    parts of a genuine decomposition walks pass only through points
    that return to the part anyway.  A wrong ``a`` shows up as a
    parity-style obstruction and yields False.
    """
    _at_least(a, 1, "period")
    rows, full = _power_masks(sys, a), _mask(_point_indices(sys, part))
    return _primitive({i: rows[i] & full for i in _members(full)}, full)


def is_transitive(sys, subset):
    """Does one admissible orbit visit every point of the subset?

    Plain systems: some point's forward orbit, its prefix and cycle,
    covers the subset.  Such an orbit covers it from its first member
    of the subset on, and along an orbit the preperiod falls by one a
    step down to 0, on the cycle.  So that first member has the largest
    preperiod in the subset, and a member with the largest preperiod is
    the one start worth trying: another member with the same positive
    preperiod lies on no orbit through it.  Multivalued systems: the
    relation restricted to the subset is strongly connected (a covering
    closed walk then exists).
    """
    wanted = set(_point_indices(sys, subset))
    if not wanted:
        raise ValueError("empty subset")
    if len(wanted) == 1:
        return True
    if sys.relation is None:
        start = max(wanted, key=sys.preperiod)
        return wanted <= {*sys._orbits[0][start], *sys.cycle(start)}
    return len(_strong_components(_restricted_succ(sys, wanted))) == 1


def cp_construction(sys, B, p):
    """Part of a basic set grown from a periodic anchor's stable set.

    C_p = (global stable set of p) intersected with B: the q in B whose
    orbit meets that of p, read off the eventual images the stable sets
    share.  Requires p to be a periodic member of B.
    """
    if p not in B:
        raise ValueError("anchor must belong to the basic set")
    if sys.preperiod(sys.index[p]) != 0:
        raise ValueError("anchor must be periodic")
    return _stable_parts(sys, B)[sys.index[p]]


def _stable_parts(sys, B):
    """C_p for every member p of B, keyed by its index: the members of
    B, in B's order, whose eventual image is p's, one tuple per group.
    Two orbits meet iff their eventual images agree, so this is the
    global stable set of p intersected with B, grouped in one pass over
    B."""
    eventual, groups, part_of = _eventual_images(sys), {}, {}
    for i in map(sys.index.__getitem__, B):
        groups.setdefault(eventual[i], []).append(i)
    for group in groups.values():
        part = tuple(map(sys.points.__getitem__, group))
        for i in group:
            part_of[i] = part
    return part_of


def _cp_parts(sys, B):
    """Stable-set route to the cyclic parts: C_q for q along the cycle
    of the anchor, the first periodic member of B.

    Returns (M, parts) where M is the least positive step count with
    C_{f^M(anchor)} == C_anchor (at most the anchor's period) and parts
    are C_{f^m(anchor)} for m < M, or None when the route has nothing
    to rotate: B holds no periodic point to anchor on, or the anchor's
    cycle leaves B.  Both happen only for multivalued systems, where
    the canonical map may step out of the piece.
    """
    periodic = [p for p in B if sys.preperiod(sys.index[p]) == 0]
    if not periodic:
        return None
    part_of = _stable_parts(sys, B)
    cycle = sys.cycle(sys.index[periodic[0]])
    if any(i not in part_of for i in cycle):
        return None
    parts = [part_of[i] for i in cycle]
    m = next((m for m in range(1, len(parts)) if parts[m] == parts[0]),
             len(parts))
    return m, tuple(parts[:m])


class HypothesisReport(_Record):
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
    constant = _strong_constant(sys)
    fails = tuple(d for d in threshold_grid(sys).positive if d > constant)
    return HypothesisReport(sys.invertible, constant, fails)


class BasicPiece(_Record):
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


class Decomposition(_Record):
    """A spectral decomposition: the basic pieces of the non-wandering
    set, each with its cyclic parts, and the hypothesis report."""

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
            shifted = True
            for k, here in enumerate(masks):
                if _image(here, steps) & members != masks[(k + 1) % a]:
                    shifted = False
            # when every part steps onto the next inside the piece, a
            # steps bring each part back: the parts are pushed only when
            # some part missed
            if not shifted:
                shift = False
                for here in masks:
                    back = here
                    for _ in range(a):
                        back = _image(back, steps) & members
                    if back != here:
                        power = False
            if not is_transitive(sys, piece.points):
                transitive = False
            # mixing flags re-checked by a different criterion: primitive
            # iff strongly connected with trivial period
            rows = _power_masks(sys, a)
            for flag, here in zip(piece.mixing, masks):
                step_a = {i: _members(rows[i] & here) for i in _members(here)}
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