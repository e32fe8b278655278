"""Decision procedures for pseudo-orbit tracing at fixed thresholds.

The key construction: fix delta and epsilon and build the *delta step
graph* (edge x -> y iff d(f(x), y) < delta), whose infinite walks are
exactly the delta-pseudo-orbits.  Whether every such walk is
epsilon-shadowed by a true orbit is decided by a subset construction:
push the set of still-viable tracer positions along every walk and
look for a reachable empty set.  On a finite space a walk is shadowed
iff its viable set never dies (an infinite surviving run yields an
actual orbit by a finite-branching chain argument), so reachability of
the empty set is a complete test, and the dying walk is a
counterexample certificate.

Tracer sets, windows and balls are Python-int bitmasks (bit z for
point z).  Chain questions ask the same of gap graphs, whose edges
advance n steps; :func:`_gap_structures` carries the n-step map and the
tracking windows along a whole range of gaps in one pass.  These
structures, the tracer masks of the closed-chain search and the walk
lengths behind its bound warning are built once per system, in the
system's memo, and shared by every call at the same cutoffs.

Periodic pseudo-orbits and closed chains (periodic and strong periodic
shadowing, local specification) are closed walks of a gap graph, to be
traced by a periodic point.  They are decided by a second breadth-first
search whose state carries the set of periodic start points still
viable along the walk, so walks that agree on root, end vertex and that
set are explored once; the search ends at the first closed walk no
periodic point traces.  No closed walk is listed: the pairwise
implication chain counts the closed chains it covers in closed form.

All answers are deterministic: searches expand states in (length,
lexicographic) order, so the reported counterexample is the first
failing walk in that order, completed into a lasso by the true orbit
of its last vertex.
"""

from __future__ import annotations

import inspect
import math
import os
import warnings
from collections import deque
from fractions import Fraction
from itertools import compress

from .core import (Lasso, _Record, _at_least, _first_miss, _image,
                   _largest_passing, _positive, _shadows_backward,
                   _strong_components, as_fraction, shadows, threshold_grid)
from .errors import BoundTooSmall, NotDecaying, NotInvertible, StateExplosion

__all__ = [
    "DeltaGraph",
    "ModulusTable",
    "ShadowCertificate",
    "delta_graph",
    "shadowing_holds",
    "shadowing_modulus",
    "construct_shadow_point",
    "periodic_shadowing_holds",
    "strong_periodic_shadowing_holds",
    "strong_shadow_point",
    "special_shadowing_holds",
    "limit_shadowing_check",
    "two_sided_limit_shadowing_check",
    "lipschitz_constants",
    "modulus_table",
    "subset_cap",
]

DEFAULT_SUBSET_CAP = 2 ** 20


def subset_cap(cap=None):
    """Effective state cap: explicit argument, else DYNLAB_SUBSET_CAP, else 2^20."""
    if cap is not None:
        return cap
    return int(os.environ.get("DYNLAB_SUBSET_CAP", DEFAULT_SUBSET_CAP))


class DeltaGraph(_Record):
    """The step graph of a system at threshold delta (strict inequality)."""

    delta: Fraction
    succ: tuple  # succ[i] = sorted tuple of j with d(f(i), j) < delta


def delta_graph(sys, delta):
    delta = as_fraction(delta)  # the step graph is the gap graph at gap 1
    return DeltaGraph(delta, next(_gap_structures(sys, (1,), delta, delta))[1])


class ShadowCertificate(_Record):
    """Evidence for a tracing verdict.

    ``kind`` is "counterexample" (a delta-pseudo-orbit no point traces;
    ``dying_step`` is the first index at which every tracer position is
    out of range) or "traced" (``point`` shadows ``lasso``).
    """

    kind: str
    delta: Fraction
    epsilon: Fraction
    lasso: Lasso
    dying_step: int | None = None
    point: object | None = None


def _gap_structures(sys, gaps, delta, epsilon):
    """Yield (n, succ, step, allowed) for each n of the ascending range
    ``gaps``: the gap graph (x -> y iff d(f^n(x), y) < delta), the n-step
    map, and the bitmask windows allowed[v] = {z : d(f^i(z), f^i(v)) <
    epsilon for 0 <= i < n}.  At n = 1 the gap graph is the delta step
    graph and the windows are the epsilon-balls.

    Map and windows depend on epsilon only through its cutoff.  The
    system's memo keeps them per epsilon cutoff as one tuple of layers,
    layer i holding f^i and the windows at gap i, carried forward one
    step at a time as far as some call has reached, but never past gap
    T + P (T the largest preperiod, P the lcm of the cycle lengths):
    from there on f^n = f^(T + (n - T) mod P) and the windows are those
    at T + P, since every constraint d(f^i(z), f^i(v)) < epsilon with
    i >= T + P repeats one at i - P.  A call reads the layers it needs
    and extends the tuple when it needs more."""
    d_cut, e_cut = sys.lt_cutoff(delta), sys.lt_cutoff(epsilon)
    near, key = sys._near(d_cut), ("windows", e_cut)
    T, P = sys.max_preperiod, sys.cycle_lcm
    for n in gaps:
        last = min(n, T + P)
        layers = sys._memo.get(key, ())
        if len(layers) <= last:
            grown = list(layers) or [(tuple(range(sys.n)),
                                      ((1 << sys.n) - 1,) * sys.n)]
            while len(grown) <= last:
                grown.append(_carry_window(sys, e_cut, grown))
            layers = sys._memo[key] = tuple(grown)
        if n > last:
            step, allowed = layers[T + (n - T) % P][0], layers[last][1]
        else:
            step, allowed = layers[n]
        yield n, tuple(near[y] for y in step), step, allowed


def _carry_window(sys, e_cut, layers):
    """The layer after the last of ``layers``: from f^i and the windows
    at gap i, f^(i+1) and the windows at gap i + 1, allowed_{i+1}[v] =
    allowed_i[v] & {z : rank(f^i(z), f^i(v)) < e_cut}."""
    rank, (step, allowed) = sys.rank, layers[-1]
    # fibre[y]: the z with f^i(z) = y; close[w]: d(f^i(z), w) < epsilon
    fibre = {}
    for z, y in enumerate(step):
        fibre[y] = fibre.get(y, 0) | 1 << z
    close = {w: sum(m for y, m in fibre.items() if rank[y][w] < e_cut)
             for w in fibre}
    return (tuple(sys.fmap[y] for y in step),
            tuple(a & close[step[v]] for v, a in enumerate(allowed)))


def _die_search(succ, step, allowed, cap):
    """Find a walk of the step graph along which the viable set empties.

    States are (vertex, bitmask of viable tracer positions); the search
    starts from (v, allowed[v]) for every v and moves along graph edges
    with W -> step(W) & allowed[target].  Returns the vertex walk to the
    first death in (length, lex) order, or None if no death state is
    reachable.
    """
    rows = [1 << y for y in step]
    visited = set()
    queue = deque()
    parent = {}
    for v in range(len(succ)):
        state = (v, allowed[v])
        if state not in visited:
            visited.add(state)
            queue.append(state)
    while queue:
        v, w = queue.popleft()
        image = _image(w, rows)
        for u in succ[v]:
            w2 = image & allowed[u]
            state = (u, w2)
            if state in visited:
                continue
            visited.add(state)
            if len(visited) > cap:
                raise StateExplosion(len(visited), cap, frontier_sample=[v, u])
            parent[state] = (v, w)
            if not w2:
                walk = [u]
                cur = state
                while cur in parent:
                    cur = parent[cur]
                    walk.append(cur[0])
                walk.reverse()
                return walk
            queue.append(state)
    return None


def _complete_walk(sys, walk):
    """Extend a finite index walk into a lasso by the true orbit of its
    end: the orbit of f(end) before its cycle, then that cycle."""
    prefixes, cycles = sys._orbits
    nxt = sys.fmap[walk[-1]]
    return Lasso(stem=tuple(sys.points[i] for i in (*walk, *prefixes[nxt])),
                 cycle=tuple(sys.points[i] for i in cycles[nxt]))


def shadowing_holds(sys, delta, epsilon, cap=None):
    """Is every delta-pseudo-orbit epsilon-shadowed by some orbit?

    Returns (True, None) or (False, certificate) where the certificate
    carries the first dying pseudo-orbit in (length, lex) order,
    completed into a lasso by a true orbit tail.

    Raises
    ------
    StateExplosion
        If the subset search would exceed the state cap
        (``DYNLAB_SUBSET_CAP``, default 2^20).
    """
    delta, epsilon = _positive(delta, "delta"), _positive(epsilon, "epsilon")
    _, succ, step, allowed = next(_gap_structures(sys, (1,), delta, epsilon))
    walk = _die_search(succ, step, allowed, subset_cap(cap))
    if walk is None:
        return True, None
    lasso = _complete_walk(sys, walk)
    return False, ShadowCertificate(
        "counterexample", delta, epsilon, lasso, dying_step=len(walk) - 1
    )


def construct_shadow_point(sys, lasso, epsilon):
    """Search for a point whose orbit epsilon-shadows the given lasso.

    Returns (point, info).  On success info carries the verified
    certificate; on failure point is None and info locates the
    obstruction: the first index at which the viable tracer set dies
    (one-sided), or the forward/backward survivor sets whose
    intersection at index 0 is empty (two-sided).  Both halves are those
    of :func:`~dynlab.core.shadows`, run once per point.
    """
    epsilon = as_fraction(epsilon)
    cutoff = sys.lt_cutoff(epsilon)
    misses, behind = [], []
    for i, z in enumerate(sys.points):
        misses.append(_first_miss(sys, i, lasso, cutoff))
        behind.append(not lasso.two_sided
                      or _shadows_backward(sys, i, lasso, cutoff))
        if misses[-1] is None and behind[-1]:
            return z, {"certificate": ShadowCertificate(
                "traced", None, epsilon, lasso, point=z)}
    if lasso.two_sided:
        forward = tuple(z for z, miss in zip(sys.points, misses)
                        if miss is None)
        return None, {"forward_survivors": forward,
                      "backward_survivors": tuple(compress(sys.points, behind))}
    # the viable set at index i is the f^i-image of the points that have
    # not missed by i, so it dies at the latest first miss
    return None, {"failed_at": max(misses)}


def _longest_primitive_walk(succ):
    """The greatest length of a primitive closed walk of a digraph (not
    a repetition of a shorter one): 0 if none, inf if unbounded.  A
    strongly connected part with as many internal edges as vertices is
    one cycle; one with more has two closed walks through some vertex,
    and m rounds of one, then the other, are primitive for every m."""
    longest = 0
    for part in map(set, _strong_components(succ)):
        edges = sum(u in part for v in part for u in succ[v])
        if edges > len(part):
            return math.inf
        longest = max(longest, len(part) if edges else 0)
    return longest


def _warn_if_bound_blind(longest, bound, label):
    """Warn BoundTooSmall when ``longest``, the length of the longest
    primitive closed walk of a graph, is past ``bound``."""
    if longest > bound:
        # name the first caller outside this package: a fixed stacklevel
        # lands on a library line when the check runs inside a generator
        frame, level = inspect.currentframe(), 1
        while frame is not None and frame.f_globals.get(
                "__name__", "").partition(".")[0] == __package__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"{label}: step graph has primitive closed walks longer than "
            f"bound {bound}, which were not checked",
            BoundTooSmall,
            stacklevel=level,
        )


def _gap_graphs(sys, delta, epsilon, gaps, bound, label):
    """Refuse a ``bound`` below 1 or a threshold that is not positive
    (the one check on the periodic, closed-chain and pairwise paths),
    then yield (n, succ, step, allowed) of :func:`_gap_structures` per n
    in ``gaps``, warning BoundTooSmall where a gap graph's closed walks
    outrun ``bound``; ``label``, formatted with the gap n, names it."""
    _at_least(bound, 1, "length bound")
    delta, epsilon = _positive(delta, "delta"), _positive(epsilon, "epsilon")
    d_cut = sys.lt_cutoff(delta)
    for n, succ, step, allowed in _gap_structures(sys, gaps, delta, epsilon):
        longest = sys._memoized(("walks", d_cut, n),
                                lambda: _longest_primitive_walk(succ))
        _warn_if_bound_blind(longest, bound, label.format(n=n))
        yield n, succ, step, allowed


def _distinct(structures):
    """The (n, succ, step, allowed) of ``structures`` whose (step,
    allowed) no earlier one had.

    With delta fixed, a chain search at gap n reads nothing else: succ
    is read off step, and on a p-cycle f^n rotates by n mod p, so step
    also fixes every residue of n that the exact-period test reads.  A
    repeat can only follow a gap that passed, since a failing gap ends
    the search, so dropping it keeps the first counterexample."""
    seen = set()
    for structure in structures:
        key = structure[2:]
        if key not in seen:
            seen.add(key)
            yield structure


def _orbit_masks(periodic, step, k):
    """The orbits of step^k on the periodic points, as bitmasks."""
    masks, done = [], 0
    for z in periodic:
        if done >> z & 1:
            continue
        mask, y = 0, z
        while not mask >> y & 1:
            mask |= 1 << y
            for _ in range(k):
                y = step[y]
        masks.append(mask)
        done |= mask
    return tuple(masks)


def _tracer_masks(periodic, step, allowed, bound):
    """masks[k][u] for k < bound: the periodic z with step^k(z) in
    allowed[u], as bitmasks."""
    masks, at = [], periodic
    for _ in range(bound):
        masks.append(tuple(sum(1 << z for z, y in zip(periodic, at)
                               if window >> y & 1) for window in allowed))
        at = [step[y] for y in at]
    return tuple(masks)


def _first_untraced_chain(sys, delta, epsilon, gaps, bound, cap, label,
                          exact):
    """The first closed chain (n, walk) of the gap graphs, in (gap,
    length, lex) order, that no periodic point traces, or None.

    Breadth-first search over tracer sets.  A state of gap n is (root r,
    vertex v >= r, S) reached by a walk of length k from r, where the
    bitmask S holds the periodic z with step^i(z) in allowed[w_i] for
    every i < k; one edge to u is ``S & masks[k][u]``.  When the walk
    closes (r is a successor of v) it is traced iff

    - exact (the tracer has f^(kn)(z) = z): S meets {z : p(z) | kn};
    - otherwise (any period): some step^k-orbit of periodic points lies
      wholly inside S, since a tracer of period p stays in the windows
      over the joint horizon lcm(p, k) exactly when every
      step^(jk)(z) is in S.

    The walks reaching one state share every future verdict, so each
    level keeps one state per (r, v, S), reached by its lexicographically
    least walk, and all closures of level k are checked before level
    k + 1 is built.  The walk returned is therefore the first untraced
    closed walk rooted at its least vertex in (gap, length, lex) order,
    and it is primitive: a repetition of a traced walk is traced by the
    same point.  A gap whose structure repeats one already searched in
    this call is skipped (:func:`_distinct`).  Each new state counts
    against the cap, one counter across the gaps searched, so the count
    never exceeds the walk prefixes a listing of those closed walks
    would visit.
    """
    cap = subset_cap(cap)
    periodic = sys.periodic_indices()
    e_cut, balls = sys.lt_cutoff(epsilon), sys._balls(sys.lt_cutoff(delta))
    visited = 0
    for n, succ, step, allowed in _distinct(_gap_graphs(
            sys, delta, epsilon, gaps, bound, label)):
        masks = sys._memoized(("masks", e_cut, n, bound),
                              lambda: _tracer_masks(periodic, step, allowed,
                                                    bound))
        if exact:
            hits = sys._memoized(("hits", n, bound), lambda: tuple(
                sum(1 << z for z in periodic
                    if k * n % len(sys.cycle(z)) == 0)
                for k in range(bound + 1)))
            traced = lambda k, s: s & hits[k]
        else:
            orbits = sys._memoized(("orbits", n, bound), lambda: (None,) + (
                tuple(_orbit_masks(periodic, step, k)
                      for k in range(1, bound + 1))))
            traced = lambda k, s: any(o & s == o for o in orbits[k])
        closes = [balls[y] for y in step]  # closes[v] >> u & 1: u in succ[v]
        level = []
        for r in range(sys.n):
            visited += 1
            if visited > cap:
                raise StateExplosion(visited, cap, frontier_sample=(n, r, r, 1))
            level.append((r, r, masks[0][r], (r,)))
        for k in range(1, bound + 1):
            for r, v, s, walk in level:
                if closes[v] >> r & 1 and not traced(k, s):
                    return n, walk
            if k == bound:
                break
            row, seen, nxt = masks[k], set(), []
            for r, v, s, walk in level:
                for u in succ[v]:
                    if u < r:
                        continue
                    key = (r, u, s & row[u])
                    if key in seen:
                        continue
                    seen.add(key)
                    visited += 1
                    if visited > cap:
                        raise StateExplosion(visited, cap,
                                             frontier_sample=(n, r, u, k + 1))
                    nxt.append((*key, walk + (u,)))
            level = nxt
    return None


def _periodic_variant_holds(sys, delta, epsilon, period_bound, strong, cap):
    delta, epsilon = as_fraction(delta), as_fraction(epsilon)
    untraced = _first_untraced_chain(
        sys, delta, epsilon, (1,), period_bound, cap,
        "strong periodic" if strong else "periodic", exact=strong)
    if untraced is None:
        return True, None
    lasso = Lasso(cycle=tuple(sys.points[i] for i in untraced[1]))
    return False, ShadowCertificate("counterexample", delta, epsilon, lasso)


def periodic_shadowing_holds(sys, delta, epsilon, period_bound, cap=None):
    """Is every periodic delta-pseudo-orbit of period <= period_bound
    epsilon-shadowed by some periodic point?

    Periodic pseudo-orbits are the closed walks of the step graph
    (rotations and repetitions are checked once; a tracer for a walk
    yields tracers for its rotations by applying f).  They are searched
    breadth-first with the set of still-viable periodic tracers as
    state, so the cap counts distinct (root, vertex, tracer set) states
    per walk length, not walks.  The certificate is the first untraced
    closed walk in (length, lex) order.  Emits a :class:`BoundTooSmall`
    warning when the step graph provably has cycles longer than the
    bound.
    """
    return _periodic_variant_holds(sys, delta, epsilon, period_bound, False, cap)


def strong_periodic_shadowing_holds(sys, delta, epsilon, period_bound, cap=None):
    """Like :func:`periodic_shadowing_holds`, but the tracer must have the
    same period as the pseudo-orbit (f^N(x) = x for declared period N).
    Same tracer-set search and cap count."""
    return _periodic_variant_holds(sys, delta, epsilon, period_bound, True, cap)


def strong_shadow_point(sys, cycle_points, epsilon):
    """Exact-period tracer for one purely periodic sequence of points.

    Searches for x with f^N(x) = x (N = len(cycle_points)) whose orbit
    stays epsilon-close to the sequence read cyclically, and returns it,
    or None.  This is the single-instance form of the quantified
    :func:`strong_periodic_shadowing_holds`; the sequence need not be a
    pseudo-orbit at any particular delta.  A periodic x whose period
    divides N is such a tracer iff it shadows the sequence as a lasso
    cycle (:func:`~dynlab.core.shadows`).
    """
    epsilon = _positive(epsilon, "epsilon")
    k = len(cycle_points)
    if k == 0:
        raise ValueError("need a non-empty cyclic sequence")
    lasso = Lasso(cycle=tuple(cycle_points))
    return next((sys.points[z] for z in sys.periodic_indices()
                 if k % len(sys.cycle(z)) == 0
                 and shadows(sys, sys.points[z], lasso, epsilon)), None)


# -- moduli -----------------------------------------------------------------


class ModulusTable(_Record):
    """Best thresholds per epsilon for one tracing property.

    ``rows`` is a tuple of (epsilon, delta) pairs, epsilon ascending
    over the positive threshold grid, delta the best (largest) grid
    delta at which the property holds, or None.  The specification
    tables ("spec-weak", "spec-full") hold their best delta at gap
    requirement N = 1, where every row has one.
    """

    prop: str
    rows: tuple

    def populated(self):
        return all(delta is not None for _, delta in self.rows)


def _decider(sys, prop, period_bound=8, cap=None):
    """The cell predicate holds(delta, eps) of the table ``prop``:
    "shadowing", "periodic" or "strong-periodic" (the chain tables'
    rule is :func:`~dynlab.specification._chain_decider`).  A period
    bound below 1 is refused here, since the row rule may pass every
    cell undecided (:func:`_best_delta`)."""
    if prop == "shadowing":
        return lambda d, eps: shadowing_holds(sys, d, eps, cap)[0]
    decide = {"periodic": periodic_shadowing_holds,
              "strong-periodic": strong_periodic_shadowing_holds}.get(prop)
    if decide is None:
        raise ValueError(f"unknown property {prop!r}")
    _at_least(period_bound, 1, "length bound")
    return lambda d, eps: decide(sys, d, eps, period_bound, cap)[0]


def shadowing_modulus(sys, epsilon, cap=None):
    """Largest grid delta at which shadowing holds for this epsilon,
    by the tables' row rule (:func:`_best_delta`).

    Never None: below the least positive distance the only pseudo-orbits
    are true orbits, which shadow themselves at any positive epsilon.
    """
    return _best_delta(sys, "shadowing", epsilon,
                       _decider(sys, "shadowing", cap=cap))


def _best_delta(sys, prop, eps, holds, last=None):
    """The largest grid delta with ``holds(delta, eps)``, or None, by
    bisection, for the property ``prop`` (a table name of :func:`_table`).
    Every delta up to ``last``, one known to pass, passes undecided, and
    so do two kinds of sentinel cell, by definition:

    - delta at or below the least positive distance, in every table:
      every delta-pseudo-orbit and every gap-n chain is then a true
      orbit segment and traces itself, and a closed one is traced by a
      point of its exact period;
    - epsilon above every distance, in the "shadowing", "periodic" and
      "spec-weak" tables: every orbit then epsilon-traces every
      sequence, and a finite self-map has a periodic point.  The
      exact-period tables ("strong-periodic", "spec-full") still
      search there, since a closed walk can have no tracer of its
      period.

    BoundTooSmall is silenced: the answer is a threshold, and the
    warning is for single-cell calls."""
    eps, grid = _positive(eps, "epsilon"), threshold_grid(sys)
    free = prop in ("shadowing", "periodic", "spec-weak") and (
        sys.lt_cutoff(eps) == len(sys.distance_values))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundTooSmall)
        return _largest_passing(grid.positive, lambda d: (
            free or sys.lt_cutoff(d) <= 1
            or last is not None and d <= last or holds(d, eps)))


def _table(sys, prop, holds):
    """The ModulusTable of rows (eps, best delta) over the positive grid,
    by :func:`_best_delta`.

    A delta that passes at epsilon passes at every larger epsilon, so
    each row carries the previous row's best as passing.  The cells
    decided are a subset of those of rows bisected alone, in the same
    order, and the rows are the same."""
    rows, last = [], None
    for eps in threshold_grid(sys).positive:
        last = _best_delta(sys, prop, eps, holds, last)
        rows.append((eps, last))
    return ModulusTable(prop, tuple(rows))


def modulus_table(sys, prop, period_bound=8, cap=None):
    """ModulusTable for prop in {"shadowing", "periodic", "strong-periodic"}:
    rows by :func:`_table`, cells by :func:`_decider`."""
    return _table(sys, prop, _decider(sys, prop, period_bound, cap))


def special_shadowing_holds(sys, epsilon, period_bound=8, cap=None):
    """Shadowing and periodic shadowing both admit a delta at this
    epsilon, each by the row rule of the tables (:func:`_best_delta`)."""
    periodic = _decider(sys, "periodic", period_bound, cap)  # refuses first
    s = shadowing_modulus(sys, epsilon, cap)
    p = _best_delta(sys, "periodic", epsilon, periodic)
    return (s is not None and p is not None), {"shadowing_delta": s,
                                               "periodic_delta": p}


# -- limit-type variants ----------------------------------------------------


def _require_exact_cycle(sys, cycle, what, power=1):
    """NotDecaying unless f^power maps each cycle entry to the next."""
    name = "f" if power == 1 else f"f^{power}"
    for j, x in enumerate(cycle):
        nxt, image = cycle[(j + 1) % len(cycle)], sys.apply(x, power)
        if image != nxt:
            raise NotDecaying(
                f"{what} step {j}: {name}({x!r}) = {image!r} != {nxt!r}")


def _phase_tracer(sys, lasso, what, power=1):
    """The cycle entry whose f^power-orbit runs along the tail of the
    one-sided ``lasso`` from index 0 on, once the stem is past:
    NotDecaying (see :func:`_require_exact_cycle`) unless the cycle is
    an exact f^power cycle."""
    _require_exact_cycle(sys, lasso.cycle, what, power)
    return lasso.cycle[-len(lasso.stem) % len(lasso.cycle)]


def limit_shadowing_check(sys, lasso):
    """Tracer for an error-decaying pseudo-orbit (errors eventually zero).

    On a finite metric space "errors -> 0" forces the tail to be an
    exact orbit segment, i.e. the lasso's cycle must be a true cycle of
    f (else :class:`NotDecaying`).  The point of that cycle whose orbit
    is phase-aligned with the tail then satisfies d(f^i(x), x_i) = 0
    for all i past the stem, so a tracer always exists.
    """
    if lasso.two_sided:
        raise ValueError("one-sided lasso expected; see the two-sided variant")
    x = _phase_tracer(sys, lasso, "cycle")
    assert all(sys.apply(x, i) == lasso[i] for i in range(
        len(lasso.stem), len(lasso.stem) + len(lasso.cycle)))
    return x


def two_sided_limit_shadowing_check(sys, lasso):
    """Orbit matching a two-sided decaying lasso in both time directions.

    Both tails must be exact cycles of f.  On a finite invertible
    system every orbit is a single cycle, so a matching point exists
    iff the past and future tails lie on the same orbit with
    compatible phases.  The search settles that exactly: a point
    matches when it traces the past, and its image after the stem the
    future cycle, both by :func:`~dynlab.core.shadows` below the least
    positive distance, where tracing is equality.  Returns the point,
    or None when past and future cannot be joined.
    """
    if not sys.invertible:
        raise NotInvertible("two-sided limit tracing needs an invertible system")
    if not lasso.two_sided:
        raise ValueError("two-sided lasso expected")
    _require_exact_cycle(sys, lasso.cycle, "future cycle")
    _require_exact_cycle(sys, lasso.past, "past cycle")
    tail = Lasso(cycle=lasso.cycle)
    exact = threshold_grid(sys).submin  # below every positive distance
    for i, z in enumerate(sys.points):
        if (shadows(sys, sys.apply(z, len(lasso.stem)), tail, exact)
                and _shadows_backward(sys, i, lasso, sys.lt_cutoff(exact))):
            return z
    return None


def _linear_envelope(table):
    """Linear envelope (L, d0) of a tracing table of plain best deltas.

    For each grid d the least tracing eps is that of the first row whose
    best delta is at least d (the top row's passes every d: see
    :func:`_best_delta`).  The slope is the running maximum of eps/d.  Among grid candidates
    the pair minimising L*d0 (the certified tracing radius) wins, larger
    d0 on ties, so for every grid d <= d0 the pair (d, L*d) traces.
    """
    rows, at, slope, cands = table.rows, 0, Fraction(0), []
    for d, _ in rows:  # the grid deltas are the rows' epsilons
        while rows[at][1] is None or rows[at][1] < d:
            at += 1
        slope = max(slope, rows[at][0] / d)
        cands.append((slope * d, -d, slope, d))
    _, _, L, d0 = min(cands)
    return L, d0


def lipschitz_constants(sys, cap=None):
    """Linear tracing envelope: (L, d0) with every d-pseudo-orbit
    (L*d)-shadowed for all 0 < d <= d0.

    Read off ``modulus_table(sys, "shadowing")`` (see
    :func:`_linear_envelope`).  On a finite system the table always
    fits: below the least positive distance pseudo-orbits are true
    orbits.
    """
    return _linear_envelope(modulus_table(sys, "shadowing", cap=cap))
