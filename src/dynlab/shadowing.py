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
tracking windows along the gaps that :func:`_decider` walks.  These
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

The searches take delta and epsilon as integer cutoffs, and one
decider (:func:`_decider`) serves single cells and tables alike, with
each property's search, gaps and :class:`BoundTooSmall` label read off
the registry ``_TABLES``.  Only a public single-cell call scans the gap
graphs for :class:`BoundTooSmall` and builds a certificate; a
best-threshold table keeps each verdict alone (:func:`_best_delta`):
the same search at the same cap, so the same verdict and the same
:class:`StateExplosion`, but no record, no scan and no warning.
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
                   _known_points, _largest_passing, _positive,
                   _shadows_backward, _strong_components, threshold_grid)
from .errors import BoundTooSmall, StateExplosion

__all__ = [
    "ModulusTable",
    "ShadowCertificate",
    "gap_values",
    "shadowing_holds",
    "shadowing_modulus",
    "construct_shadow_point",
    "periodic_shadowing_holds",
    "strong_periodic_shadowing_holds",
    "special_shadowing_holds",
    "lipschitz_constants",
    "modulus_table",
    "subset_cap",
]

DEFAULT_SUBSET_CAP = 2 ** 20


def subset_cap(cap=None):
    """Effective state cap: explicit argument, else DYNLAB_SUBSET_CAP, else
    2^20.  A cap below 1, from either source, is refused here, before
    any search."""
    if cap is None:
        raw = os.environ.get("DYNLAB_SUBSET_CAP", DEFAULT_SUBSET_CAP)
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError("DYNLAB_SUBSET_CAP must be an integer, "
                             f"got {raw!r}") from None
    _at_least(cap, 1, "state cap")
    return cap


def gap_values(sys, N):
    """All gap lengths n >= N with distinct behavior, as an exact range.

    f^n, the gap graph, and the tracking windows repeat in n beyond
    T + P with period P (T = max preperiod, P = lcm of cycle lengths),
    so [N, max(N+P, T+2P)) exhausts the quantifier.  An N below 1 is
    refused here, for every chain question that reads its gaps.
    """
    _at_least(N, 1, "N")
    T, P = sys.max_preperiod, sys.cycle_lcm
    return range(N, max(N + P, T + 2 * P))


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


def _gap_structures(sys, gaps, d_cut, e_cut):
    """Yield (n, succ, step, allowed) for each n of the ascending range
    ``gaps``: the gap graph (x -> y iff d(f^n(x), y) < delta), the n-step
    map, and the bitmask windows allowed[v] = {z : d(f^i(z), f^i(v)) <
    epsilon for 0 <= i < n}, with delta and epsilon given by their
    cutoffs ``d_cut`` and ``e_cut`` (see
    :meth:`~dynlab.core.FiniteSystem.lt_cutoff`).  At n = 1 the gap
    graph is the delta step graph and the windows are the epsilon-balls.

    The system's memo keeps map and windows per epsilon cutoff as one
    tuple of layers, layer i holding f^i and the windows at gap i,
    carried forward one step at a time as far as some call has reached,
    but never past gap T + P (T the largest preperiod, P the lcm of the
    cycle lengths): from there on f^n = f^(T + (n - T) mod P) and the
    windows are those at T + P, since every constraint d(f^i(z),
    f^i(v)) < epsilon with i >= T + P repeats one at i - P.  A call
    reads the layers it needs and extends the tuple when it needs
    more."""
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
    queue = deque((v, allowed[v]) for v in range(len(succ)))
    visited = set(queue)  # the starts differ in their vertex
    parent = {}
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
    delta, epsilon, dying = _decide_cell(sys, "shadowing", delta, epsilon,
                                         8, cap, 1, True)
    if dying is None:
        return True, None
    # the dying walk, completed into a lasso by the true orbit of its
    # end: the orbit of f(end) before its cycle, then that cycle
    walk, (prefixes, cycles) = dying[1], sys._orbits
    nxt = sys.fmap[walk[-1]]
    lasso = Lasso(stem=tuple(sys.points[i] for i in (*walk, *prefixes[nxt])),
                  cycle=tuple(sys.points[i] for i in cycles[nxt]))
    return False, ShadowCertificate(
        "counterexample", delta, epsilon, lasso, len(walk) - 1
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
    epsilon = _positive(epsilon, "epsilon")
    _known_points(sys, lasso)
    cutoff = sys.lt_cutoff(epsilon)
    misses, behind = [], []
    for i, z in enumerate(sys.points):
        misses.append(_first_miss(sys, i, lasso, cutoff))
        behind.append(not lasso.two_sided
                      or _shadows_backward(sys, i, lasso, cutoff))
        if misses[-1] is None and behind[-1]:
            return z, {"certificate": ShadowCertificate(
                "traced", None, epsilon, lasso, None, z)}
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


def _scan_gap(sys, d_cut, n, succ, bound, label):
    """Warn BoundTooSmall, named by ``label`` formatted with the gap n,
    when the gap graph ``succ`` at the delta cutoff ``d_cut`` has a
    primitive closed walk longer than ``bound`` (kept in the memo)."""
    longest = sys._memoized(("walks", d_cut, n),
                            lambda: _longest_primitive_walk(succ))
    _warn_if_bound_blind(longest, bound, label.format(n=n))


def _closures(cycles, n, length):
    """closures[k % length] for 1 <= k <= length: (hits, orbits), the
    orbits of f^(kn) on the periodic points as bitmasks, and the points
    it fixes, those whose orbit is one point, as one bitmask.  f^(kn)
    turns a cycle of length p by kn, so its orbits on the cycle are the
    gcd(p, kn) residue classes of the positions."""
    closures = [None] * length
    for k in range(1, length + 1):
        orbits = []
        for cyc in cycles:
            g = math.gcd(len(cyc), k * n)
            orbits += (sum(1 << z for z in cyc[j::g]) for j in range(g))
        closures[k % length] = (sum(o for o in orbits if not o & o - 1),
                                tuple(orbits))
    return tuple(closures)


def _tracer_masks(periodic, step, allowed, length):
    """masks[k][u] for k < length: the periodic z with step^k(z) in
    allowed[u], as bitmasks.

    pre[y] holds the periodic z with step^k(z) = y, so masks[k][u] is
    the union of pre[y] over y in allowed[u]; each step pushes every
    fibre to its image."""
    pre = [0] * len(step)
    for z in periodic:
        pre[z] = 1 << z
    masks = []
    for _ in range(length):
        masks.append(tuple(_image(window, pre) for window in allowed))
        image = [0] * len(step)
        for y in periodic:
            image[step[y]] |= pre[y]
        pre = image
    return tuple(masks)


def _closed_search(sys, d_cut, e_cut, n, succ, step, allowed, bound, cap,
                   exact, visited):
    """(walk, visited): the first closed walk of the gap structure (n,
    succ, step, allowed) at the cutoffs ``d_cut`` and ``e_cut``, in
    (length, lex) order, that no periodic point traces, or None.

    Breadth-first search over tracer sets.  A state is (root r, vertex
    v >= r, S) reached by a walk of length k from r, where the bitmask S
    holds the periodic z with step^i(z) in allowed[w_i] for every i < k;
    one edge to u is ``S & masks[k % length][u]``.  When the walk
    closes (r is a successor of v) it is traced iff (see
    :func:`_closures`, read at ``k % length``)

    - exact (the tracer has f^(kn)(z) = z): S meets {z : p(z) | kn};
    - otherwise (any period): some step^k-orbit of periodic points lies
      wholly inside S, since a tracer of period p stays in the windows
      over the joint horizon lcm(p, k) exactly when every
      step^(jk)(z) is in S.

    The walks reaching one state share every future verdict, so each
    level keeps one state per (r, v, S), reached by its lexicographically
    least walk, and all closures of level k are checked before level
    k + 1 is built.  The walk returned is therefore the first untraced
    closed walk rooted at its least vertex, and it is primitive: a
    repetition of a traced walk is traced by the same point.  Each new
    state counts against the cap, the count starting at ``visited``, so
    one counter spans the gaps of a call and never exceeds the walk
    prefixes a listing of those closed walks would visit.
    """
    periodic, balls = sys.periodic_indices(), sys._balls(d_cut)
    # both tables depend on k only through k mod P (P the lcm of the
    # cycle lengths): every periodic point returns after P steps
    length = min(bound, sys.cycle_lcm)
    masks = sys._memoized(("masks", e_cut, n, length),
                          lambda: _tracer_masks(periodic, step, allowed,
                                                length))
    closures = sys._memoized(("closures", n, length),
                             lambda: _closures(sys._cycles, n, length))
    closes = [balls[y] for y in step]  # closes[v] >> u & 1: u in succ[v]
    level = []
    for r in range(sys.n):
        visited += 1
        if visited > cap:
            raise StateExplosion(visited, cap, frontier_sample=(n, r, r, 1))
        level.append((r, r, masks[0][r], (r,)))
    for k in range(1, bound + 1):
        hits, orbits = closures[k % length]
        for r, v, s, walk in level:
            if closes[v] >> r & 1 and not (
                    s & hits if exact else any(o & s == o for o in orbits)):
                return walk, visited
        if k == bound:
            break
        row, seen, nxt = masks[k % length], set(), []
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
    return None, visited


def _periodic_variant_holds(sys, delta, epsilon, period_bound, prop, cap,
                            warn):
    """The verdict and certificate of the table ``prop``, "periodic" or
    "strong-periodic", at one cell; ``warn`` as in :func:`_decider`."""
    delta, epsilon, untraced = _decide_cell(sys, prop, delta, epsilon,
                                            period_bound, cap, 1, warn)
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
    return _periodic_variant_holds(sys, delta, epsilon, period_bound,
                                   "periodic", cap, True)


def strong_periodic_shadowing_holds(sys, delta, epsilon, period_bound, cap=None):
    """Like :func:`periodic_shadowing_holds`, but the tracer must have the
    same period as the pseudo-orbit (f^N(x) = x for declared period N).
    Same tracer-set search and cap count."""
    return _periodic_variant_holds(sys, delta, epsilon, period_bound,
                                   "strong-periodic", cap, True)


# -- moduli -----------------------------------------------------------------


class ModulusTable(_Record):
    """Best thresholds per epsilon for one tracing property.

    ``rows`` is a tuple of (epsilon, delta) pairs, epsilon ascending
    over the positive threshold grid, delta the best (largest) grid
    delta at which the property holds: never None, since the
    sub-minimal delta passes by definition.  The specification
    tables ("spec-weak", "spec-full") hold their best delta at gap
    requirement N = 1, where every row has one.
    """

    prop: str
    rows: tuple

    def populated(self):
        return all(delta is not None for _, delta in self.rows)


# The five tracing properties, by name: (exact, chains, label).
# ``exact`` names the search that decides a gap: None the open-chain
# die search (:func:`_die_search`), else the closed-chain search
# (:func:`_closed_search`), whose tracer must have the walk's exact
# period when True and may have any period when False.
# ``chains``: the chains take every gap n >= N, not the step alone.
# ``label``: a closed-walk search's BoundTooSmall warning, formatted
# with the gap n (see :func:`_scan_gap`).
_TABLES = {
    "shadowing": (None, False, None),
    "periodic": (False, False, "periodic"),
    "strong-periodic": (True, False, "strong periodic"),
    "spec-weak": (None, True, None),
    "spec-full": (True, True, "closed chains at gap {n}"),
}


def _decider(sys, prop, bound=8, cap=None, N=1, warn=False):
    """The cell search of the property ``prop`` (see ``_TABLES``), whose
    chains take the gaps n >= N, over closed walks of length at most
    ``bound`` where it has them: given the cutoffs of delta and
    epsilon, the first failing chain (n, walk) in (gap, length, lex)
    order, or None, one search per gap.  The one entry to the searches;
    the cap is read once.  With ``warn`` (single cells only) the
    closed-walk searches scan each gap graph for BoundTooSmall.  An
    unknown name, an N below 1, a closed-walk bound below 1 and a cap
    below 1 are refused here, in that order, since the row rule may
    pass every cell undecided (:func:`_best_delta`)."""
    if prop not in _TABLES:
        raise ValueError(f"unknown property {prop!r}")
    exact, chains, label = _TABLES[prop]
    gaps = gap_values(sys, N) if chains else (1,)
    if exact is not None:
        _at_least(bound, 1, "length bound")
    cap = subset_cap(cap)
    label = label if warn else None

    def decide(d_cut, e_cut):
        seen, visited = set(), 0
        for n, succ, step, allowed in _gap_structures(sys, gaps, d_cut,
                                                      e_cut):
            if label is not None:
                _scan_gap(sys, d_cut, n, succ, bound, label)
            # at fixed delta a search reads (step, allowed) alone (step fixes
            # succ and the residues of n the exact-period test reads), and a
            # repeat follows a passing gap: skipping it keeps the first failure
            key = step, allowed
            if key in seen:
                continue
            seen.add(key)
            if exact is None:
                walk = _die_search(succ, step, allowed, cap)
            else:
                walk, visited = _closed_search(sys, d_cut, e_cut, n, succ,
                                               step, allowed, bound, cap,
                                               exact, visited)
            if walk is not None:
                return n, walk
        return None

    return decide


def _decide_cell(sys, prop, delta, epsilon, bound, cap, N, warn):
    """(delta, epsilon, first failing chain or None) at one cell of the
    table ``prop``.  Every tracing question refuses in this order: what
    :func:`_decider` refuses, then delta, then epsilon, before any search
    or warning.  Open-chain cells pass the tables' default bound, 8."""
    decide = _decider(sys, prop, bound, cap, N, warn)
    delta, epsilon = _positive(delta, "delta"), _positive(epsilon, "epsilon")
    return delta, epsilon, decide(sys.lt_cutoff(delta), sys.lt_cutoff(epsilon))


def shadowing_modulus(sys, epsilon, cap=None):
    """Largest grid delta at which shadowing holds for this epsilon,
    by the tables' row rule (:func:`_best_delta`).

    Never None: below the least positive distance the only pseudo-orbits
    are true orbits, which shadow themselves at any positive epsilon.
    """
    return _best_delta(sys, "shadowing", epsilon,
                       _decider(sys, "shadowing", cap=cap))


def _best_delta(sys, prop, eps, decide, last=0):
    """The largest grid delta whose cell passes at ``eps``, by bisection,
    for the table ``prop`` (see ``_TABLES``).

    The rule reads integers only.  The positive grid is the sub-minimal
    value, the positive distances and the top value, so its i-th value
    has the cutoff max(i, 1): the bisection runs over the positions,
    which are the cutoffs from position 1 on, and a cell passes when
    ``decide(d_cut, e_cut)``, the cell search of :func:`_decider`,
    finds no failing chain, with the cutoff of ``eps`` computed once.
    Every delta with a cutoff up to ``last``, that of a delta known to
    pass, passes undecided, and so do two kinds of sentinel cell, by
    definition:

    - delta at or below the least positive distance (cutoff at most 1),
      in every table: every delta-pseudo-orbit and every gap-n chain is
      then a true orbit segment and traces itself, and a closed one is
      traced by a point of its exact period;
    - epsilon above every distance, in the tables whose tracer may have
      any period ("shadowing", "periodic", "spec-weak"): every orbit
      then epsilon-traces every sequence, and a finite self-map has a
      periodic point.  The exact-period tables ("strong-periodic",
      "spec-full") still search there, since a closed walk can have no
      tracer of its period.

    So the sub-minimal delta always passes.  The cells answer a
    threshold, not a verdict each: the deciders scan no walk for
    BoundTooSmall, and nothing warns."""
    e_cut = sys.lt_cutoff(_positive(eps, "epsilon"))
    grid = threshold_grid(sys).positive
    free = not _TABLES[prop][0] and e_cut == len(sys.distance_values)
    # position 0, the sub-minimal value, passes as a cutoff of 1 does
    best = _largest_passing(range(len(grid)), lambda d_cut: (
        free or d_cut <= 1 or d_cut <= last
        or decide(d_cut, e_cut) is None))
    return grid[best]


def _table(sys, prop, decide):
    """The ModulusTable of rows (eps, best delta) over the positive grid,
    by :func:`_best_delta`.

    A delta that passes at epsilon passes at every larger epsilon, so
    each row carries the previous row's best, by its cutoff, as
    passing.  The cells decided are a subset of those of rows bisected
    alone, in the same order, and the rows are the same."""
    rows, last = [], 0
    for eps in threshold_grid(sys).positive:
        best = _best_delta(sys, prop, eps, decide, last)
        rows.append((eps, best))
        last = sys.lt_cutoff(best)
    return ModulusTable(prop, tuple(rows))


def modulus_table(sys, prop, period_bound=8, cap=None):
    """ModulusTable for ``prop``, one of "shadowing", "periodic",
    "strong-periodic", "spec-weak" and "spec-full", the chain tables at
    N = 1: rows by :func:`_table`, cells by :func:`_decider`.
    ``period_bound`` bounds the closed walks of the periodic tables and
    the closed chains of "spec-full"."""
    return _table(sys, prop, _decider(sys, prop, period_bound, cap))


def special_shadowing_holds(sys, epsilon, period_bound=8, cap=None):
    """Shadowing and periodic shadowing both admit a delta at this
    epsilon, each by the row rule of the tables (:func:`_best_delta`).
    So the verdict is always True: the row rule never answers None,
    since the sub-minimal delta passes every table."""
    periodic = _decider(sys, "periodic", period_bound, cap)  # refuses first
    return True, {"shadowing_delta": shadowing_modulus(sys, epsilon, cap),
                  "periodic_delta": _best_delta(sys, "periodic", epsilon,
                                                periodic)}


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
        while rows[at][1] < d:
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
