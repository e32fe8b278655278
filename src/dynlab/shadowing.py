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
structures, the tracer masks of the closed-chain search and the
component sizes behind its bound warning are built once per system, in
the system's memo, and shared by every call at the same cutoffs.

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
from dataclasses import dataclass
from fractions import Fraction

from .core import (Lasso, _image, _largest_passing, _strong_components,
                   as_fraction, shadows, threshold_grid)
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


@dataclass(frozen=True)
class DeltaGraph:
    """The step graph of a system at threshold delta (strict inequality)."""

    delta: Fraction
    succ: tuple  # succ[i] = sorted tuple of j with d(f(i), j) < delta


def delta_graph(sys, delta):
    delta = as_fraction(delta)  # the step graph is the gap graph at gap 1
    return DeltaGraph(delta, next(_gap_structures(sys, (1,), delta, delta))[1])


@dataclass(frozen=True)
class ShadowCertificate:
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
    """Extend a finite index walk into a lasso by the true orbit of its end."""
    nxt = sys.fmap[walk[-1]]
    prefix = [nxt]
    while sys.preperiod(prefix[-1]) > 0:
        prefix.append(sys.fmap[prefix[-1]])
    stem = tuple(sys.points[i] for i in walk + prefix[:-1])
    cycle = tuple(sys.points[i] for i in sys.cycle(prefix[-1]))
    return Lasso(stem=stem, cycle=cycle)


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
    delta, epsilon = as_fraction(delta), as_fraction(epsilon)
    if epsilon <= 0 or delta <= 0:
        raise ValueError("thresholds must be positive")
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
    intersection at index 0 is empty (two-sided).
    """
    epsilon = as_fraction(epsilon)
    for z in sys.points:
        if shadows(sys, z, lasso, epsilon):
            return z, {"certificate": ShadowCertificate(
                "traced", None, epsilon, lasso, point=z)}
    if lasso.two_sided:
        fwd = Lasso(stem=lasso.stem, cycle=lasso.cycle)
        forward = tuple(z for z in sys.points if shadows(sys, z, fwd, epsilon))
        back = tuple(
            z for z in sys.points
            if all(
                sys.d(sys.apply(z, k), lasso[k]) < epsilon
                for k in range(-math.lcm(len(sys.cycle(sys.index[z])),
                                         len(lasso.past)), 0)
            )
        )
        return None, {"forward_survivors": forward, "backward_survivors": back}
    balls = sys._balls(sys.lt_cutoff(epsilon))
    w = balls[sys.index[lasso[0]]]
    rows = [1 << y for y in sys.fmap]
    i = 0
    seen = {}
    while w:
        key = (i if i < len(lasso.stem)
               else len(lasso.stem) + (i - len(lasso.stem)) % len(lasso.cycle), w)
        if key in seen:
            raise AssertionError(
                "viable set cycles without dying, yet no single tracer exists")
        seen[key] = i
        i += 1
        w = _image(w, rows) & balls[sys.index[lasso[i]]]
    return None, {"failed_at": i}


def _warn_if_bound_blind(size, bound, label):
    """Warn BoundTooSmall when a graph whose largest strongly connected
    part has ``size`` vertices has cycles longer than ``bound``."""
    if size > bound:
        # name the first caller outside this package: a fixed stacklevel
        # lands on a library line when the check runs inside a generator
        frame, level = inspect.currentframe(), 1
        while frame is not None and frame.f_globals.get(
                "__name__", "").partition(".")[0] == __package__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"{label}: step graph has a strongly connected part of size "
            f"{size} > bound {bound}; longer periodic pseudo-orbits "
            "exist and were not checked",
            BoundTooSmall,
            stacklevel=level,
        )


def _gap_graphs(sys, delta, epsilon, gaps, bound, label):
    """Validate a closed-chain question once, then yield (n, succ, step,
    allowed) of :func:`_gap_structures` for each n in ``gaps``, warning
    BoundTooSmall for a gap graph with cycles longer than ``bound``;
    ``label``, formatted with the gap n, names the graph."""
    if bound < 1:
        raise ValueError(f"length bound must be at least 1, got {bound}")
    if delta <= 0 or epsilon <= 0:
        raise ValueError("thresholds must be positive")
    d_cut = sys.lt_cutoff(delta)
    for n, succ, step, allowed in _gap_structures(sys, gaps, delta, epsilon):
        size = sys._memoized(("scc", d_cut, n), lambda: max(
            len(comp) for comp in _strong_components(succ)))
        _warn_if_bound_blind(size, bound, label.format(n=n))
        yield n, succ, step, allowed


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
    same point.  Each new state counts against the cap, one counter
    across all gaps, so the count never exceeds the walk prefixes a
    listing of those closed walks would visit.
    """
    cap = subset_cap(cap)
    periodic = sys.periodic_indices()
    e_cut, balls = sys.lt_cutoff(epsilon), sys._balls(sys.lt_cutoff(delta))
    visited = 0
    for n, succ, step, allowed in _gap_graphs(sys, delta, epsilon, gaps,
                                              bound, label):
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
    pseudo-orbit at any particular delta.
    """
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    k = len(cycle_points)
    if k == 0:
        raise ValueError("need a non-empty cyclic sequence")
    walk = [sys.index[p] for p in cycle_points]
    eps_cut = sys.lt_cutoff(epsilon)
    rank = sys.rank
    for z in sys.periodic_indices():
        if k % len(sys.cycle(z)) != 0:
            continue
        if all(rank[sys.power(z, i)][walk[i]] < eps_cut for i in range(k)):
            return sys.points[z]
    return None


# -- moduli -----------------------------------------------------------------


@dataclass(frozen=True)
class ModulusTable:
    """Best thresholds per epsilon for one tracing property.

    ``rows`` is a tuple of (epsilon, payload) pairs, epsilon ascending
    over the positive threshold grid.  The payload is the best (largest)
    delta at which the property holds, or None; specification-type
    tables store (N, delta) pairs instead.
    """

    prop: str
    rows: tuple

    def populated(self):
        return all(payload is not None for _, payload in self.rows)


def shadowing_modulus(sys, epsilon, cap=None):
    """Largest grid delta at which shadowing holds for this epsilon.

    Never None: below the least positive distance the only pseudo-orbits
    are true orbits, which shadow themselves at any positive epsilon.
    """
    grid = threshold_grid(sys)
    return _largest_passing(
        grid.positive, lambda d: shadowing_holds(sys, d, epsilon, cap)[0]
    )


def _table(grid, prop, best):
    """The ModulusTable of rows (eps, best(eps)) over the positive grid,
    with BoundTooSmall silenced once for the whole table."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundTooSmall)
        rows = tuple((eps, best(eps)) for eps in grid.positive)
    return ModulusTable(prop, rows)


def modulus_table(sys, prop, period_bound=8, cap=None):
    """ModulusTable for prop in {"shadowing", "periodic", "strong-periodic"}."""
    if prop == "shadowing":
        holds = lambda d, eps: shadowing_holds(sys, d, eps, cap)[0]
    elif prop == "periodic":
        holds = lambda d, eps: periodic_shadowing_holds(
            sys, d, eps, period_bound, cap)[0]
    elif prop == "strong-periodic":
        holds = lambda d, eps: strong_periodic_shadowing_holds(
            sys, d, eps, period_bound, cap)[0]
    else:
        raise ValueError(f"unknown property {prop!r}")
    grid = threshold_grid(sys)
    return _table(grid, prop, lambda eps: _largest_passing(
        grid.positive, lambda d: holds(d, eps)))


def special_shadowing_holds(sys, epsilon, period_bound=8, cap=None):
    """Shadowing and periodic shadowing both admit a delta at this epsilon."""
    s = shadowing_modulus(sys, epsilon, cap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundTooSmall)
        p = _largest_passing(
            threshold_grid(sys).positive,
            lambda d: periodic_shadowing_holds(sys, d, epsilon, period_bound,
                                               cap)[0],
        )
    return (s is not None and p is not None), {
        "shadowing_delta": s,
        "periodic_delta": p,
    }


# -- limit-type variants ----------------------------------------------------


def _require_exact_cycle(sys, cycle, what, power=1):
    """NotDecaying unless f^power maps each cycle entry to the next."""
    name = "f" if power == 1 else f"f^{power}"
    for j, x in enumerate(cycle):
        nxt, image = cycle[(j + 1) % len(cycle)], sys.apply(x, power)
        if image != nxt:
            raise NotDecaying(
                f"{what} step {j}: {name}({x!r}) = {image!r} != {nxt!r}")


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
    _require_exact_cycle(sys, lasso.cycle, "cycle")
    c = len(lasso.cycle)
    x = lasso.cycle[(-len(lasso.stem)) % c]
    assert all(sys.apply(x, i) == lasso[i]
               for i in range(len(lasso.stem), len(lasso.stem) + c))
    return x


def two_sided_limit_shadowing_check(sys, lasso):
    """Orbit matching a two-sided decaying lasso in both time directions.

    Both tails must be exact cycles of f.  On a finite invertible
    system every orbit is a single cycle, so a matching point exists
    iff the past and future tails lie on the same orbit with
    compatible phases; the search below settles that exactly.
    Returns the point, or None when past and future cannot be joined.
    """
    if not sys.invertible:
        raise NotInvertible("two-sided limit tracing needs an invertible system")
    if not lasso.two_sided:
        raise ValueError("two-sided lasso expected")
    _require_exact_cycle(sys, lasso.cycle, "future cycle")
    _require_exact_cycle(sys, lasso.past, "past cycle")
    s = len(lasso.stem)
    for z in sys.points:
        cz = len(sys.cycle(sys.index[z]))
        fwd = math.lcm(cz, len(lasso.cycle))
        back = math.lcm(cz, len(lasso.past))
        if all(sys.apply(z, i) == lasso[i] for i in range(s, s + fwd)) and all(
            sys.apply(z, i) == lasso[i] for i in range(-back, 0)
        ):
            return z
    return None


def _linear_envelope(grid, traces):
    """Linear envelope (L, d0) of a tracing table over the positive grid.

    ``traces(d, eps)`` says whether level-d inputs are eps-traced.  For
    each grid d take the least grid eps that traces; the slope is the
    running maximum of eps/d.  Among grid candidates the pair minimising
    L*d0 (the certified tracing radius) wins, larger d0 on ties, so for
    every grid d <= d0 the pair (d, L*d) traces.
    """
    best = None
    slope = Fraction(0)
    for d in grid.positive:
        # the top epsilon traces everything
        eps_needed = next(e for e in grid.positive if traces(d, e))
        slope = max(slope, eps_needed / d)
        cand = (slope * d, -d, slope, d)
        if best is None or cand < best:
            best = cand
    _, _, L, d0 = best
    return L, d0


def lipschitz_constants(sys, cap=None):
    """Linear tracing envelope: (L, d0) with every d-pseudo-orbit
    (L*d)-shadowed for all 0 < d <= d0.

    Computed from the exact threshold table (see :func:`_linear_envelope`).
    On a finite system the table always fits: below the least positive
    distance pseudo-orbits are true orbits.
    """
    return _linear_envelope(
        threshold_grid(sys),
        lambda d, eps: shadowing_holds(sys, d, eps, cap)[0])
