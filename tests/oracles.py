"""Brute-force reference answers, computed straight from the definitions.

Nothing here touches the subset-construction machinery under test: a
lasso family is enumerated outright, each member is classified by its
worst step error and by the best tracking distance any point achieves
against it, and threshold questions are answered from that table.
``lasso_pareto_by_states`` builds that table from the distinct stem
states and cycle classes; ``lasso_family_pareto``, which lists every
sequence, is kept as its reference.
The closed-chain references at the end list the closed walks with
their own lister, which the library no longer has, and keep each
decision's own loop, sharing with the library only the warning;
``exact_period_tracer_reference`` is their exact-period tracer of one
cyclic sequence, a scan of the definition.
``windows_reference`` and ``die_search_reference`` are the library's
earlier tracing kernel on frozensets, one window rebuild per gap, kept
to check the bitmask kernel that replaced it; with them,
``local_weak_spec_reference`` searches every gap, where the library
skips a gap whose structure repeats.  ``construct_shadow_point_reference``
is the library's earlier tracer search, which locates a one-sided
failure by pushing the viable tracer set along the lasso, where the
library reads it off each point's first miss.  ``modulus_table_reference``
bisects each table row on its own, where the library carries the
previous row's best threshold forward, and keeps the spec tables' old
fallback to N = 2 and 3.  The recurrence
references at the end are the library's earlier recurrence kernel:
frozenset layers, the T + P return horizon, the ``any()`` chain graph
loop and dense boolean matrix powers; ``basic_sets_reference`` and
``chain_recurrent_reference`` read the recurrence of every grid delta
off its own chain graph, where the library decides it once, on the
step relation.  ``reach_after_reference`` is the library's earlier
a-step push, one set image per step, kept to check the a-step rows
built once per system and a, and ``members_reference`` its earlier bit
scan of a mask, one test per bit position.  ``orbits_reference`` is
the library's earlier orbit table, one walk per start, kept to check
the table built in one pass;
``is_transitive_reference`` its earlier transitivity test, which tries
every start, and ``cp_parts_reference`` its earlier stable-set route,
one scan of the piece per point of the anchor's cycle, here with each
stable set read from the definition.  ``metric_violation_reference``
is the library's earlier metric check, the Fraction loop over every
triple, and ``unstable_local_reference`` its earlier backward scan of
the local unstable set over one lcm of all cycle lengths.
The expansiveness references (``n_expansive_reference``,
``strong_measure_reference``, ``expansive_on_per_reference`` and the
bisections ``n_expansive_constant_reference`` and
``hypothesis_report_reference``) are the library's earlier scans of the
whole spread at each delta, kept to check the per-system floors that
replaced them; ``tracer_masks_reference`` is its earlier tracer masks,
one bit test per periodic point, kept to check the pushed fibres, and
``orbit_masks_reference`` its earlier step^k orbits of the closed-chain
search, walked k steps per hop, kept to check the orbits read off the
cycles.
``pushed_closed_walk_counts`` is the library's earlier closed-walk
count, one dict push per start, kept to check the packed push of all
starts at once that replaced it.  ``lt_cutoff_reference`` and
``le_cutoff_reference`` are the library's earlier threshold cutoffs, a
bisection of the Fraction distance values, kept to check the integer
cutoffs on the scaled levels that replaced them.
``myex_table_reference``, ``random_table_reference`` and
``window_table_reference`` are the gallery's and the window builder's
earlier Fraction tables, kept to check the integer tables that replaced
them; ``product_system_reference`` is the product builder's earlier
loop, which asks every factor about every pair of letters, where the
library pairs the factors' edges.

Nothing here reads a system's memo of threshold structures: the grid,
the gap graphs and their classes of mutual reachability are rebuilt
from the distances (``threshold_grid_reference``,
``gap_structures_reference``, ``mutual_reachability_classes``).

``two_sided_limit_reference`` is the library's earlier two-sided limit
tracing, a scan of every point with ``shadows`` below the least
positive distance, kept to check the closed form that replaced it.

``build_parser`` is the command line's earlier argparse parser, written
out by hand, kept to check the command table that replaced it: the
table's own parse of a well-formed command line, and the argparse it
builds for help, ``--version`` and errors.
"""

import argparse
import itertools
import math
import random
import warnings
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction

from dynlab import __version__, cli, shadowing, specification
from dynlab.battery import BATTERY_IDS
from dynlab.core import Lasso, _image, _shadows_backward, as_fraction, shadows
from dynlab.errors import (BoundTooSmall, EmptyShift, MetricViolation,
                           NotDecaying, NotInvertible, StateExplosion)
from dynlab.recurrence import DeltaGraph, _step_sets
from dynlab.shadowing import (
    ShadowCertificate,
    _warn_if_bound_blind,
    subset_cap,
)
from dynlab.specification import SpecInstance, gap_values, trace_chain
from dynlab.symbolic import Sft, _allowed_words, build_sft


def lasso_family_pareto(sys, max_len):
    """Sweep every lasso with stem+cycle <= max_len.

    Returns a dict mapping a worst-step-error rank e to the largest
    best-tracking rank b among lassos whose error rank is e, where

      e = rank of max_i d(f(x_i), x_{i+1})   (wrap edge included)
      b = rank of min_z max_i d(f^i(z), x_i) (full eventual window)

    so "some delta-pseudo-orbit in the family is not epsilon-shadowed"
    is exactly "max{b : e < delta-rank-cutoff} >= epsilon-rank-cutoff".

    Lassos whose cycle is a repetition of a shorter one, or whose stem
    tail could be absorbed into the cycle, describe sequences already
    covered by a shorter member and are skipped.
    """
    n = sys.n
    rank = sys.rank
    f = sys.fmap
    pre = [sys.preperiod(i) for i in range(n)]
    cyc = [len(sys.cycle(i)) for i in range(n)]
    best = {}

    # prof[s][z] = max rank d(f^i(z), seq[i]) over i < s; ziter[s][z] = f^s(z)
    prof = [[0] * n]
    ziter = [list(range(n))]

    def primitive(word):
        m = len(word)
        for d in range(1, m):
            if m % d == 0 and word[:d] * (m // d) == word:
                return False
        return True

    def b_of(seq, s):
        c = len(seq) - s
        if not primitive(seq[s:]):
            return None
        if s > 0 and seq[s - 1] == seq[-1]:
            return None  # stem tail absorbs into a rotated cycle
        bmin = None
        order = sorted(range(n), key=lambda z: prof[s][z])
        for z in order:
            mx = prof[s][z]
            if bmin is not None and mx >= bmin:
                continue
            zi = ziter[s][z]
            window = pre[zi] + math.lcm(cyc[zi], c)
            for j in range(window):
                r = rank[zi][seq[s + j % c]]
                if r > mx:
                    mx = r
                    if bmin is not None and mx >= bmin:
                        break
                zi = f[zi]
            if bmin is None or mx < bmin:
                bmin = mx
                if bmin == 0:
                    break
        return bmin

    def visit(seq, e_prefix):
        m = len(seq)
        if m:
            last_img = f[seq[-1]]
            for s in range(m):
                b = b_of(seq, s)
                if b is None:
                    continue
                e = max(e_prefix, rank[last_img][seq[s]])
                if best.get(e, -1) < b:
                    best[e] = b
            if m == max_len:
                return
            row_prof, row_zi = prof[m], ziter[m]
            new_prof = [0] * n
            new_zi = [f[z] for z in row_zi]
            prof.append(new_prof)
            ziter.append(new_zi)
            for x in range(n):
                for z in range(n):
                    r = rank[row_zi[z]][x]
                    new_prof[z] = r if r > row_prof[z] else row_prof[z]
                seq.append(x)
                visit(seq, max(e_prefix, rank[last_img][x]))
                seq.pop()
            prof.pop()
            ziter.pop()
        else:
            for x in range(n):
                new_prof = [rank[z][x] for z in range(n)]
                prof.append(new_prof)
                ziter.append([f[z] for z in range(n)])
                seq.append(x)
                visit(seq, 0)
                seq.pop()
                prof.pop()
                ziter.pop()

    visit([], 0)
    return best


def lasso_pareto_by_states(sys, max_len):
    """:func:`lasso_family_pareto`, from deduplicated stem and cycle
    states in place of every sequence.

    A lasso's (e, b) reads its stem x_0..x_(s-1) only through the stem
    state: last = x_(s-1), the worst stem step rank, and prof[z] = max
    over i < s of rank(f^i(z), x_i), f^s being the same for every stem
    of length s.  It reads its cycle y_0..y_(k-1) only through the cycle
    class: y_0, the worst cycle step rank (wrap y_(k-1) -> y_0
    included) and cost[w] = max over j >= 0 of rank(f^j(w), y_(j mod k)),
    the worst rank of the orbit of w against the cycle.  That max runs
    over residues r mod k: cost[w] = max_r g[r][w][y_r], g[r][w][a] the
    worst rank of a against the f^j(w) with j = r mod k, over the
    eventual window pre(w) + lcm(p(w), k) of the pair (f^j(w), j mod k).
    So stems and cycles are each grown letter by letter, one state per
    distinct key, and every stem state of length s meets every cycle
    class of length k <= max_len - s, with
    e = max(stem steps, cycle steps, rank(f(last), y_0)) and
    b = min over z of max(prof[z], cost[f^s(z)]).

    Repeated cycles and stem tails absorbed into the cycle are not
    skipped: they only repeat (e, b) of a shorter member.  Reads only
    ``rank``, ``fmap``, ``preperiod`` and ``cycle``.
    """
    n, rank, f = sys.n, sys.rank, sys.fmap
    pre = [sys.preperiod(w) for w in range(n)]
    period = [len(sys.cycle(w)) for w in range(n)]

    # stems[s]: the distinct (prof, worst step, last) of stems of length
    # s; the empty stem has no last letter
    stems, at = [{(tuple([0] * n), 0, None)}], list(range(n))  # at = f^s
    images = [at]
    for s in range(1, max_len):
        stems.append({
            (tuple(max(p, rank[z][x]) for p, z in zip(prof, at)),
             step if last is None else max(step, rank[f[last]][x]), x)
            for prof, step, last in stems[-1] for x in range(n)})
        at = [f[z] for z in at]
        images.append(at)

    best = {}
    for k in range(1, max_len + 1):
        # g[r][w][a] over the eventual window of (f^j(w), j mod k)
        g = [[[0] * n for _ in range(n)] for _ in range(k)]
        for w in range(n):
            z = w
            for j in range(pre[w] + math.lcm(period[w], k)):
                row = g[j % k][w]
                for a in range(n):
                    row[a] = max(row[a], rank[z][a])
                z = f[z]
        # cycle prefixes y_0..y_(r-1): (cost so far, y_0, worst step, y_(r-1))
        level = {(tuple(g[0][w][a] for w in range(n)), a, 0, a)
                 for a in range(n)}
        for r in range(1, k):
            level = {(tuple(map(max, cost, (g[r][w][a] for w in range(n)))),
                      first, max(step, rank[f[last]][a]), a)
                     for cost, first, step, last in level for a in range(n)}
        cycles = {(cost, first, max(step, rank[f[last]][first]))
                  for cost, first, step, last in level}
        for s in range(max_len - k + 1):
            at = images[s]
            for prof, stem_step, last in stems[s]:
                for cost, first, step in cycles:
                    e = max(stem_step, step)
                    if last is not None:
                        e = max(e, rank[f[last]][first])
                    b = min(max(p, cost[z]) for p, z in zip(prof, at))
                    if best.get(e, -1) < b:
                        best[e] = b
    return best


def brute_shadowing_table(sys, max_len):
    """Callable (delta, epsilon) -> bool answering the family question:
    is every delta-pseudo-orbit with stem+cycle <= max_len
    epsilon-shadowed by some point of the system?  Read off
    :func:`lasso_pareto_by_states`."""
    pareto = lasso_pareto_by_states(sys, max_len)
    top = max(r for row in sys.rank for r in row) + 1
    worst = [-1] * (top + 2)  # worst[t] = max b over lassos with e < t
    for e, b in pareto.items():
        if worst[e + 1] < b:
            worst[e + 1] = b
    for t in range(1, top + 2):
        if worst[t] < worst[t - 1]:
            worst[t] = worst[t - 1]

    def table(delta, epsilon):
        d_cut = sys.lt_cutoff(Fraction(delta))
        e_cut = sys.lt_cutoff(Fraction(epsilon))
        return worst[d_cut] < e_cut

    return table


def gamma_window_points(sys, x, delta, horizon):
    """Points whose whole forward orbit stays within delta of x's, checked
    by unrolling `horizon` explicit steps (non-strict comparison)."""
    out = []
    for z in sys.points:
        if all(
            sys.d(sys.apply(z, k), sys.apply(x, k)) <= delta
            for k in range(horizon)
        ):
            out.append(z)
    return out


def orbit_spread_reference(sys):
    """S[x][y] = max distance the orbits of x and y reach over the window
    i < T + P, compared as Fractions (the library's former route)."""
    n = sys.n
    T, P = sys.max_preperiod, sys.cycle_lcm
    spread = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            u, v = a, b
            worst = Fraction(0)
            for _ in range(T + P):
                if sys.dist[u][v] > worst:
                    worst = sys.dist[u][v]
                u, v = sys.fmap[u], sys.fmap[v]
            spread[a][b] = spread[b][a] = worst
    return spread


def lt_cutoff_reference(sys, q):
    """Number of distance values < q, by bisecting the Fractions."""
    return bisect_left(sys.distance_values, q)


def le_cutoff_reference(sys, q):
    """Number of distance values <= q, by bisecting the Fractions."""
    return bisect_right(sys.distance_values, q)


# -- the expansiveness hierarchy, one scan of the spread per question --------


def n_expansive_reference(sys, n, delta):
    """Does every row of the spread have at most n entries within
    delta?  The library's earlier scan of the whole spread."""
    cutoff = le_cutoff_reference(sys, delta)
    return all(sum(1 for r in row if r < cutoff) <= n
               for row in sys.spread_rank)


def strong_measure_reference(sys, delta):
    """(holds, counterexample) by the library's earlier count of
    Gamma_delta(x) on every cycle, x by x and cycle by cycle; the
    counterexample is (x, the uniform weights on the first cycle whose
    count differs from that of {x})."""
    cutoff = le_cutoff_reference(sys, delta)
    spread = sys.spread_rank
    for x in range(sys.n):
        for cyc in sys._cycles:
            inside = sum(1 for y in cyc if spread[x][y] < cutoff)
            if inside != (1 if x in cyc else 0):
                return False, (sys.points[x], tuple(
                    Fraction(1, len(cyc)) if y in cyc else Fraction(0)
                    for y in range(sys.n)))
    return True, None


def expansive_on_per_reference(sys, delta):
    """Are two distinct periodic points never within delta all along?"""
    cutoff = le_cutoff_reference(sys, delta)
    per = [x for x in range(sys.n) if sys.preperiod(x) == 0]
    return all(sys.spread_rank[x][y] >= cutoff
               for x in per for y in per if x != y)


def n_expansive_constant_reference(sys, n):
    """The largest positive grid delta that is n-expansive, bisected
    with a scan per probe."""
    positive = [d for d in threshold_grid_reference(sys) if d > 0]
    return largest_passing_reference(
        positive, lambda d: n_expansive_reference(sys, n, d))


def hypothesis_report_reference(sys):
    """(invertible, strong constant, the grid deltas above it), the
    constant bisected with a strong measure scan per probe."""
    positive = [d for d in threshold_grid_reference(sys) if d > 0]
    constant = largest_passing_reference(
        positive, lambda d: strong_measure_reference(sys, d)[0])
    return (sys.invertible, constant,
            tuple(d for d in positive if d > constant))


def metric_violation_reference(points, dist):
    """The first metric axiom the table breaks, as the MetricViolation
    the library raises, or None: every check on Fractions, the triangle
    inequality over every triple in product order."""
    n = len(points)
    matrix = [[as_fraction(v) for v in row] for row in dist]
    for i in range(n):
        if matrix[i][i] != 0:
            return MetricViolation("identity", (points[i],),
                                   "nonzero self-distance")
    for i, j in itertools.combinations(range(n), 2):
        if matrix[i][j] != matrix[j][i]:
            return MetricViolation("symmetry", (points[i], points[j]))
        if matrix[i][j] <= 0:
            return MetricViolation("positivity", (points[i], points[j]))
    for i, j, k in itertools.product(range(n), repeat=3):
        if matrix[i][k] > matrix[i][j] + matrix[j][k]:
            return MetricViolation(
                "triangle",
                (points[i], points[j], points[k]),
                f"{matrix[i][k]} > {matrix[i][j]} + {matrix[j][k]}",
            )
    return None


# -- the gallery's earlier Fraction tables ------------------------------------
#
# Each returns the arguments of ``build_finite_system`` (points, dist,
# fmap, invertible, relation) the library's builders used to hand it: a
# table of Fractions, before the builders kept their tables as integers.


def _lattice_apply(pt):
    x, y = pt
    return (2 * x + y) % 1, (x + y) % 1


def _wrap(t):
    t = t % 1
    return min(t, 1 - t)


def _lattice_dist(a, b):
    return max(_wrap(a[0] - b[0]), _wrap(a[1] - b[1]))


def myex_table_reference(lattice_q, K):
    """The lattice map on (Z/q)^2 / q with K satellite orbits at offset
    1/k from the least point of the k-th orbit (orbits by length, then
    least point), on Fractions."""
    pts = [(Fraction(a, lattice_q), Fraction(b, lattice_q))
           for a in range(lattice_q) for b in range(lattice_q)]
    seen, orbits = set(), []
    for start in pts:
        orbit, v = [], start
        while v not in seen:
            seen.add(v)
            orbit.append(v)
            v = _lattice_apply(v)
        if orbit:
            orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: (len(o), o[0]))
    lattice = sorted(pts)
    names = [f"({x},{y})" for x, y in lattice]
    fmap = [f"({x},{y})" for x, y in map(_lattice_apply, lattice)]
    located = [(Fraction(0), pt) for pt in lattice]
    for k in range(1, K + 1):
        period, pt = len(orbits[k - 1]), orbits[k - 1][0]
        for j in range(period):
            names.append(f"q({k},{j})")
            fmap.append(f"q({k},{(j + 1) % period})")
            located.append((Fraction(1, k), pt))
            pt = _lattice_apply(pt)
    dist = [[Fraction(0) if a == b else oa + ob + _lattice_dist(pa, pb)
             for b, (ob, pb) in enumerate(located)]
            for a, (oa, pa) in enumerate(located)]
    return names, dist, fmap, True, None


def random_table_reference(seed, size, invertible=False):
    """Weights m / c drawn as Fractions, completed by shortest paths."""
    rng = random.Random(seed)
    base = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            w = Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 4, 6]))
            base[i][j] = base[j][i] = w
    for k in range(size):
        for i in range(size):
            for j in range(size):
                via = base[i][k] + base[k][j]
                if via < base[i][j]:
                    base[i][j] = via
    points = tuple(f"p{i}" for i in range(size))
    if invertible:
        perm = list(range(size))
        rng.shuffle(perm)
        fmap = [points[perm[i]] for i in range(size)]
    else:
        fmap = [points[rng.randrange(size)] for _ in range(size)]
    return points, base, fmap, invertible or None, None


def window_table_reference(sft, w):
    """Words of length 2w + 1 at distance 2^(-k), k the least |i| with
    u_i != v_i; the shift fills in the least allowed successor."""
    words = _allowed_words(sft, 2 * w + 1)
    ids = [",".join(map(str, word)) for word in words]
    dist = [[Fraction(0) if u == v else Fraction(1, 2 ** min(
                abs(c - w) for c in range(2 * w + 1) if u[c] != v[c]))
             for v in words] for u in words]
    pos = {word: k for k, word in enumerate(words)}
    relation = [tuple(ids[pos[word[1:] + (b,)]]
                      for b in sft.successors(word[-1])
                      if word[1:] + (b,) in pos) for word in words]
    return ids, dist, [min(row) for row in relation], None, relation


def build_sft_reference(alphabet, edges):
    """The library's earlier ``build_sft``: prune the letters without an
    out- or an in-edge, round by round, until a round removes none."""
    alive = list(dict.fromkeys(alphabet))
    edge_set = {(a, b) for a, b in edges}
    for a, b in edge_set:
        if a not in alive or b not in alive:
            raise ValueError(f"edge {(a, b)!r} uses letters outside the alphabet")
    while True:
        outs = {a for a, _ in edge_set}
        ins = {b for _, b in edge_set}
        keep = [v for v in alive if v in outs and v in ins]
        if keep == alive:
            break
        alive = keep
        edge_set = {(a, b) for a, b in edge_set if a in alive and b in alive}
    if not alive:
        raise EmptyShift("no vertex carries a bi-infinite walk")
    return Sft(tuple(alive), frozenset(edge_set))


def product_system_reference(sfts):
    """The product shift from every pair of product letters, a pair
    being an edge when each factor allows its coordinates."""
    sfts = list(sfts)
    alphabet = ["|".join(map(str, combo))
                for combo in itertools.product(*(s.alphabet for s in sfts))]
    edges = set()
    for combo_a in itertools.product(*(s.alphabet for s in sfts)):
        for combo_b in itertools.product(*(s.alphabet for s in sfts)):
            if all(s.allows(a, b) for s, a, b in zip(sfts, combo_a, combo_b)):
                edges.add(("|".join(map(str, combo_a)),
                           "|".join(map(str, combo_b))))
    return build_sft(alphabet, edges)


def unstable_local_reference(sys, x, epsilon):
    """Points y with d(f^-k x, f^-k y) <= epsilon for every k < P, the
    lcm of all cycle lengths, on an invertible system."""
    xi, P = sys.index[x], sys.cycle_lcm
    return tuple(
        sys.points[y] for y in range(sys.n)
        if all(sys.dist[sys.power(xi, -k)][sys.power(y, -k)] <= epsilon
               for k in range(P)))


def mutual_reachability_classes(succ):
    """Strong components by definition: u and v share a class iff each
    reaches the other (every vertex reaches itself by the empty walk)."""
    n = len(succ)
    reach = []
    for v in range(n):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return {frozenset(u for u in range(n) if u in reach[v] and v in reach[u])
            for v in range(n)}


def dense_closed_walk_counts(succ, m):
    """trace(A^k) for k = 1..m by dense integer matrix powers, A the 0/1
    adjacency matrix of the successor lists."""
    n = len(succ)
    mat = [[1 if j in succ[i] else 0 for j in range(n)] for i in range(n)]
    power, counts = mat, []
    for k in range(1, m + 1):
        if k > 1:
            power = [[sum(power[i][l] * mat[l][j] for l in range(n))
                      for j in range(n)] for i in range(n)]
        counts.append(sum(power[i][i] for i in range(n)))
    return counts


def pushed_closed_walk_counts(succ, m, primitive=False):
    """The library's earlier closed-walk count: a dict of walk counts
    pushed forward from each start in turn, one start at a time.

    With ``primitive``, walks from each start r stay inside the vertices
    >= r, and the primitive counts of the proper divisors are
    subtracted, as in the library."""
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


def sieve_primes(limit):
    """The set of primes below ``limit``, by the sieve of Eratosthenes."""
    marks = [True] * limit
    marks[:2] = [False] * min(2, limit)
    for p in range(2, math.isqrt(limit) + 1):
        if marks[p]:
            marks[p * p::p] = [False] * len(range(p * p, limit, p))
    return {p for p, prime in enumerate(marks) if prime}


# -- closed-chain decisions, one loop each ------------------------------------
#
# Each decision below lists the closed walks of its own gap graph and
# scans the periodic points with FiniteSystem.power: a route apart from
# the library's tracer-set search and closed-form chain count.


def _closed_walks_of_graph(succ, length, cap, counter):
    """Closed walks w of given length with w[0] = min(w), primitive only."""
    walks = []

    def extend(walk):
        counter[0] += 1
        if counter[0] > cap:
            raise StateExplosion(counter[0], cap)
        if len(walk) == length:
            if walk[0] in succ[walk[-1]]:
                t = tuple(walk)
                for d in range(1, length):
                    if length % d == 0 and t[:d] * (length // d) == t:
                        return  # repetition of a shorter closed walk
                walks.append(t)
            return
        for u in succ[walk[-1]]:
            if u >= walk[0]:
                walk.append(u)
                extend(walk)
                walk.pop()

    for v in range(len(succ)):
        extend([v])
    return walks


def warn_if_bound_blind_reference(succ, bound, label):
    """The library's BoundTooSmall warning, for a graph with a primitive
    closed walk longer than ``bound``: a class of mutual reachability
    with more internal edges than members carries two distinct cycles,
    so primitive closed walks of every length past some point; one with
    as many is a single cycle, whose length is its size."""
    longest = 0
    for members in mutual_reachability_classes(succ):
        edges = sum(u in members for v in members for u in succ[v])
        if edges > len(members):
            longest = math.inf
        elif edges:
            longest = max(longest, len(members))
    _warn_if_bound_blind(longest, bound, label)


def windows_reference(sys, n, epsilon):
    """allowed[v] = the points z with d(f^i(z), f^i(v)) < epsilon for every
    0 <= i < n: the epsilon tracking window of v over n steps.  At n = 1
    the windows are the epsilon-balls."""
    cut = sys.lt_cutoff(epsilon)
    rank, fmap = sys.rank, sys.fmap
    windows = []
    for v in range(sys.n):
        alive, vi = [(z, z) for z in range(sys.n)], v  # (z, f^i(z))
        for _ in range(n):
            alive = [(z, fmap[zi]) for z, zi in alive if rank[zi][vi] < cut]
            vi = fmap[vi]
        windows.append(frozenset(z for z, _ in alive))
    return tuple(windows)


def tracer_masks_reference(periodic, step, allowed, bound):
    """masks[k][u] for k < bound: the periodic z with step^k(z) in
    allowed[u], one bit test per periodic point and window (the
    library's earlier ``_tracer_masks``)."""
    masks, at = [], periodic
    for _ in range(bound):
        masks.append(tuple(sum(1 << z for z, y in zip(periodic, at)
                               if window >> y & 1) for window in allowed))
        at = [step[y] for y in at]
    return tuple(masks)


def orbit_masks_reference(periodic, step, k):
    """The orbits of step^k on the periodic points, as bitmasks, walked
    k steps per hop (the library's earlier ``_orbit_masks``)."""
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


def die_search_reference(succ, step, allowed, cap):
    """Find a walk of the step graph along which the viable set empties.

    States are (vertex, frozenset of viable tracer positions); the
    search starts from (v, allowed[v]) for every v and moves along
    graph edges with W -> step(W) intersected with the target's allowed
    set.  Returns the vertex walk to the first death in (length, lex)
    order, or None if no death state is reachable.
    """
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
        image = frozenset(step[z] for z in w)
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


def construct_shadow_point_reference(sys, lasso, epsilon):
    """Search for a point whose orbit epsilon-shadows the given lasso.

    Returns (point, info).  On success info carries the verified
    certificate; on failure point is None and info locates the
    obstruction: the first index at which the viable tracer set dies
    (one-sided), or the forward/backward survivor sets whose
    intersection at index 0 is empty (two-sided).  Both halves are those
    of :func:`~dynlab.core.shadows`.
    """
    epsilon = as_fraction(epsilon)
    for z in sys.points:
        if shadows(sys, z, lasso, epsilon):
            return z, {"certificate": ShadowCertificate(
                "traced", None, epsilon, lasso, point=z)}
    cutoff = sys.lt_cutoff(epsilon)
    if lasso.two_sided:
        fwd = Lasso(stem=lasso.stem, cycle=lasso.cycle)
        forward = tuple(z for z in sys.points if shadows(sys, z, fwd, epsilon))
        back = tuple(z for i, z in enumerate(sys.points)
                     if _shadows_backward(sys, i, lasso, cutoff))
        return None, {"forward_survivors": forward, "backward_survivors": back}
    balls = sys._balls(cutoff)
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


def two_sided_limit_reference(sys, lasso):
    """The point whose orbit runs along the past cycle of the two-sided
    ``lasso`` before index 0 and along its future cycle after the stem,
    or None: every point is tried, both halves by ``shadows`` below the
    least positive distance, where tracing is equality.  Refuses a
    system that is not a bijection, a one-sided lasso, and a future or
    past cycle that is not an exact cycle of f, in that order."""
    if not sys.invertible:
        raise NotInvertible("two-sided limit tracing needs an invertible system")
    if not lasso.two_sided:
        raise ValueError("two-sided lasso expected")
    for what, cycle in (("future cycle", lasso.cycle),
                        ("past cycle", lasso.past)):
        for j, x in enumerate(cycle):
            nxt, image = cycle[(j + 1) % len(cycle)], sys.apply(x)
            if image != nxt:
                raise NotDecaying(
                    f"{what} step {j}: f({x!r}) = {image!r} != {nxt!r}")
    tail = Lasso(cycle=lasso.cycle)
    exact = sys.distance_values[1] / 2 if sys.n > 1 else Fraction(1)
    for i, z in enumerate(sys.points):
        if (shadows(sys, sys.apply(z, len(lasso.stem)), tail, exact)
                and _shadows_backward(sys, i, lasso, sys.lt_cutoff(exact))):
            return z
    return None


def gap_structures_reference(sys, n, delta, epsilon):
    """(succ, step, allowed) for gap n: gap graph, n-step map, windows."""
    d_cut = sys.lt_cutoff(delta)
    e_cut = sys.lt_cutoff(epsilon)
    rank = sys.rank
    step = [sys.power(i, n) for i in range(sys.n)]
    succ = tuple(
        tuple(j for j in range(sys.n) if rank[step[i]][j] < d_cut)
        for i in range(sys.n)
    )
    allowed = []
    for v in range(sys.n):
        members = []
        for z in range(sys.n):
            zi, vi = z, v
            ok = True
            for _ in range(n):
                if rank[zi][vi] >= e_cut:
                    ok = False
                    break
                zi, vi = sys.fmap[zi], sys.fmap[vi]
            if ok:
                members.append(z)
        allowed.append(frozenset(members))
    return succ, step, tuple(allowed)


def periodic_variant_reference(sys, delta, epsilon, period_bound, strong,
                               cap=None):
    """periodic_shadowing_holds (strong=False) or its exact-period form."""
    delta, epsilon = as_fraction(delta), as_fraction(epsilon)
    succ = gap_structures_reference(sys, 1, delta, delta)[0]
    warn_if_bound_blind_reference(succ, period_bound,
                                  "strong periodic" if strong else "periodic")
    eps_cut = sys.lt_cutoff(epsilon)
    rank = sys.rank
    per = sys.periodic_indices()
    counter = [0]
    cap = subset_cap(cap)
    for k in range(1, period_bound + 1):
        for walk in _closed_walks_of_graph(succ, k, cap, counter):
            found = False
            for z in per:
                p = len(sys.cycle(z))
                if strong and k % p != 0:
                    continue
                horizon = k if strong else math.lcm(p, k)
                if all(rank[sys.power(z, i)][walk[i % k]] < eps_cut
                       for i in range(horizon)):
                    found = True
                    break
            if not found:
                lasso = Lasso(cycle=tuple(sys.points[i] for i in walk))
                return False, ShadowCertificate(
                    "counterexample", delta, epsilon, lasso)
    return True, None


def local_spec_reference(sys, epsilon, N, delta, k_bound=6, cap=None):
    """local_spec_holds: closed chains at every gap n >= N."""
    epsilon, delta = as_fraction(epsilon), as_fraction(delta)
    gaps = gap_values(sys, N)
    e_cut = sys.lt_cutoff(epsilon)
    rank = sys.rank
    cap = subset_cap(cap)
    counter = [0]
    for n in gaps:
        succ, step, _ = gap_structures_reference(sys, n, delta, epsilon)
        warn_if_bound_blind_reference(succ, k_bound,
                                      f"closed chains at gap {n}")
        per = [z for z in range(sys.n) if sys.preperiod(z) == 0]
        for k in range(1, k_bound + 1):
            for walk in _closed_walks_of_graph(succ, k, cap, counter):
                found = False
                for z in per:
                    if (k * n) % len(sys.cycle(z)) != 0:
                        continue
                    zi = z
                    ok = True
                    for i in range(k):
                        vi = walk[i]
                        for _ in range(n):
                            if rank[zi][vi] >= e_cut:
                                ok = False
                                break
                            zi, vi = sys.fmap[zi], sys.fmap[vi]
                        if not ok:
                            break
                    if ok:
                        found = True
                        break
                if not found:
                    chain = SpecInstance(
                        sources=tuple(sys.points[i] for i in walk),
                        gap=n,
                        closed=True,
                        delta=delta,
                    )
                    return False, {"gap_range": gaps, "counterexample": chain}
    return True, {"gap_range": gaps}


def exact_period_tracer_reference(sys, sequence, epsilon):
    """The first point x with f^N(x) = x (N = len(sequence)) whose orbit
    stays within epsilon of the sequence read cyclically, or None: one
    Fraction comparison per point and time i < N."""
    epsilon, N = as_fraction(epsilon), len(sequence)
    return next((z for z in sys.points if sys.apply(z, N) == z and all(
        sys.d(sys.apply(z, i), x) < epsilon for i, x in enumerate(sequence))),
        None)


def pairwise_chain_reference(sys, delta, epsilon, k_bound=6, cap=None):
    """pairwise_tracing_chain, with the reference loops for its links."""
    delta, epsilon = as_fraction(delta), as_fraction(epsilon)
    cap = subset_cap(cap)
    counter = [0]
    checked = 0
    exact_to_chain = True
    routes_equal = True
    counterexample = None
    for n in gap_values(sys, 1):
        succ, _, _ = gap_structures_reference(sys, n, delta, epsilon)
        warn_if_bound_blind_reference(succ, k_bound,
                                      f"closed chains at gap {n}")
        for k in range(1, k_bound + 1):
            for walk in _closed_walks_of_graph(succ, k, cap, counter):
                checked += 1
                sources = tuple(sys.points[i] for i in walk)
                unrolled = tuple(
                    sys.points[sys.power(i, r)] for i in walk for r in range(n)
                )
                exact = exact_period_tracer_reference(sys, unrolled, epsilon)
                chain = trace_chain(sys, sources, n, epsilon, periodic=True)
                if (exact is None) != (chain is None):
                    routes_equal = False
                if exact is not None and chain is None:
                    exact_to_chain = False
                    if counterexample is None:
                        counterexample = SpecInstance(
                            sources=sources, gap=n, closed=True, delta=delta)
    chain_ok = local_spec_reference(sys, epsilon, 1, delta, k_bound, cap)[0]
    periodic_ok = periodic_variant_reference(
        sys, delta, epsilon, k_bound, False, cap)[0]
    exact_ok = periodic_variant_reference(
        sys, delta, epsilon, k_bound, True, cap)[0]
    links = {
        "exact_to_chain": {
            "holds": exact_to_chain,
            "routes_equal": routes_equal,
            "counterexample": counterexample,
        },
        "chain_to_periodic": {
            "holds": (not chain_ok) or periodic_ok,
            "chain": chain_ok,
            "periodic": periodic_ok,
        },
        "exact_to_periodic": {
            "holds": (not exact_ok) or periodic_ok,
            "exact": exact_ok,
            "periodic": periodic_ok,
        },
    }
    return {
        "thresholds": (delta, epsilon),
        "instances_checked": checked,
        "holds": all(row["holds"] for row in links.values()),
        **links,
    }


def local_weak_spec_reference(sys, epsilon, N, delta, cap=None):
    """local_weak_spec_holds: one frozenset die search per gap n >= N,
    every gap searched, each with its own cap."""
    epsilon, delta = as_fraction(epsilon), as_fraction(delta)
    gaps = gap_values(sys, N)
    for n in gaps:
        walk = die_search_reference(
            *gap_structures_reference(sys, n, delta, epsilon), subset_cap(cap))
        if walk is not None:
            chain = SpecInstance(sources=tuple(sys.points[i] for i in walk),
                                 gap=n, closed=False, delta=delta)
            return False, {"gap_range": gaps, "counterexample": chain}
    return True, {"gap_range": gaps}


# -- best-threshold tables, each row bisected on its own ----------------------


def largest_passing_reference(values, passes):
    """The largest of the ascending ``values`` passing a downward-closed
    test, or None, probing as the library's bisection does: the top,
    then the bottom, then halving the bracket."""
    if passes(values[-1]):
        return values[-1]
    if not passes(values[0]):
        return None
    lo, hi = 0, len(values) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if passes(values[mid]) else (lo, mid)
    return values[lo]


def modulus_table_reference(sys, prop, period_bound=8, k_bound=6, cap=None):
    """The rows (epsilon, best) of one of the five best-threshold tables,
    every row bisected on its own from the whole grid.  The spec tables
    try N = 1, 2, 3 in turn and keep (N, delta) for the first N with a
    passing delta.  The decision functions are looked up on their
    modules at each call, in the argument form the library's tables
    use, so a test can log the cells both decide."""
    grid = threshold_grid_reference(sys)[1:]
    if prop.startswith("spec-"):
        holds = {
            "spec-weak": lambda eps, N, d: specification.local_weak_spec_holds(
                sys, eps, N, d, cap),
            "spec-full": lambda eps, N, d: specification.local_spec_holds(
                sys, eps, N, d, k_bound, cap),
        }[prop]

        def best(eps):
            for N in (1, 2, 3):
                delta = largest_passing_reference(
                    grid, lambda d: holds(eps, N, d)[0])
                if delta is not None:
                    return N, delta
            return None
    else:
        holds = {
            "shadowing": lambda d, eps: shadowing.shadowing_holds(
                sys, d, eps, cap),
            "periodic": lambda d, eps: shadowing.periodic_shadowing_holds(
                sys, d, eps, period_bound, cap),
            "strong-periodic":
                lambda d, eps: shadowing.strong_periodic_shadowing_holds(
                    sys, d, eps, period_bound, cap),
        }[prop]

        def best(eps):
            return largest_passing_reference(
                grid, lambda d: holds(d, eps)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundTooSmall)
        return tuple((eps, best(eps)) for eps in grid)


# -- recurrence on frozensets and dense boolean matrices ----------------------


def chain_graph_reference(sys, delta):
    """Digraph with an edge x -> y iff some admissible step from x lands
    within delta of y (strict, matching the pseudo-orbit convention),
    read off the Fraction distances, not the library's rank cutoffs."""
    delta = as_fraction(delta)
    dist = sys.dist
    steps = _step_sets(sys)
    succ = tuple(
        tuple(
            j for j in range(sys.n)
            if any(dist[z][j] < delta for z in steps[i])
        )
        for i in range(sys.n)
    )
    return DeltaGraph(delta, succ)


def _chain_levels_reference(sys):
    """At each positive grid delta: (delta, the indices on a closed walk
    of length >= 1 of the chain graph, each index's class of mutual
    reachability)."""
    for delta in threshold_grid_reference(sys)[1:]:
        succ = chain_graph_reference(sys, delta).succ
        classes = mutual_reachability_classes(succ)
        on_cycle = {v for c in classes for v in c
                    if len(c) > 1 or v in succ[v]}
        yield delta, on_cycle, {v: c for c in classes for v in c}


def chain_recurrent_reference(sys):
    """(points, table) of the chain recurrent set, one chain graph per
    positive grid delta: table rows are (delta, the points on a closed
    walk at delta), and the points are those on one at every delta."""
    levels = list(_chain_levels_reference(sys))
    table = tuple((delta, tuple(sys.points[i] for i in sorted(on_cycle)))
                  for delta, on_cycle, _ in levels)
    points = tuple(p for i, p in enumerate(sys.points)
                   if all(i in on_cycle for _, on_cycle, _ in levels))
    return points, table


def basic_sets_reference(sys):
    """Basic sets by definition: the points on a closed walk of the
    chain graph at every positive grid delta, grouped by their classes
    of mutual reachability at every delta; in canonical order, sorted
    by least member."""
    levels = list(_chain_levels_reference(sys))
    pieces = {}
    for i in range(sys.n):
        if all(i in on_cycle for _, on_cycle, _ in levels):
            key = tuple(label[i] for _, _, label in levels)
            pieces.setdefault(key, []).append(i)
    return tuple(tuple(sys.points[i] for i in ids)
                 for ids in sorted(pieces.values()))


def nonwandering_reference(sys):
    """Points every neighborhood of which returns to itself.

    Direct reading on the grid: x is non-wandering iff for every grid
    epsilon some admissible n-step image of the open ball B(x, eps)
    meets the ball again, n >= 1.  Return times are bounded by
    max(pre-period + cycle lcm, number of points): a functional orbit
    repeats beyond the former, and any multivalued return walk can be
    cut down below the latter.
    """
    steps = _step_sets(sys)
    horizon = max(sys.max_preperiod + sys.cycle_lcm, sys.n)
    result = []
    for x in range(sys.n):
        wandering = False
        for eps in threshold_grid_reference(sys)[1:]:  # the positive ones
            cut = sys.lt_cutoff(eps)
            ball = frozenset(y for y in range(sys.n) if sys.rank[x][y] < cut)
            layer, returned = ball, False
            for _ in range(horizon):
                layer = frozenset(j for i in layer for j in steps[i])
                if layer & ball:
                    returned = True
                    break
            if not returned:
                wandering = True
                break
        if not wandering:
            result.append(sys.points[x])
    return tuple(result)


def stable_sets_reference(sys, x, epsilon):
    """(local, global) stable sets of x: the y whose orbit stays within
    epsilon of x's over one pre-period plus one cycle lcm, and the y
    whose orbit meets x's, which happens within n steps if ever."""
    horizon = sys.max_preperiod + sys.cycle_lcm
    local = tuple(gamma_window_points(sys, x, epsilon, horizon))
    meet = sys.apply(x, sys.n)
    return local, tuple(y for y in sys.points if sys.apply(y, sys.n) == meet)


def threshold_grid_reference(sys):
    """The grid values, ascending: 0, the positive distances, half the
    least of them and the largest plus one (or 0 and 1 on one point)."""
    positive = [v for row in sys.dist for v in row if v > 0]
    if not positive:
        return (Fraction(0), Fraction(1))
    low, high = min(positive), max(positive)
    return tuple(sorted({Fraction(0), low / 2, high + 1, *positive}))


def reach_after_reference(sys, start, n):
    """Indices reachable from the index set ``start`` in exactly n steps,
    one set image per step: the library's earlier a-step push."""
    steps = _step_sets(sys)
    layer = frozenset(start)
    for _ in range(n):
        layer = frozenset(j for i in layer for j in steps[i])
    return layer


def members_reference(mask):
    """The indices of the bits of ``mask``, ascending, one test per bit
    position: the library's earlier bit scan."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def primitive_reference(matrix):
    """Does some power of the boolean matrix have every entry set?

    A primitive n x n matrix is all-positive by exponent n^2 - 2n + 2,
    so that many multiplications decide the question exactly.
    """
    n = len(matrix)
    power = matrix
    for _ in range(n * n - 2 * n + 3):
        if all(all(row) for row in power):
            return True
        power = [
            [any(power[i][k] and matrix[k][j] for k in range(n))
             for j in range(n)]
            for i in range(n)
        ]
    return False


def is_mixing_reference(sys, part, a):
    """Is the a-step relation between part members primitive?"""
    ids = [sys.index[p] for p in part]
    matrix = []
    for i in ids:
        reach = reach_after_reference(sys, (i,), a)
        matrix.append([(j in reach) for j in ids])
    return primitive_reference(matrix)


def orbits_reference(sys):
    """(prefixes, cycles) of the orbit table, one walk per start: the
    orbit before its first repeat, cut where the repeat enters it."""
    prefixes, cycles = [], []
    for start in range(sys.n):
        seen = {}
        seq = []
        v = start
        while v not in seen:
            seen[v] = len(seq)
            seq.append(v)
            v = sys.fmap[v]
        enter = seen[v]
        prefixes.append(tuple(seq[:enter]))
        cycles.append(tuple(seq[enter:]))
    return tuple(prefixes), tuple(cycles)


def is_transitive_reference(sys, subset):
    """Does the orbit of some point of a plain system cover the subset?
    Tries every start."""
    wanted = {sys.index[p] for p in subset}
    return any(wanted <= {*prefix, *cycle}
               for prefix, cycle in zip(*orbits_reference(sys)))


def cp_parts_reference(sys, B):
    """The stable-set route to the cyclic parts, one scan of B per point
    of the anchor's cycle: C_p is the q in B whose orbit meets p's,
    which happens within n steps if ever."""
    periodic = [p for p in B if sys.preperiod(sys.index[p]) == 0]
    if not periodic:
        return None
    parts = []
    for i in sys.cycle(sys.index[periodic[0]]):
        meet = sys.power(i, sys.n)
        parts.append(tuple(q for q in B
                           if sys.power(sys.index[q], sys.n) == meet))
    m = next((m for m in range(1, len(parts)) if parts[m] == parts[0]),
             len(parts))
    return m, tuple(parts[:m])


def _add_common(parser, handler=None):
    """--window, --emit, and --system for a command run by ``handler``."""
    if handler is not None:
        parser.add_argument("--system", required=True,
                            help="path to a system JSON file")
        parser.set_defaults(func=cli._run, handler=handler)
    parser.add_argument("--window", type=int, default=None,
                        help="window radius; turns a shift file into its "
                             "finite window system")
    parser.add_argument("--emit", default=None,
                        help="also write the JSON output to this path")


def build_parser():
    """The command line's parser, one add_argument call per option."""
    parser = argparse.ArgumentParser(
        prog="dynlab",
        description="Exact tracing, expansiveness and decomposition checks "
                    "on finite metric systems and shifts of finite type.")
    parser.add_argument("--version", action="version",
                        version=f"dynlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide one property at thresholds")
    what = check.add_subparsers(dest="what", required=True)

    p = what.add_parser("shadowing")
    _add_common(p, cli._cmd_check_shadowing)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", default=None,
                   help="omit to compute the best grid delta instead")
    p.add_argument("--period-bound", type=int, default=8, dest="period_bound")

    p = what.add_parser("spec")
    _add_common(p, cli._cmd_check_spec)
    p.add_argument("--variant", required=True,
                   choices=("weak", "full", "limit", "lipschitz", "two-sided"))
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--k-bound", type=int, default=6, dest="k_bound")
    p.add_argument("--lasso", default=None,
                   help="JSON file with stem/cycle lists (limit, two-sided) "
                        "and an optional past list (two-sided)")

    p = what.add_parser("expansive")
    _add_common(p, cli._cmd_check_expansive)
    p.add_argument("--variant", required=True,
                   choices=("n", "strong-measure", "measure", "per"))
    p.add_argument("--delta", required=True)
    p.add_argument("--n", type=int, default=1)

    p = sub.add_parser("spectral", help="basic sets, cyclic parts, mixing")
    _add_common(p, cli._cmd_spectral)

    gallery = sub.add_parser("gallery", help="construct a built-in example")
    gallery.set_defaults(func=cli._cmd_gallery)
    fam = gallery.add_subparsers(dest="family", required=True)

    p = fam.add_parser("xpq")
    _add_common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = fam.add_parser("myex")
    _add_common(p)
    p.add_argument("--lattice", type=int, required=True)
    p.add_argument("--K", type=int, required=True)

    p = fam.add_parser("product")
    _add_common(p)
    p.add_argument("--primes", required=True,
                   help="comma-separated strictly increasing primes")
    p.add_argument("--factors", type=int, required=True)

    p = fam.add_parser("random")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--invertible", action="store_true")

    p = sub.add_parser("battery", help="run a quantified law battery")
    _add_common(p, cli._cmd_battery)
    p.add_argument("--id", required=True, choices=BATTERY_IDS)
    p.add_argument("--period-bound", type=int, default=6, dest="period_bound")

    p = sub.add_parser("modulus", help="best-threshold table per epsilon")
    _add_common(p, cli._cmd_modulus)
    p.add_argument("--prop", required=True, choices=tuple(shadowing._TABLES))
    p.add_argument("--period-bound", type=int, default=8, dest="period_bound")
    p.add_argument("--k-bound", type=int, default=6, dest="k_bound")
    p.add_argument("--csv", default=None,
                   help="also write the table as CSV to this path")

    return parser
