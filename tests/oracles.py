"""Brute-force reference answers, computed straight from the definitions.

Nothing here touches the subset-construction machinery under test: a
lasso family is enumerated outright, each member is classified by its
worst step error and by the best tracking distance any point achieves
against it, and threshold questions are answered from that table.
The closed-chain references at the end list the closed walks with
their own lister, which the library no longer has, and keep each
decision's own loop, sharing with the library only the warning.
``windows_reference`` and ``die_search_reference`` are the library's
earlier tracing kernel on frozensets, one window rebuild per gap, kept
to check the bitmask kernel that replaced it.
"""

import math
from collections import deque
from fractions import Fraction

from dynlab.core import Lasso, as_fraction
from dynlab.errors import StateExplosion
from dynlab.shadowing import (
    ShadowCertificate,
    _warn_if_bound_blind,
    delta_graph,
    strong_shadow_point,
    subset_cap,
)
from dynlab.specification import SpecInstance, gap_values, trace_chain


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


def brute_shadowing_table(sys, max_len):
    """Callable (delta, epsilon) -> bool answering the family question:
    is every delta-pseudo-orbit with stem+cycle <= max_len
    epsilon-shadowed by some point of the system?"""
    pareto = lasso_family_pareto(sys, max_len)
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
    g = delta_graph(sys, delta)
    _warn_if_bound_blind(g.succ, period_bound,
                         "strong periodic" if strong else "periodic")
    eps_cut = sys.lt_cutoff(epsilon)
    rank = sys.rank
    per = sys.periodic_indices()
    counter = [0]
    cap = subset_cap(cap)
    for k in range(1, period_bound + 1):
        for walk in _closed_walks_of_graph(g.succ, k, cap, counter):
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
        _warn_if_bound_blind(succ, k_bound, f"closed chains at gap {n}")
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
        _warn_if_bound_blind(succ, k_bound, f"closed chains at gap {n}")
        for k in range(1, k_bound + 1):
            for walk in _closed_walks_of_graph(succ, k, cap, counter):
                checked += 1
                sources = tuple(sys.points[i] for i in walk)
                unrolled = tuple(
                    sys.points[sys.power(i, r)] for i in walk for r in range(n)
                )
                exact = strong_shadow_point(sys, unrolled, epsilon)
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
