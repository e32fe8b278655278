"""Segment-chain tracing (specification-style properties) and the exact
block reductions between chain tracing and pseudo-orbit tracing.

A chain with gap n is a list of points x_1..x_k with d(f^n(x_i),
x_{i+1}) < delta; a tracer is a point whose orbit stays epsilon-close
to the n-step orbit burst of each x_i over the window [i*n, (i+1)*n).
Chains with gap n are walks of the graph with edges x -> y iff
d(f^n(x), y) < delta, so the same viable-set search used for
pseudo-orbits decides traceability, advancing n steps per edge.

The quantifier "for some/all n >= N" is finite on a finite system: the
n-step map, the gap graph, and the window sets are all eventually
periodic in n with preperiod at most the largest orbit preperiod T and
period dividing the lcm P of cycle lengths, so checking
n in [N, max(N+P, T+2P)) covers every n >= N.  The bound is reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .core import (Lasso, _closed_walk_counts, _largest_passing, as_fraction,
                   shadows, threshold_grid)
from .errors import BoundTooSmall, ModulusViolation, NotDecaying
from .shadowing import (
    _die_search,
    _first_untraced_chain,
    _gap_graphs,
    _gap_structures,
    _linear_envelope,
    _require_exact_cycle,
    _table,
    periodic_shadowing_holds,
    strong_periodic_shadowing_holds,
    subset_cap,
    two_sided_limit_shadowing_check,
)

__all__ = [
    "SpecInstance",
    "SpecCertificate",
    "Blocked",
    "gap_values",
    "local_weak_spec_holds",
    "local_spec_holds",
    "trace_chain",
    "eta_modulus",
    "blockify",
    "spec_to_shadow_point",
    "modulus_table_for_spec",
    "generalized_spec_checks",
    "pairwise_tracing_chain",
    "derived_periodic_shadowing",
]


@dataclass(frozen=True)
class SpecInstance:
    """A segment chain: sources, gap length, and its closing convention."""

    sources: tuple
    gap: int
    closed: bool
    delta: Fraction

    def verify(self, sys):
        """Re-check the chain inequality d(f^gap(x_i), x_{i+1}) < delta."""
        pairs = list(zip(self.sources, self.sources[1:]))
        if self.closed:
            pairs.append((self.sources[-1], self.sources[0]))
        return all(
            sys.d(sys.apply(x, self.gap), y) < self.delta for x, y in pairs
        )


@dataclass(frozen=True)
class SpecCertificate:
    """A tracing point for a chain, re-verifiable by orbit evaluation."""

    point: object
    sources: tuple
    gap: int
    epsilon: Fraction
    periodic: bool

    def verify(self, sys):
        k, n = len(self.sources), self.gap
        if self.periodic and sys.apply(self.point, k * n) != self.point:
            return False
        return all(
            sys.d(sys.apply(self.point, i * n + j), sys.apply(self.sources[i], j))
            < self.epsilon
            for i in range(k)
            for j in range(n)
        )


def gap_values(sys, N):
    """All gap lengths n >= N with distinct behavior, as an exact range.

    f^n, the gap graph, and the tracking windows repeat in n beyond
    T + P with period P (T = max preperiod, P = lcm of cycle lengths),
    so [N, max(N+P, T+2P)) exhausts the quantifier.  N must be at
    least 1.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    T, P = sys.max_preperiod, sys.cycle_lcm
    return range(N, max(N + P, T + 2 * P))


def local_weak_spec_holds(sys, epsilon, N, delta, cap=None):
    """Can every segment chain with any gap n >= N be epsilon-traced?

    Returns (bool, info); info always reports the finite range of gaps
    that discharges "n >= N", and on failure carries the offending
    chain as a verified SpecInstance.
    """
    epsilon, delta = as_fraction(epsilon), as_fraction(delta)
    if epsilon <= 0 or delta <= 0 or N < 1:
        raise ValueError("need positive thresholds and N >= 1")
    gaps = gap_values(sys, N)
    cap = subset_cap(cap)
    for n, succ, step, allowed in _gap_structures(sys, gaps, delta, epsilon):
        walk = _die_search(succ, step, allowed, cap)
        if walk is not None:
            chain = SpecInstance(
                sources=tuple(sys.points[i] for i in walk),
                gap=n,
                closed=False,
                delta=delta,
            )
            return False, {"gap_range": gaps, "counterexample": chain}
    return True, {"gap_range": gaps}


def trace_chain(sys, sources, gap, epsilon, periodic=False):
    """Scan all points for a tracer of the given chain, definitionally.

    With periodic=True the tracer must also satisfy f^(k*gap)(x) = x.
    Returns a SpecCertificate or None.
    """
    epsilon = as_fraction(epsilon)
    k = len(sources)
    for z in sys.points:
        if periodic and sys.apply(z, k * gap) != z:
            continue
        cert = SpecCertificate(z, tuple(sources), gap, epsilon, periodic)
        if cert.verify(sys):
            return cert
    return None


def local_spec_holds(sys, epsilon, N, delta, k_bound=6, cap=None):
    """Can every closed chain (x_{k+1} = x_1, k <= k_bound, gap n >= N)
    be epsilon-traced by a point with f^(kn)(x) = x?

    Closed chains are closed walks of the gap graph; rotations and
    repetitions reduce to each other (shift the tracer by f^(rn)), so
    only walks rooted at their least vertex are searched.  The search
    runs breadth-first over (root, vertex, viable periodic tracers)
    states, gap by gap, and the cap counts those states, one counter
    across all gaps; the counterexample is the first untraced closed
    chain in (gap, length, lex) order, which is primitive.  Warns
    BoundTooSmall when the gap graph provably has longer cycles.
    """
    epsilon, delta = as_fraction(epsilon), as_fraction(delta)
    gaps = gap_values(sys, N)
    untraced = _first_untraced_chain(sys, delta, epsilon, gaps, k_bound, cap,
                                     "closed chains at gap {n}", exact=True)
    if untraced is None:
        return True, {"gap_range": gaps}
    n, walk = untraced
    chain = SpecInstance(sources=tuple(sys.points[i] for i in walk), gap=n,
                         closed=True, delta=delta)
    return False, {"gap_range": gaps, "counterexample": chain}


def eta_modulus(sys, delta1, N):
    """Worst N-step spread of a pair closer than delta1:
    max{ d(f^i(u), f^i(v)) : d(u,v) < delta1, 0 <= i <= N }."""
    cutoff = sys.lt_cutoff(as_fraction(delta1))
    rank, fmap = sys.rank, sys.fmap
    worst = 0  # the rank of distance 0
    for a in range(sys.n):
        for b in range(a + 1, sys.n):
            if rank[a][b] >= cutoff:
                continue
            u, v = a, b
            for _ in range(N + 1):
                if rank[u][v] > worst:
                    worst = rank[u][v]
                u, v = fmap[u], fmap[v]
    return sys.distance_values[worst]


@dataclass(frozen=True)
class Blocked:
    """Result of blocking a pseudo-orbit into an N-gapped chain."""

    lasso: Lasso  # the blocked sequence y_i = x_{N*i}, as a lasso
    instance: SpecInstance  # one full stem+cycle window of it
    terms: tuple  # per-seam telescoped step distances


def _block_plain(sys, lasso, N):
    """y_i = x_(N*i) without any threshold bookkeeping."""
    s, c = len(lasso.stem), len(lasso.cycle)
    y_stem = tuple(lasso[N * i] for i in range(-(-s // N)))
    start = len(y_stem)
    y_cycle = tuple(lasso[N * (start + i)] for i in range(c // math.gcd(N, c)))
    return Lasso(stem=y_stem, cycle=y_cycle)


def blockify(sys, lasso, N, delta):
    """Block a pseudo-orbit into the chain y_i = x_{N*i} with gap N.

    Each seam is certified by the telescoping estimate

        d(f^N(y_i), y_{i+1}) <= sum_j d(f^(N-j)(x_{Ni+j}), f^(N-j-1)(x_{Ni+j+1}))

    whose terms are one-step errors pushed through f; the exact sums
    must stay below delta, else ModulusViolation reports the seam.
    """
    if lasso.two_sided:
        raise ValueError("blocking is a forward-time construction")
    if N < 1:
        raise ValueError("need N >= 1")
    delta = as_fraction(delta)
    blocked = _block_plain(sys, lasso, N)
    seams = len(blocked.stem) + len(blocked.cycle)
    all_terms = []
    for i in range(seams):
        terms = []
        for j in range(N):
            u = sys.apply(lasso[N * i + j], N - j)
            v = sys.apply(lasso[N * i + j + 1], N - j - 1)
            terms.append(sys.d(u, v))
        terms = tuple(terms)
        all_terms.append(terms)
        if sum(terms) >= delta:
            raise ModulusViolation(i, terms, delta)
    window = tuple(blocked[i] for i in range(seams + 1))
    instance = SpecInstance(sources=window, gap=N, closed=False, delta=delta)
    return Blocked(blocked, instance, tuple(all_terms))


def spec_to_shadow_point(sys, lasso, N, epsilon, cap=None):
    """Produce an epsilon-shadowing point for a pseudo-orbit by the
    chain route: block at gap N, trace the blocked chain at epsilon/2,
    and let the N-step spread bound close the triangle estimate.

    Requires chain tracing to hold at (epsilon/2, N, delta) for some
    grid delta that also dominates N times the spread of the lasso's
    own error level (ValueError otherwise).  The returned point is
    re-verified against the original lasso before being returned.
    """
    epsilon = as_fraction(epsilon)
    half = epsilon / 2
    grid = threshold_grid(sys)
    err = max(
        (sys.d(sys.apply(x), y) for x, y in lasso.transitions()),
        default=Fraction(0),
    )
    level = next(v for v in grid.values if v > err)  # errors < level exactly
    eta = eta_modulus(sys, level, N)
    candidates = [d for d in grid.positive if d <= half and N * eta < d]
    chosen = None
    for d in sorted(candidates, reverse=True):
        if local_weak_spec_holds(sys, half, N, d, cap)[0]:
            chosen = d
            break
    if chosen is None:
        raise ValueError(
            "no grid delta supports the chain route at these parameters"
        )
    blocked = blockify(sys, lasso, N, chosen)
    y = blocked.lasso
    # trace the infinite blocked chain definitionally: the tracker must
    # stay within epsilon/2 of the n-step burst of every block
    sy, cy = len(y.stem), len(y.cycle)
    for z in sys.points:
        horizon = max(sys.preperiod(sys.index[z]), sy * N) + math.lcm(
            len(sys.cycle(sys.index[z])), cy * N
        )
        if all(
            sys.d(sys.apply(z, i * N + j), sys.apply(y[i], j)) < half
            for i in range(-(-horizon // N))
            for j in range(N)
        ):
            assert shadows(sys, z, lasso, epsilon)
            return z, SpecCertificate(
                z, tuple(y[i] for i in range(sy + cy)), N, half, False
            )
    raise AssertionError(
        "chain tracing held but no tracer was found for the blocked chain"
    )


def modulus_table_for_spec(sys, prop="weak", k_bound=6, cap=None):
    """Best (N, delta) per grid epsilon for chain tracing.

    prop "weak" quantifies over open chains, "full" over closed chains
    with periodic tracers.  Rows hold (N, delta) with the smallest
    workable N in 1, 2, 3 and the largest grid delta at that N, or None.
    """
    if prop == "weak":
        holds = lambda eps, N, d: local_weak_spec_holds(sys, eps, N, d, cap)[0]
    elif prop == "full":
        holds = lambda eps, N, d: local_spec_holds(sys, eps, N, d, k_bound,
                                                   cap)[0]
    else:
        raise ValueError(f"unknown property {prop!r}")
    grid = threshold_grid(sys)

    def best(eps):
        for N in (1, 2, 3):
            delta = _largest_passing(grid.positive, lambda d: holds(eps, N, d))
            if delta is not None:
                return N, delta
        return None

    return _table(grid, f"spec-{prop}", best)


def generalized_spec_checks(sys, variant, lasso=None, N=1, cap=None):
    """Finite-scale forms of the tail-exact and linear-envelope chain
    properties, each reduced through blocking.

    variant "limit": the blocked tail must be an exact orbit segment;
    returns the phase-matched tracer whose errors vanish eventually.
    variant "two-sided": both blocked tails must be exact; searches for
    an orbit matching past and future phases (may legitimately fail).
    variant "lipschitz": fits the linear envelope (L, d0) to the chain
    tracing table at N=1 (no lasso needed).
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if variant == "lipschitz":
        envelope = _linear_envelope(
            threshold_grid(sys),
            lambda d, eps: local_weak_spec_holds(sys, eps, N, d, cap)[0])
        return {"variant": variant, "holds": True, "envelope": envelope}

    if lasso is None:
        raise ValueError(f"variant {variant!r} needs a lasso")
    if variant == "limit":
        # the tracer whose f^N-orbit eventually agrees with the blocked tail
        blocked = _block_plain(sys, lasso, N)
        try:
            _require_exact_cycle(sys, blocked.cycle, "blocked cycle", N)
        except NotDecaying:
            return {"variant": variant, "holds": False, "point": None}
        point = blocked.cycle[(-len(blocked.stem)) % len(blocked.cycle)]
        return {"variant": variant, "holds": True, "point": point}
    if variant == "two-sided":
        point = two_sided_limit_shadowing_check(sys, lasso)
        return {"variant": variant, "holds": point is not None, "point": point}
    raise ValueError(f"unknown variant {variant!r}")


# -- implication chains at matched bounds -------------------------------------


def pairwise_tracing_chain(sys, delta, epsilon, k_bound=6, cap=None):
    """The implication chain

        exact-period tracing  =>  chain tracing at N=1  =>  periodic tracing,

    checked pairwise at equal thresholds and matched bounds.

    Each link holds by definition:

    - exact => chain: a closed chain with gap n unrolls into the
      period-(k*n) sequence of the sources' n-step orbit bursts, and
      both an exact-period tracer of that sequence
      (:func:`~dynlab.shadowing.strong_shadow_point`) and a periodic
      chain tracer (:func:`trace_chain`) are a z with f^(kn)(z) = z and
      d(f^(in+j)(z), f^j(x_i)) < epsilon for i < k, j < n.  So the two
      routes agree ("routes_equal") and no chain is traced;
      "instances_checked" counts the chains the link covers: the
      primitive closed walks of length 1..k_bound rooted at their least
      vertex, over the gap graphs of gap_values(sys, 1).
    - chain => periodic: at gap 1, local_spec_holds at N=1 runs the
      search of strong_periodic_shadowing_holds, and an exact-period
      tracer is a tracer.
    - exact => periodic: the same tracer argument.

    The last two links are still evaluated from the three tracer-set
    searches, so a fault in a search shows as a failed link; only those
    searches count against the cap.  Returns a dict with one entry per
    link plus "holds" for their conjunction.
    """
    delta, epsilon = as_fraction(delta), as_fraction(epsilon)
    checked = 0
    for _, succ, _, _ in _gap_graphs(sys, delta, epsilon, gap_values(sys, 1),
                                     k_bound, "closed chains at gap {n}"):
        checked += sum(_closed_walk_counts(succ, k_bound, primitive=True))
    chain_ok = local_spec_holds(sys, epsilon, 1, delta, k_bound, cap)[0]
    periodic_ok = periodic_shadowing_holds(sys, delta, epsilon, k_bound, cap)[0]
    exact_ok = strong_periodic_shadowing_holds(
        sys, delta, epsilon, k_bound, cap)[0]
    links = {
        "exact_to_chain": {
            "holds": True,
            "routes_equal": True,
            "counterexample": None,
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
    holds = all(row["holds"] for row in links.values())
    return {
        "thresholds": (delta, epsilon),
        "instances_checked": checked,
        "holds": holds,
        **links,
    }


def derived_periodic_shadowing(sys, epsilon, k_bound=6, cap=None):
    """Transfer chain tracing at half quality into periodic tracing.

    Hypothesis search on the grid: the first N in 1, 2, 3 admitting a
    grid delta < epsilon/2 with local_spec_holds at (epsilon/2, N,
    delta), taking the largest such delta; then the largest grid delta1
    whose N-step continuity spread eta = eta_modulus(sys, delta1, N)
    satisfies N*eta < delta (delta1 always exists: eta vanishes below
    the least positive distance).  Blocking a periodic delta1-pseudo-
    orbit by N telescopes every seam to at most N*eta < delta, the
    blocked chain is then traced at epsilon/2 by a point of matching
    power-period, and unblocking costs at most epsilon/2 + N*eta <
    epsilon — so periodic_shadowing_holds, with period bound k_bound,
    must confirm at (delta1, epsilon).  Returns the parameters and the
    confirmation; when no grid parameters fit the hypothesis shape,
    "applicable" is False and nothing is asserted.
    """
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    grid = threshold_grid(sys)
    half = epsilon / 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundTooSmall)
        # top-down: a bisection would decide other cells, which can hit
        # the cap
        chosen = next(((N, delta) for N in (1, 2, 3)
                       for delta in reversed(grid.positive)
                       if delta < half
                       and local_spec_holds(sys, half, N, delta, k_bound,
                                            cap)[0]), None)
        if chosen is None:
            return {"applicable": False, "epsilon": epsilon}
        N, delta = chosen
        # eta only grows with delta1 and is 0 below the least distance
        delta1 = _largest_passing(
            grid.positive, lambda v: N * eta_modulus(sys, v, N) < delta)
        eta = eta_modulus(sys, delta1, N)
        holds, certificate = periodic_shadowing_holds(
            sys, delta1, epsilon, k_bound, cap)
    return {
        "applicable": True,
        "epsilon": epsilon,
        "N": N,
        "delta": delta,
        "eta": eta,
        "delta1": delta1,
        "holds": holds,
        "certificate": certificate,
    }
