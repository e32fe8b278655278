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
from fractions import Fraction

from .core import (Lasso, _Record, _at_least, _closed_walk_counts,
                   _largest_passing, _positive, as_fraction, shadows,
                   threshold_grid)
from .errors import BoundTooSmall, ModulusViolation, NotDecaying
from .shadowing import (
    _die_search,
    _distinct,
    _first_untraced_chain,
    _gap_graphs,
    _gap_structures,
    _linear_envelope,
    _phase_tracer,
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


class SpecInstance(_Record):
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


class SpecCertificate(_Record):
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
    so [N, max(N+P, T+2P)) exhausts the quantifier.  An N below 1 is
    refused here, for every chain question that reads its gaps.
    """
    _at_least(N, 1, "N")
    T, P = sys.max_preperiod, sys.cycle_lcm
    return range(N, max(N + P, T + 2 * P))


def local_weak_spec_holds(sys, epsilon, N, delta, cap=None):
    """Can every segment chain with any gap n >= N be epsilon-traced?

    Returns (bool, info); info always reports the finite range of gaps
    that discharges "n >= N", and on failure carries the offending
    chain as a verified SpecInstance.  Gaps are searched in ascending
    order, each with its own state cap, and a gap whose structure
    repeats one already searched in this call is skipped: its search
    would repeat a passing verdict.
    """
    epsilon, delta = _positive(epsilon, "epsilon"), _positive(delta, "delta")
    gaps = gap_values(sys, N)
    cap = subset_cap(cap)
    for n, succ, step, allowed in _distinct(_gap_structures(sys, gaps, delta,
                                                          epsilon)):
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
    Returns a SpecCertificate or None.  An empty chain, a gap below 1
    and an epsilon that is not positive are refused before the scan.
    """
    k = len(sources)
    _at_least(k, 1, "number of sources")
    _at_least(gap, 1, "gap")
    epsilon = _positive(epsilon, "epsilon")
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
    chain in (gap, length, lex) order, which is primitive.  A gap whose
    structure repeats one already searched in this call is skipped and
    counts nothing.  Warns BoundTooSmall when the gap graph provably
    has longer cycles.
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
    max{ d(f^i(u), f^i(v)) : d(u,v) < delta1, 0 <= i <= N }.  An N
    below 0, whose horizon is empty, is refused."""
    _at_least(N, 0, "N")
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


class Blocked(_Record):
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
    _at_least(N, 1, "N")
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
    own error level (ValueError otherwise).  The blocked chain is traced
    by :func:`~dynlab.core.shadows` on the lasso of its N-step bursts,
    and the returned point is re-verified against the original lasso
    the same way.
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
    y = blockify(sys, lasso, N, chosen).lasso
    # trace the infinite blocked chain definitionally: the tracker must
    # stay within epsilon/2 of the N-step burst of every block, which is
    # to shadow the lasso of bursts
    burst = lambda blocks: tuple(sys.apply(x, j) for x in blocks
                                 for j in range(N))
    bursts = Lasso(stem=burst(y.stem), cycle=burst(y.cycle))
    for z in sys.points:
        if shadows(sys, z, bursts, half):
            assert shadows(sys, z, lasso, epsilon)
            return z, SpecCertificate(z, y.stem + y.cycle, N, half, False)
    raise AssertionError(
        "chain tracing held but no tracer was found for the blocked chain"
    )


def _chain_decider(sys, variant, N=1, k_bound=6, cap=None):
    """The cell predicate holds(delta, eps) of the table "spec-<variant>"
    at the gaps n >= N: "weak" quantifies over open chains, "full" over
    closed chains of length at most k_bound with periodic tracers.  An
    N or a k_bound below 1 is refused here, since the row rule may pass
    every cell undecided (:func:`~dynlab.shadowing._best_delta`)."""
    _at_least(N, 1, "N")
    if variant == "weak":
        return lambda d, eps: local_weak_spec_holds(sys, eps, N, d, cap)[0]
    if variant != "full":
        raise ValueError(f"unknown property {variant!r}")
    _at_least(k_bound, 1, "length bound")
    return lambda d, eps: local_spec_holds(sys, eps, N, d, k_bound, cap)[0]


def modulus_table_for_spec(sys, prop="weak", k_bound=6, cap=None):
    """The table "spec-<prop>": the best delta per grid epsilon for chain
    tracing at N = 1, never None (at the sub-minimal grid delta every
    chain is a true orbit, which traces itself).  Rows are built by
    :func:`~dynlab.shadowing._table`, cells by :func:`_chain_decider`.
    """
    return _table(sys, f"spec-{prop}", _chain_decider(sys, prop, 1, k_bound,
                                                      cap))


def generalized_spec_checks(sys, variant, lasso=None, N=1, cap=None):
    """Finite-scale forms of the tail-exact and linear-envelope chain
    properties, each reduced through blocking.

    variant "limit": the blocked tail must be an exact f^N orbit
    segment; returns the phase-matched tracer whose errors vanish
    eventually ("holds" False, no point, otherwise).
    variant "two-sided": both tails must be exact cycles of f; searches
    for an orbit matching past and future phases (may legitimately
    fail).  Blocking is a forward-time construction, so this variant
    takes only N = 1 (ValueError otherwise).
    variant "lipschitz": fits the linear envelope (L, d0) to the chain
    tracing table over the gaps n >= N (no lasso needed): the rows of
    :func:`~dynlab.shadowing._table` over :func:`_chain_decider` at N.
    """
    _at_least(N, 1, "N")
    if variant == "lipschitz":
        envelope = _linear_envelope(_table(
            sys, "spec-weak", _chain_decider(sys, "weak", N, cap=cap)))
        return {"variant": variant, "holds": True, "envelope": envelope}

    if lasso is None:
        raise ValueError(f"variant {variant!r} needs a lasso")
    if variant == "limit":
        # the tracer whose f^N-orbit eventually agrees with the blocked tail
        try:
            point = _phase_tracer(sys, _block_plain(sys, lasso, N),
                                  "blocked cycle", N)
        except NotDecaying:
            return {"variant": variant, "holds": False, "point": None}
        return {"variant": variant, "holds": True, "point": point}
    if variant == "two-sided":
        if N != 1:
            raise ValueError("the two-sided variant takes N = 1 only: "
                             "blocking is a forward-time construction")
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

    Hypothesis search on the grid, at N = 1: the largest grid delta <
    epsilon/2 with local_spec_holds at (epsilon/2, 1, delta), which
    exists whenever the sub-minimal grid delta is below epsilon/2 (there
    every chain is a true orbit, which traces itself); then the largest
    grid delta1 whose one-step continuity spread eta =
    eta_modulus(sys, delta1, 1) satisfies eta < delta (delta1 always
    exists: eta vanishes below the least positive distance).  A periodic
    delta1-pseudo-orbit is then a closed chain at gap 1 whose seams,
    distances below delta1, are at most eta < delta, so a point of
    matching period traces it at epsilon/2 < epsilon, and
    periodic_shadowing_holds, with period bound k_bound, must confirm at
    (delta1, epsilon).  Returns the parameters and the confirmation
    (N is always 1); when no grid parameters fit the hypothesis shape,
    "applicable" is False and nothing is asserted.
    """
    epsilon = _positive(epsilon, "epsilon")
    _at_least(k_bound, 1, "length bound")
    grid = threshold_grid(sys)
    half = epsilon / 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundTooSmall)
        # top-down: a bisection would decide other cells, which can hit
        # the cap
        delta = next((delta for delta in reversed(grid.positive)
                      if delta < half
                      and local_spec_holds(sys, half, 1, delta, k_bound,
                                           cap)[0]), None)
        if delta is None:
            return {"applicable": False, "epsilon": epsilon}
        # eta only grows with delta1 and is 0 below the least distance
        delta1 = _largest_passing(
            grid.positive, lambda v: eta_modulus(sys, v, 1) < delta)
        eta = eta_modulus(sys, delta1, 1)
        holds, certificate = periodic_shadowing_holds(
            sys, delta1, epsilon, k_bound, cap)
    return {
        "applicable": True,
        "epsilon": epsilon,
        "N": 1,
        "delta": delta,
        "eta": eta,
        "delta1": delta1,
        "holds": holds,
        "certificate": certificate,
    }
