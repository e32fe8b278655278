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
from fractions import Fraction

from .core import (Lasso, _Record, _at_least, _closed_walk_counts,
                   _known_points, _largest_passing, _point_indices,
                   _positive, shadows, threshold_grid)
from .errors import ModulusViolation, NotDecaying, NotInvertible
from .shadowing import (
    _TABLES,
    _decide_cell,
    _decider,
    _gap_structures,
    _linear_envelope,
    _periodic_variant_holds,
    _scan_gap,
    _table,
    gap_values,
)

__all__ = [
    "SpecInstance",
    "SpecCertificate",
    "Blocked",
    "local_weak_spec_holds",
    "local_spec_holds",
    "trace_chain",
    "eta_modulus",
    "blockify",
    "spec_to_shadow_point",
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


def local_weak_spec_holds(sys, epsilon, N, delta, cap=None):
    """Can every segment chain with any gap n >= N be epsilon-traced?

    Returns (bool, info); info always reports the finite range of gaps
    that discharges "n >= N", and on failure carries the offending
    chain as a verified SpecInstance.  Gaps are searched in ascending
    order, each with its own state cap, and a gap whose structure
    repeats one already searched in this call is skipped: its search
    would repeat a passing verdict.
    """
    return _chain_cell(sys, "spec-weak", epsilon, N, delta, 8, cap)


def _chain_cell(sys, prop, epsilon, N, delta, bound, cap):
    """The answer of the chain table ``prop``, "spec-weak" or
    "spec-full", at one cell, by :func:`~dynlab.shadowing._decide_cell`:
    the gap range, and on failure the first failing chain, closed when
    the table's tracer is periodic."""
    delta, _, failing = _decide_cell(sys, prop, delta, epsilon, bound, cap,
                                     N, True)
    info = {"gap_range": gap_values(sys, N)}
    if failing is not None:
        n, walk = failing
        info["counterexample"] = SpecInstance(
            tuple(sys.points[i] for i in walk), n,
            _TABLES[prop][0] is not None, delta)
    return failing is None, info


def trace_chain(sys, sources, gap, epsilon, periodic=False):
    """Scan all points for a tracer of the given chain, definitionally.

    With periodic=True the tracer must also satisfy f^(k*gap)(x) = x.
    Returns a SpecCertificate or None.  An empty chain, a gap below 1,
    an epsilon that is not positive and a source that is not a point of
    the system are refused before the scan.
    """
    k = len(sources)
    _at_least(k, 1, "number of sources")
    _at_least(gap, 1, "gap")
    epsilon = _positive(epsilon, "epsilon")
    _point_indices(sys, sources)
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
    return _chain_cell(sys, "spec-full", epsilon, N, delta, k_bound, cap)


def eta_modulus(sys, delta1, N):
    """Worst N-step spread of a pair closer than delta1:
    max{ d(f^i(u), f^i(v)) : d(u,v) < delta1, 0 <= i <= N }.  An N
    below 0, whose horizon is empty, is refused."""
    _at_least(N, 0, "N")
    cutoff = sys.lt_cutoff(_positive(delta1, "delta1"))
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
    """y_i = x_(N*i) without any threshold bookkeeping; a two-sided
    lasso is refused."""
    if lasso.two_sided:
        raise ValueError("blocking is a forward-time construction")
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
    _at_least(N, 1, "N")
    delta = _positive(delta, "delta")
    _known_points(sys, lasso)
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
    epsilon = _positive(epsilon, "epsilon")
    _known_points(sys, lasso)
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


def _require_exact_cycle(sys, cycle, what, power=1):
    """NotDecaying unless f^power maps each cycle entry to the next."""
    name = "f" if power == 1 else f"f^{power}"
    for j, x in enumerate(cycle):
        nxt, image = cycle[(j + 1) % len(cycle)], sys.apply(x, power)
        if image != nxt:
            raise NotDecaying(
                f"{what} step {j}: {name}({x!r}) = {image!r} != {nxt!r}")


def generalized_spec_checks(sys, variant, lasso=None, N=1, cap=None):
    """Finite-scale forms of the tail-exact and linear-envelope chain
    properties, each reduced through blocking.

    variant "limit": the blocked tail must be an exact f^N orbit
    segment; returns the phase-matched tracer whose errors vanish
    eventually ("holds" False, no point, otherwise); a two-sided lasso
    is refused, as blocking is a forward-time construction.
    variant "two-sided" (two-sided limit shadowing): a point whose
    orbit runs along the past cycle before index 0 and along the
    future cycle after the stem.  It needs an invertible system
    (NotInvertible), a two-sided lasso, and past and future cycles
    that are exact cycles of f (NotDecaying, the future cycle first).
    On a bijection every orbit is one cycle, so the one point whose
    backward orbit is the exact past cycle is z = past[0] = f(past[-1]),
    and it traces the future iff f^s(z) = cycle[0], s the stem's
    length: the point is z, or None when past and future cannot be
    joined.
    Blocking is a forward-time construction, so this variant takes
    only N = 1 (ValueError otherwise).
    variant "lipschitz": fits the linear envelope (L, d0) to the chain
    tracing table over the gaps n >= N (no lasso needed): the rows of
    :func:`~dynlab.shadowing._table` over the "spec-weak" cells of
    :func:`~dynlab.shadowing._decider` at N.
    """
    _at_least(N, 1, "N")
    if variant == "lipschitz":
        envelope = _linear_envelope(_table(
            sys, "spec-weak", _decider(sys, "spec-weak", 8, cap, N)))
        return {"variant": variant, "holds": True, "envelope": envelope}

    if lasso is None:
        raise ValueError(f"variant {variant!r} needs a lasso")
    _known_points(sys, lasso)
    if variant == "limit":
        # the tracer whose f^N-orbit eventually agrees with the blocked
        # tail: the cycle entry that runs along it from index 0 on, once
        # the stem is past
        blocked = _block_plain(sys, lasso, N)
        try:
            _require_exact_cycle(sys, blocked.cycle, "blocked cycle", N)
        except NotDecaying:
            return {"variant": variant, "holds": False, "point": None}
        point = blocked.cycle[-len(blocked.stem) % len(blocked.cycle)]
        return {"variant": variant, "holds": True, "point": point}
    if variant == "two-sided":
        if N != 1:
            raise ValueError("the two-sided variant takes N = 1 only: "
                             "blocking is a forward-time construction")
        if not sys.invertible:
            raise NotInvertible(
                "two-sided limit tracing needs an invertible system")
        if not lasso.two_sided:
            raise ValueError("two-sided lasso expected")
        _require_exact_cycle(sys, lasso.cycle, "future cycle")
        _require_exact_cycle(sys, lasso.past, "past cycle")
        point = lasso.past[0]
        if sys.apply(point, len(lasso.stem)) != lasso.cycle[0]:
            point = None
        return {"variant": variant, "holds": point is not None, "point": point}
    raise ValueError(f"unknown variant {variant!r}")


# -- implication chains at matched bounds -------------------------------------


def pairwise_tracing_chain(sys, delta, epsilon, k_bound=6, cap=None):
    """The implication chain

        exact-period tracing  =>  chain tracing at N=1  =>  periodic tracing,

    checked pairwise at equal thresholds and matched bounds.

    Each link holds by definition:

    - exact => chain: a closed chain with gap n unrolls into the
      period-(k*n) sequence of the sources' n-step orbit bursts, and an
      exact-period tracer of that sequence is a z with f^(kn)(z) = z and
      d(f^(in+j)(z), f^j(x_i)) < epsilon for i < k, j < n: that is the
      periodic chain tracer of :func:`trace_chain`, and at gap 1 the
      unrolled sequence is the chain itself.  So the two routes are one
      ("routes_equal") and no chain is traced;
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
    _decider(sys, "spec-full", k_bound, cap)  # refuses before any warning
    delta, epsilon = _positive(delta, "delta"), _positive(epsilon, "epsilon")
    d_cut = sys.lt_cutoff(delta)
    checked = 0
    for n, succ, _, _ in _gap_structures(sys, gap_values(sys, 1), d_cut,
                                         sys.lt_cutoff(epsilon)):
        _scan_gap(sys, d_cut, n, succ, k_bound, _TABLES["spec-full"][2])
        # a count of graph structure, not a verdict: kept in the memo
        checked += sys._memoized(
            ("chain counts", d_cut, n, k_bound),
            lambda: sum(_closed_walk_counts(succ, k_bound, True)))
    cell = (delta, epsilon, k_bound, cap, 1, True)
    chain_ok = _decide_cell(sys, "spec-full", *cell)[2] is None
    periodic_ok = _decide_cell(sys, "periodic", *cell)[2] is None
    exact_ok = _decide_cell(sys, "strong-periodic", *cell)[2] is None
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

    The delta scan asks the cell search of the "spec-full" table
    (:func:`~dynlab.shadowing._decider`, which refuses a k_bound below
    1), and the confirmation runs the search of
    periodic_shadowing_holds and builds its certificate.  The answer is
    a transfer of thresholds, so, as in the tables, no gap graph is
    scanned for BoundTooSmall and nothing warns.
    """
    spec = _decider(sys, "spec-full", k_bound, cap)
    epsilon = _positive(epsilon, "epsilon")
    grid = threshold_grid(sys)
    half = epsilon / 2
    h_cut = sys.lt_cutoff(half)
    # top-down: a bisection would decide other cells, which can hit the cap
    delta = next((delta for delta in reversed(grid.positive)
                  if delta < half
                  and spec(sys.lt_cutoff(delta), h_cut) is None),
                 None)
    if delta is None:
        return {"applicable": False, "epsilon": epsilon}
    # eta only grows with delta1 and is 0 below the least distance
    delta1 = _largest_passing(
        grid.positive, lambda v: eta_modulus(sys, v, 1) < delta)
    eta = eta_modulus(sys, delta1, 1)
    holds, certificate = _periodic_variant_holds(sys, delta1, epsilon, k_bound,
                                                 "periodic", cap, False)
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
