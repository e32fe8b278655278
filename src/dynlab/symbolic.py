"""Edge shifts of finite type and their finite window approximations.

A shift of finite type (SFT) is presented by a directed graph on a
finite alphabet of vertices; its points are bi-infinite vertex walks.
Eventually periodic walks have exact finite presentations (the same
lasso idea as :mod:`dynlab.core`), and the dyadic shift metric
2^(-first disagreement) is an exact rational, so everything here is
decidable without rounding.

A *window system* replaces the shift by a finite metric system on the
allowed words of length 2w+1: the metric is the shift metric truncated
at radius w, the map is the left shift with the new rightmost letter
chosen by a canonical (lexicographically least) successor rule, and
the full multivalued extension structure is kept as the system's
``relation`` so that coarse structure (periods, mixing) is not an
artifact of the collapse.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .core import (_DIGIT_BOUND, _MAX_POINTS, Lasso, _Record, _assemble,
                   _at_least, _check_budget, _check_size, _closed_walk_counts,
                   _image)
from .errors import EmptyShift, HorizonExceeded

__all__ = [
    "Sft",
    "SymbolicPoint",
    "build_sft",
    "shift_distance",
    "periodic_points",
    "periodic_point_count",
    "window_system",
    "product_system",
]


class Sft(_Record):
    """An edge shift: vertices ``alphabet`` and allowed transitions ``edges``."""

    alphabet: tuple
    edges: frozenset

    @functools.cached_property
    def _successors(self):
        """Each letter's successors in sorted order, built once per shift."""
        succ = {a: [] for a in self.alphabet}
        for a, b in self.edges:
            succ.setdefault(a, []).append(b)
        return {a: tuple(sorted(out)) for a, out in succ.items()}

    def successors(self, a):
        return self._successors.get(a, ())

    def allows(self, a, b):
        return (a, b) in self.edges

    def point(self, stem=(), cycle=(), past_cycle=None):
        """A :class:`SymbolicPoint` after checking every transition is allowed."""
        pt = SymbolicPoint(tuple(stem), tuple(cycle),
                           None if past_cycle is None else tuple(past_cycle))
        for a, b in pt.transition_pairs():
            if not self.allows(a, b):
                raise ValueError(f"forbidden transition {a!r} -> {b!r}")
        return pt


def _rotation_period(word):
    """Least d dividing len(word) with the cyclic word invariant under
    d-rotation; the word is not empty, so d = len(word) qualifies."""
    n = len(word)
    return next(d for d in range(1, n + 1)
                if n % d == 0 and word == word[d:] + word[:d])


class SymbolicPoint(Lasso):
    """A bi-infinite, eventually periodic sequence of letters: the
    canonical two-sided :class:`~dynlab.core.Lasso`.

    Stored canonically: the forward tail as the shortest stem plus a
    primitive cycle, the past (``past_cycle``, always stored) as a
    primitive cycle anchored so that index -1 is its last letter; the
    past defaults to the given cycle as passed in.  Two presentations of
    the same sequence compare (and hash) equal.
    """

    def __init__(self, stem, cycle, past_cycle=None):
        if not cycle:
            raise ValueError("cycle must be non-empty")
        past = tuple(cycle) if past_cycle is None else tuple(past_cycle)
        if not past:
            raise ValueError("past cycle must be non-empty")
        stem, cycle = tuple(stem), tuple(cycle)
        # Canonical forward form: a cyclic word invariant under rotation by d
        # is d-periodic, so the forward tail's least period is the least such
        # d; anchoring at the same phase keeps the denoted sequence intact.
        cycle = cycle[: _rotation_period(cycle)]
        # Absorb stem letters that already match the tail (minimal stem).
        while stem and stem[-1] == cycle[-1]:
            stem = stem[:-1]
            cycle = cycle[-1:] + cycle[:-1]
        # Canonical past: same reduction; the anchor (index -1 = last letter)
        # is preserved because a rotation-invariant word is periodic in phase.
        Lasso.__init__(self, stem, cycle, True,
                       past[: _rotation_period(past)])

    def __hash__(self):
        return hash((self.stem, self.cycle, self.past))

    def transition_pairs(self):
        """Every adjacent letter pair the sequence realises (finite cover)."""
        return set(self.transitions())

    def __repr__(self):
        past = "".join(map(str, self.past))
        stem = "".join(map(str, self.stem))
        cyc = "".join(map(str, self.cycle))
        return f"<..{past}|{stem}({cyc})..>"


def build_sft(alphabet, edges):
    """Assemble an :class:`Sft`, pruning stranded vertices.

    Vertices without outgoing or without incoming edges carry no
    bi-infinite walk and are removed (repeatedly, until stable).

    Raises
    ------
    EmptyShift
        If pruning eats the whole graph.
    """
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


def shift_distance(x, y, cap=None):
    """Dyadic distance 2^(-k) between symbolic points, k = first disagreement.

    Equality is certified exactly from the periodic structure (no cap
    involved); for distinct points the scan stops at the first index
    where they differ.  If that index lies beyond ``cap`` the function
    refuses to answer and raises :class:`HorizonExceeded`.
    """
    if x == y:
        return Fraction(0)
    forward = max(len(x.stem), len(y.stem)) + math.lcm(len(x.cycle), len(y.cycle))
    backward = math.lcm(len(x.past), len(y.past))
    radius = max(forward, backward)
    for k in range(radius + 1):
        if x[k] != y[k] or (k > 0 and x[-k] != y[-k]):
            if cap is not None and k > cap:
                raise HorizonExceeded(f"first disagreement at |i|={k} > cap={cap}")
            return Fraction(1, 2 ** k)
    raise AssertionError("distinct points must disagree within the joint period")


def _closed_walks(sft, length):
    """All closed vertex walks (v_0, ..., v_{length-1}) with every step allowed."""
    return [word for word in _allowed_words(sft, length)
            if sft.allows(word[-1], word[0])]


def periodic_points(sft, period):
    """All points fixed by the ``period``-th power of the shift.

    These are exactly the closed walks of length ``period`` (one point
    per based walk — a rotation is a different point).  The count
    equals the trace of the ``period``-th power of the adjacency
    matrix; see :func:`periodic_point_count`.
    """
    _at_least(period, 1, "period")
    pts = {SymbolicPoint((), walk) for walk in _closed_walks(sft, period)}
    return tuple(sorted(pts, key=lambda p: (len(p.cycle), p.cycle)))


def periodic_point_count(sft, period):
    """trace(A^period) with exact integer arithmetic: the number of closed
    walks of length ``period`` in the transition graph."""
    _at_least(period, 1, "period")
    pos = {a: i for i, a in enumerate(sft.alphabet)}
    succ = [[pos[b] for b in sft.successors(a)] for a in sft.alphabet]
    return _closed_walk_counts(succ, period)[-1]


def _allowed_words(sft, length):
    """All allowed words of the given length, in lexicographic order."""
    succ = sft._successors
    words = [(a,) for a in sorted(sft.alphabet)]
    for _ in range(length - 1):
        words = [word + (b,) for word in words for b in succ[word[-1]]]
    return words


def _word_count(sft, length, cap):
    """The number of allowed words of the given length, or ``cap`` when
    there are at least that many, listing none: the count of words
    ending in each letter is pushed one letter at a time and clamped at
    ``cap``, which changes no count below ``cap``."""
    succ = sft._successors
    ends = dict.fromkeys(sft.alphabet, 1)
    for _ in range(length - 1):
        nxt = dict.fromkeys(sft.alphabet, 0)
        for a, count in ends.items():
            for b in succ[a]:
                nxt[b] += count
        nxt = {b: min(count, cap) for b, count in nxt.items()}
        if nxt == ends:  # every later layer is this one
            break
        ends = nxt
    return min(sum(ends.values()), cap)


def _differ_at_radius(sft, w):
    """Whether two allowed words of length 2w + 1 first differ at
    radius w, listing none: whether some allowed block of 2w - 1 letters
    from x to y has more than one extension a + block + b, that is
    |pred(x)| |succ(y)| >= 2.  The letters each x reaches in 2w - 2
    steps are pushed as bitmasks."""
    pos = {a: i for i, a in enumerate(sft.alphabet)}
    succ = [sft.successors(a) for a in sft.alphabet]
    rows = [sum(1 << pos[b] for b in out) for out in succ]
    preds = [0] * len(rows)
    for out in succ:
        for b in out:
            preds[pos[b]] += 1
    reach = [1 << x for x in range(len(rows))]
    for _ in range(2 * w - 2):
        reach = [_image(r, rows) for r in reach]
    return any(preds[x] * len(succ[y]) >= 2
               for x, r in enumerate(reach) for y in range(len(rows))
               if r >> y & 1)


def window_system(sft, w):
    """Finite metric system on the allowed words of length 2w+1.

    The distance between distinct words u, v is 2^(-k) where k <= w is
    the least |i| with u_i != v_i (positions indexed -w..w); the least
    positive value is therefore 2^(-w).  The map shifts left and fills
    the new rightmost letter with the least allowed successor; all
    allowed fillings are recorded in the system's ``relation``.

    Raises ValueError, before listing any word, when there are more
    than 1000 words, or when two words first differ at radius w and
    n^3 (w + 1) exceeds the metric-check budget: no such table passes
    it.
    """
    _at_least(w, 1, "window radius")
    n = _word_count(sft, 2 * w + 1, _MAX_POINTS + 1)
    _check_size(n, f"window radius {w}")
    # after _assemble divides out the common power of two, the widest
    # entry is 2^kmax over 2^kmax, kmax the largest radius at which two
    # words first differ: w + 1 bits when kmax = w (past radius 14,284,
    # at most 1000 words come from cycles of length <= 1000: kmax < 1000)
    if w < _DIGIT_BOUND.bit_length() and _differ_at_radius(sft, w):
        _check_budget(n, w + 1)
    words = _allowed_words(sft, 2 * w + 1)
    if not words:
        raise EmptyShift("no allowed words at this window size")
    ids = [",".join(map(str, word)) for word in words]
    pos = {word: k for k, word in enumerate(words)}

    # distances over 2^w: 2^(-k) is 1 << (w - k).  Words that share
    # their central block of radius r - 1 first differ at radius r or
    # later, so for r = 1..w each group of them is set to 1 << (w - r);
    # distinct words differ within radius w
    n = len(words)
    dist = [[1 << w] * n for _ in range(n)]
    for r in range(1, w + 1):
        groups = {}
        for i, word in enumerate(words):
            groups.setdefault(word[w - r + 1:w + r], []).append(i)
        value = 1 << (w - r)
        for group in groups.values():
            for i in group:
                row = dist[i]
                for j in group:
                    row[j] = value
    for i in range(n):
        dist[i][i] = 0

    fmap, relation = [], []
    for word in words:
        images = [word[1:] + (b,) for b in sft._successors[word[-1]]]
        images = [im for im in images if im in pos]
        # pruning keeps every follower of an allowed word allowed
        assert images, "an allowed word must have an allowed shift"
        relation.append(tuple(ids[pos[im]] for im in images))
        fmap.append(min(ids[pos[im]] for im in images))

    return _assemble(ids, dist, 1 << w, fmap, None, relation)


def product_system(sfts):
    """Componentwise product of finitely many edge shifts.

    Letters of the product are tuples rendered as "a|b|...", and a
    transition is allowed iff it is allowed in every coordinate.
    """
    sfts = list(sfts)
    if not sfts:
        raise ValueError("need at least one factor")
    alphabet = ["|".join(map(str, combo))
                for combo in itertools.product(*(s.alphabet for s in sfts))]
    # one edge from each factor makes one edge of the product
    edges = set()
    for combo in itertools.product(*(s.edges for s in sfts)):
        tails, heads = zip(*combo)
        edges.add(("|".join(map(str, tails)), "|".join(map(str, heads))))
    return build_sft(alphabet, edges)
