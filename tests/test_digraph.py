"""The private digraph and primality helpers against definitional routes.

Strong components are compared with mutual reachability and trial
division with a sieve.  Closed walks are counted by
``core._closed_walk_counts``, which reads a map (no vertex with two
successors) off its cycles and pushes the walk counts of all starts of
any other digraph at once in packed integer fields, one field per
start; before the push, trace counts merge twins (vertices with equal
successor rows) round after round (``core._twin_quotient``).  Its
counts, on relations, on digraphs with planted twins and on partial
maps, are compared with traces of dense matrix powers
(``oracles.dense_closed_walk_counts``), with the earlier one-start dict
push (``oracles.pushed_closed_walk_counts``) in both modes, and, for
the primitive least-rooted counts, with a walk listing
(``oracles._closed_walks_of_graph``).  Closed forms catch a map count
that adds one per cycle instead of its points, and a relation whose
walk count sets the field width exactly (a looped vertex with an edge
into another: at length 12 its 12 walks from the first to the second
fill a field that the 14 walks in all make 4 bits wide) fails when the
field is one bit narrower, as that entry then carries into the next
field; that relation is twin-free, so it is pushed as given.  Quotient
rows that keep one edge per class, not one per member, fail the count
of a -> c, b -> c, c -> {a, b} (4 closed walks of length 2, not 2),
and the quotient sizes of two window relations are pinned.  A
1,000-point cycle is counted without packed fields, within a
memory bound that one list of them would exceed.
``battery.periodic_spectrum`` reads a map's counts off the system's
cached cycles instead; they are compared with the same dense traces on
the map systems of the gallery and a seeded corpus.  A fresh interpreter
also checks that ``import dynlab`` loads nothing outside the standard
library.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc

from hypothesis import given, settings, strategies as st

import dynlab
from dynlab.battery import periodic_spectrum
from dynlab.core import (_closed_walk_counts, _strong_components,
                         _twin_quotient)
from dynlab.gallery import _is_prime, build_product_truncation, build_xpq
from dynlab.symbolic import Sft, periodic_point_count, window_system

from helpers import (cycle_system, gallery_corpus, myex_system, seeded_corpus,
                     stem_into_cycle)
from oracles import (
    _closed_walks_of_graph,
    dense_closed_walk_counts,
    mutual_reachability_classes,
    pushed_closed_walk_counts,
    sieve_primes,
)

# successor lists on 1..9 vertices; repeated successors are one edge
digraphs = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=2 * n), min_size=n, max_size=n))

# partial maps on 1..9 vertices: each row is empty, one successor or
# that successor repeated (one edge); a row may be a self-loop
maps = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.integers(0, n - 1).flatmap(
        lambda w: st.sampled_from([[], [w], [w, w]])),
    min_size=n, max_size=n))

# digraphs on 1..9 vertices whose rows are drawn from a pool of at most
# four rows, so most have twins; a pooled row may be empty, repeat a
# successor or hold a self-loop
twinned = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n),
             min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=n, max_size=n))).map(
        lambda drawn: [list(drawn[0][i % len(drawn[0])]) for i in drawn[1]])

# the properties are exact, so a slow host must not fail them on time
untimed = settings(deadline=None)


@untimed
@given(digraphs)
def test_strong_components_are_mutual_reachability_classes(succ):
    comps = _strong_components(succ)
    assert sorted(v for comp in comps for v in comp) == list(range(len(succ)))
    assert {frozenset(comp) for comp in comps} == (
        mutual_reachability_classes(succ))


@untimed
@given(digraphs)
def test_strong_components_of_a_dict_graph(succ):
    # the same graph on non-contiguous labels, given as a dict
    label = {v: 10 * v + 3 for v in range(len(succ))}
    relabeled = {label[v]: [label[w] for w in out]
                 for v, out in enumerate(succ)}
    comps = {frozenset(comp) for comp in _strong_components(relabeled)}
    assert comps == {frozenset(label[v] for v in cls)
                     for cls in mutual_reachability_classes(succ)}


def test_strong_components_on_long_paths_and_cycles():
    n = 5000  # far deeper than the recursion limit
    path = [[v + 1] for v in range(n - 1)] + [[]]
    assert len(_strong_components(path)) == n
    cycle = [[(v + 1) % n] for v in range(n)]
    assert len(_strong_components(cycle)) == 1


@untimed
@given(digraphs, st.integers(1, 12))
def test_closed_walk_counts_are_traces_of_matrix_powers(succ, m):
    assert _closed_walk_counts(succ, m) == dense_closed_walk_counts(succ, m)


@untimed
@given(digraphs, st.integers(1, 12), st.booleans())
def test_closed_walk_counts_match_the_one_start_push(succ, m, primitive):
    assert _closed_walk_counts(succ, m, primitive) == (
        pushed_closed_walk_counts(succ, m, primitive))


@untimed
@given(maps, st.integers(1, 20), st.booleans())
def test_closed_walk_counts_of_partial_maps_match_the_references(
        succ, m, primitive):
    counts = _closed_walk_counts(succ, m, primitive)
    assert counts == pushed_closed_walk_counts(succ, m, primitive)
    if not primitive:
        assert counts == dense_closed_walk_counts(succ, m)


@untimed
@given(twinned, st.integers(1, 12))
def test_closed_walk_counts_of_planted_twins_match_the_references(succ, m):
    counts = _closed_walk_counts(succ, m)
    assert counts == dense_closed_walk_counts(succ, m)
    assert counts == pushed_closed_walk_counts(succ, m)


def check_twin_quotients():
    # a and b are twins; their class is reached from c through both, so
    # c's quotient row keeps two edges into it: 4 closed walks of length
    # 2 (a c a, b c b, c a c, c b c), none of odd length
    assert _closed_walk_counts([[2], [2], [0, 1]], 6) == [0, 4, 0, 8, 0, 16]
    # twins of the second round: c and d merge first, then a and b
    succ = [[2], [3], [4], [4], [0, 1, 4]]
    assert len(_twin_quotient(list(map(frozenset, succ)))) == 3
    assert _closed_walk_counts(succ, 12) == dense_closed_walk_counts(succ, 12)


def test_twins_merge_with_one_edge_per_member():
    check_twin_quotients()


def test_window_relations_merge_to_their_quotient_sizes():
    # a window system is a higher-block model of a shift of finite type,
    # so most of its points are twins
    for window, points, quotient in (
            (window_system(build_product_truncation((2, 3, 5), 2), 1),
             70, 15),
            (window_system(build_xpq(3, 2), 2), 12, 3)):
        rows = list(map(frozenset, window.relation))
        assert (window.n, len(_twin_quotient(rows))) == (points, quotient)
    # a twin-free digraph comes back as given
    rows = list(map(frozenset, [[0, 1], [1], [0, 2]]))
    assert _twin_quotient(rows) is rows


def test_a_long_cycle_is_counted_without_packed_fields():
    # packed fields would give each of the 1,000 vertices one int of
    # 1,000 10-bit fields: 1.25 MB for one list of them alone
    n, m = 1000, 512
    cycle = [[(v + 1) % n] for v in range(n)]
    tracemalloc.start()
    try:
        counts = _closed_walk_counts(cycle, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [0] * m
    assert peak < 1_000_000


def check_primitive_counts(succ, m):
    succ = [sorted(set(out)) for out in succ]
    listed = [len(_closed_walks_of_graph(succ, k, math.inf, [0]))
              for k in range(1, m + 1)]
    assert _closed_walk_counts(succ, m, primitive=True) == listed


@untimed
@given(digraphs.filter(lambda succ: len(succ) <= 7), st.integers(1, 6))
def test_primitive_counts_match_the_least_rooted_listing(succ, m):
    check_primitive_counts(succ, m)


def check_primitive_listing():
    # the full 2-shift: a walk rooted at 1 that dips to 0 is not counted
    check_primitive_counts([[0, 1], [0, 1]], 6)
    check_primitive_counts([[1], [0, 2], [1, 2]], 6)


def test_primitive_counts_on_small_shifts():
    check_primitive_listing()


def check_closed_forms():
    # one walk of each length from every vertex of a cycle or a loop
    for p in range(2, 10):
        cycle = [[(v + 1) % p] for v in range(p)]
        assert _closed_walk_counts(cycle, 12) == [
            p if k % p == 0 else 0 for k in range(1, 13)]
    assert _closed_walk_counts([[0]], 12) == [1] * 12
    # a relation: a looped vertex with an edge into another looped one,
    # 2 closed walks of each length; at length 12 the 12 walks from the
    # first to the second fill their field, whose width the 14 walks in
    # all set exactly
    assert _closed_walk_counts([[0, 1], [1]], 12) == [2] * 12
    # a relation: the complete digraph with loops, n^k closed walks
    for n in range(1, 5):
        complete = [list(range(n)) * 2 for _ in range(n)]
        assert _closed_walk_counts(complete, 12) == [
            n ** k for k in range(1, 13)]


def test_closed_walk_counts_of_cycles_loops_and_complete_digraphs():
    check_closed_forms()
    # a shift built with no letters has no closed walks
    assert periodic_point_count(Sft((), frozenset()), 3) == 0


def check_map_spectra():
    # a map's period-k points are the periodic z whose cycle length
    # divides k
    systems = [cycle_system(7), stem_into_cycle(), myex_system(5, 3),
               *seeded_corpus(9, 8)]
    for sys_ in systems:
        lengths = [len(sys_.cycle(z)) for z in sys_.periodic_indices()]
        assert periodic_spectrum(sys_, 12) == {
            str(k): sum(k % c == 0 for c in lengths) for k in range(1, 13)}


def test_periodic_spectrum_of_maps_counts_periodic_points():
    check_map_spectra()


def test_map_spectra_are_traces_of_matrix_powers():
    # read off the cached cycles, as relation systems are pushed
    maps = [sys_ for sys_ in [*gallery_corpus(), *seeded_corpus(30, 9)]
            if sys_.relation is None]
    assert len(maps) == 37
    for sys_ in maps:
        succ = [[j] for j in sys_.fmap]
        assert list(periodic_spectrum(sys_, 12).values()) == (
            dense_closed_walk_counts(succ, 12))


def test_is_prime_matches_a_sieve():
    primes = sieve_primes(2001)
    assert [v for v in range(-5, 2001) if _is_prime(v)] == sorted(primes)


def test_import_loads_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(dynlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import dynlab\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(new)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    loaded = json.loads(out.stdout)
    foreign = [m for m in loaded
               if m != "dynlab" and m not in sys.stdlib_module_names]
    assert foreign == []
