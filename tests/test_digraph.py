"""The private digraph and primality helpers against definitional routes.

Strong components are compared with mutual reachability, closed-walk
counts with traces of dense matrix powers, primitive least-rooted counts
with a walk listing, and trial division with a sieve.  A fresh
interpreter also checks that ``import dynlab`` loads nothing outside
the standard library.
"""

import json
import math
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import dynlab
from dynlab.core import _closed_walk_counts, _strong_components
from dynlab.gallery import _is_prime

from oracles import (
    _closed_walks_of_graph,
    dense_closed_walk_counts,
    mutual_reachability_classes,
    sieve_primes,
)

# successor lists on 1..9 vertices; repeated successors are one edge
digraphs = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=2 * n), min_size=n, max_size=n))

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
@given(digraphs, st.integers(1, 7))
def test_closed_walk_counts_are_traces_of_matrix_powers(succ, m):
    assert _closed_walk_counts(succ, m) == dense_closed_walk_counts(succ, m)


@untimed
@given(digraphs.filter(lambda succ: len(succ) <= 7), st.integers(1, 6))
def test_primitive_counts_match_the_least_rooted_listing(succ, m):
    succ = [sorted(set(out)) for out in succ]
    listed = [len(_closed_walks_of_graph(succ, k, math.inf, [0]))
              for k in range(1, m + 1)]
    assert _closed_walk_counts(succ, m, primitive=True) == listed


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
