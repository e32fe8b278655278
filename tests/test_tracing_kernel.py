"""The bitmask tracing kernel against the frozenset kernel it replaced.

``_gap_structures`` carries the n-step map and the tracking windows
forward along a gap range; every gap it yields must match the
per-gap rebuild (``windows_reference``, ``FiniteSystem.power`` and the
gap graph of ``gap_structures_reference``).  ``_die_search`` on
bitmasks must return the same walks and the same cap hits as the
frozenset search (``die_search_reference``).
"""

from hypothesis import given, settings, strategies as st

from dynlab.core import threshold_grid
from dynlab.errors import StateExplosion
from dynlab.gallery import build_random_system
from dynlab.shadowing import _die_search, _gap_structures, _image
from dynlab.specification import gap_values

from oracles import (die_search_reference, gap_structures_reference,
                     windows_reference)

# the properties are exact, so a slow host must not fail them on time
untimed = settings(deadline=None)


def as_set(mask):
    return frozenset(z for z in range(mask.bit_length()) if mask >> z & 1)


def search_outcome(search, *args):
    """The walk a die search returns, or its cap hit."""
    try:
        return search(*args)
    except StateExplosion as exc:
        return ("cap hit", exc.visited, exc.cap, exc.frontier_sample)


@st.composite
def kernel_cells(draw):
    """A seeded system of 1..7 points, grid thresholds and a least gap."""
    sys = build_random_system(draw(st.integers(0, 10 ** 6)),
                              draw(st.integers(1, 7)), draw(st.booleans()))
    grid = threshold_grid(sys).positive
    return (sys, draw(st.sampled_from(grid)), draw(st.sampled_from(grid)),
            draw(st.integers(1, 3)))


@untimed
@given(kernel_cells())
def test_carried_gap_structures_match_a_rebuild_per_gap(cell):
    sys, delta, epsilon, N = cell
    gaps = gap_values(sys, N)
    yielded = list(_gap_structures(sys, gaps, delta, epsilon))
    assert [n for n, _, _, _ in yielded] == list(gaps)
    for n, succ, step, allowed in yielded:
        assert step == tuple(sys.power(i, n) for i in range(sys.n))
        assert tuple(map(as_set, allowed)) == windows_reference(sys, n, epsilon)
        ref_succ, ref_step, ref_allowed = gap_structures_reference(
            sys, n, delta, epsilon)
        assert (succ, list(step)) == (ref_succ, ref_step)
        assert tuple(map(as_set, allowed)) == ref_allowed
        for w, window in zip(allowed, ref_allowed):
            assert as_set(_image(w, step)) == {step[z] for z in window}


@untimed
@given(kernel_cells())
def test_die_search_matches_the_frozenset_search(cell):
    sys, delta, epsilon, N = cell
    for n, succ, step, allowed in _gap_structures(sys, gap_values(sys, N),
                                                  delta, epsilon):
        sets = tuple(map(as_set, allowed))
        for cap in (None, 3, 20):
            bound = 2 ** 20 if cap is None else cap
            assert (search_outcome(_die_search, succ, step, allowed, bound)
                    == search_outcome(die_search_reference, succ, step, sets,
                                      bound)), (n, cap)
