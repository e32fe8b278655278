"""The bitmask tracing kernel against the frozenset kernel it replaced.

``_gap_structures`` carries the n-step map and the tracking windows
forward along a gap range; every gap it yields must match the
per-gap rebuild (``windows_reference``, ``FiniteSystem.power`` and the
gap graph of ``gap_structures_reference``), on a fresh system and on
one whose memo earlier calls have filled.  ``_tracer_masks``, which
pushes the fibres of the n-step map, must give the masks of one bit
test per periodic point (``tracer_masks_reference``), and
``_closures``, which reads the step^k orbits and the exact-period hits
of the closed-chain search off the cycles, the orbits walked k steps
per hop (``orbit_masks_reference``).  ``_die_search``
on bitmasks must return the same walks and the same cap hits as the frozenset
search (``die_search_reference``).  A system whose memo a battery has
filled must answer as a freshly built one.  ``tests/test_mutations.py``
plants faults under ``check_gap_structures``.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from dynlab import shadowing, specification
from dynlab.battery import run_theorem_battery
from dynlab.core import _image, build_finite_system, threshold_grid
from dynlab.errors import StateExplosion
from dynlab.expansive import stable_sets
from dynlab.gallery import build_random_system
from dynlab.shadowing import (_die_search, _gap_structures,
                              periodic_shadowing_holds,
                              strong_periodic_shadowing_holds)
from dynlab.specification import (gap_values, local_spec_holds,
                                  local_weak_spec_holds,
                                  pairwise_tracing_chain)

from oracles import (die_search_reference, gap_structures_reference,
                     local_spec_reference, orbit_masks_reference,
                     periodic_variant_reference, stable_sets_reference,
                     threshold_grid_reference, tracer_masks_reference,
                     windows_reference)
from helpers import gallery_corpus, random_metric, seeded_corpus
from test_closed_chains import outcome
from test_recurrence_kernel import check_chain_graphs, check_nonwandering

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


# the arguments of a seeded system of 1..7 points
system_params = st.tuples(st.integers(0, 10 ** 6), st.integers(1, 7),
                          st.booleans())


@st.composite
def kernel_cells(draw):
    """A seeded system of 1..7 points, grid thresholds and a least gap."""
    sys = build_random_system(*draw(system_params))
    grid = threshold_grid(sys).positive
    return (sys, draw(st.sampled_from(grid)), draw(st.sampled_from(grid)),
            draw(st.integers(1, 3)))


def check_gap_structures(sys, cells):
    """``shadowing._gap_structures`` at each (delta, epsilon, N) of
    ``cells`` in turn, on one system, against a rebuild per gap; then
    the memo holds windows for the epsilon cutoffs reached and no
    others, each up to the largest gap reached or T + P if less."""
    reached, horizon = {}, sys.max_preperiod + sys.cycle_lcm
    for delta, epsilon, N in cells:
        gaps = gap_values(sys, N)
        yielded = list(shadowing._gap_structures(
            sys, gaps, sys.lt_cutoff(delta), sys.lt_cutoff(epsilon)))
        assert [n for n, _, _, _ in yielded] == list(gaps)
        for n, succ, step, allowed in yielded:
            assert step == tuple(sys.power(i, n) for i in range(sys.n))
            assert (tuple(map(as_set, allowed))
                    == windows_reference(sys, n, epsilon)), (delta, epsilon, n)
            ref_succ, ref_step, ref_allowed = gap_structures_reference(
                sys, n, delta, epsilon)
            assert (succ, list(step)) == (ref_succ, ref_step)
            assert tuple(map(as_set, allowed)) == ref_allowed
            for w, window in zip(allowed, ref_allowed):
                assert (as_set(_image(w, [1 << y for y in step]))
                        == {step[z] for z in window})
        cut = sys.lt_cutoff(epsilon)
        reached[cut] = max(reached.get(cut, 0), min(gaps[-1], horizon))
    assert {key[1]: len(layers) - 1 for key, layers in sys._memo.items()
            if key[0] == "windows"} == reached


@untimed
@given(kernel_cells())
def test_carried_gap_structures_match_a_rebuild_per_gap(cell):
    sys, delta, epsilon, N = cell
    check_gap_structures(sys, [(delta, epsilon, N)])


@untimed
@given(system_params, st.data())
def test_warm_memo_matches_a_rebuild_per_gap(params, data):
    sys = build_random_system(*params)
    grid = threshold_grid(sys).positive
    epsilons = data.draw(st.lists(st.sampled_from(grid), min_size=2,
                                  max_size=3))
    deltas = data.draw(st.lists(st.sampled_from(grid), min_size=1,
                                max_size=2))
    # each epsilon recurs with every delta at N = 3, 2, 1, whose gap
    # ranges overlap, in a drawn order
    cells = [(d, e, N) for e in epsilons for N in (3, 2, 1) for d in deltas]
    check_gap_structures(sys, data.draw(st.permutations(cells)))


@settings(deadline=None, max_examples=25)
@given(system_params)
def test_warm_system_answers_as_a_fresh_one(params):
    warm = build_random_system(*params)
    run_theorem_battery(warm, "thmC", period_bound=3)
    grid = threshold_grid(warm).positive
    assert threshold_grid(warm).values == threshold_grid_reference(warm)
    check_chain_graphs(warm)
    check_nonwandering(warm)
    for epsilon in grid:
        for x in warm.points:
            sets = stable_sets(warm, x, epsilon, include_unstable=False)
            assert ((sets.s_local, sets.s_global)
                    == stable_sets_reference(warm, x, epsilon))
        # the closed-chain searches at the cutoffs the battery reached
        for delta in (epsilon, grid[-1]):
            for strong, fn in ((False, periodic_shadowing_holds),
                               (True, strong_periodic_shadowing_holds)):
                assert (outcome(fn, warm, delta, epsilon, 3)
                        == outcome(periodic_variant_reference, warm, delta,
                                   epsilon, 3, strong))
            assert (outcome(local_spec_holds, warm, epsilon, 1, delta, 3)
                    == outcome(local_spec_reference, warm, epsilon, 1, delta,
                               3))
    for battery in ("thmA", "thmC", "thmD"):
        assert (run_theorem_battery(warm, battery, period_bound=3)
                == run_theorem_battery(build_random_system(*params), battery,
                                       period_bound=3))


def test_pairwise_chain_builds_each_window_once(monkeypatch):
    builds = []
    carry = shadowing._carry_window

    def counted(sys, e_cut, layers):
        builds.append((e_cut, len(layers)))
        return carry(sys, e_cut, layers)

    monkeypatch.setattr(shadowing, "_carry_window", counted)
    sys = build_random_system(11, 7, invertible=True)
    grid = threshold_grid(sys).positive
    delta, epsilon = grid[2], grid[4]
    pairwise_tracing_chain(sys, delta, epsilon)
    cut = sys.lt_cutoff(epsilon)
    horizon = sys.max_preperiod + sys.cycle_lcm
    assert len(gap_values(sys, 1)) > horizon > 1
    # layers past T + P are read off the layers up to it
    assert Counter(builds) == Counter((cut, n) for n in gap_values(sys, 1)
                                      if n <= horizon)


def test_window_layers_stop_at_t_plus_p(monkeypatch):
    # cycles of lengths 3, 4 and 5 (P = 60) and a two-point tail into
    # the 3-cycle (T = 2): weak specification walks gaps 1..121
    images = [1, 2, 0, 4, 5, 6, 3, 8, 9, 10, 11, 7, 13, 0]
    points = [f"p{i}" for i in range(len(images))]
    sys = build_finite_system(points, random_metric(random.Random(3), 14),
                              [points[j] for j in images])
    T, P = sys.max_preperiod, sys.cycle_lcm
    assert (T, P) == (2, 60)
    yielded = []
    carry = shadowing._gap_structures

    def recording(sys, gaps, d_cut, e_cut):
        for n, succ, step, allowed in carry(sys, gaps, d_cut, e_cut):
            yielded.append((e_cut, n, step, allowed))
            yield n, succ, step, allowed

    monkeypatch.setattr(shadowing, "_gap_structures", recording)
    grid = threshold_grid(sys).positive
    epsilons = (grid[0], grid[len(grid) // 2], grid[-1])
    # at the sub-minimal delta every chain is an orbit, so no gap fails
    for epsilon in epsilons:
        assert local_weak_spec_holds(sys, epsilon, 1, grid[0])[0]
    assert max(n for _, n, _, _ in yielded) == T + 2 * P - 1
    assert all(len(layers) <= T + P + 1 for key, layers in sys._memo.items()
               if key[0] == "windows")
    at_cut = {sys.lt_cutoff(epsilon): epsilon for epsilon in epsilons}
    for e_cut, n, step, allowed in yielded:
        epsilon = at_cut[e_cut]
        assert step == tuple(sys.power(i, n) for i in range(sys.n))
        assert (tuple(map(as_set, allowed))
                == windows_reference(sys, n, epsilon)), (epsilon, n)


@untimed
@given(kernel_cells())
def test_die_search_matches_the_frozenset_search(cell):
    sys, delta, epsilon, N = cell
    for n, succ, step, allowed in _gap_structures(
            sys, gap_values(sys, N), sys.lt_cutoff(delta),
            sys.lt_cutoff(epsilon)):
        sets = tuple(map(as_set, allowed))
        for cap in (None, 3, 20):
            bound = 2 ** 20 if cap is None else cap
            assert (search_outcome(_die_search, succ, step, allowed, bound)
                    == search_outcome(die_search_reference, succ, step, sets,
                                      bound)), (n, cap)


@untimed
@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.booleans(),
       st.integers(1, 8), st.integers(1, 8))
def test_closures_read_off_the_cycles_match_the_step_orbits(
        seed, size, invertible, n, bound):
    sys = build_random_system(seed, size, invertible)
    periodic = sys.periodic_indices()
    step = [sys.power(z, n) for z in range(sys.n)]
    # sized as the closed-chain search sizes it, and read as it reads it
    length = min(bound, sys.cycle_lcm)
    closures = shadowing._closures(sys._cycles, n, length)
    assert len(closures) == length
    for k in range(1, bound + 1):
        hits, orbits = closures[k % length]
        assert sorted(orbits) == sorted(orbit_masks_reference(periodic, step,
                                                              k))
        # the exact-period test: the z whose period divides k * n
        assert hits == sum(1 << z for z in periodic
                           if k * n % len(sys.cycle(z)) == 0)


def test_pushed_tracer_masks_match_a_bit_test_per_point():
    cells = 0
    for sys in [*gallery_corpus(), *seeded_corpus(20, 7)]:
        periodic = sys.periodic_indices()
        cuts = sorted({1, len(sys.distance_values) // 2 + 1,
                       len(sys.distance_values)})
        for d_cut in cuts:
            for e_cut in cuts:
                for _, _, step, allowed in shadowing._gap_structures(
                        sys, range(1, 4), d_cut, e_cut):
                    # one period of masks, read at k mod its length
                    length = min(6, sys.cycle_lcm)
                    masks = shadowing._tracer_masks(periodic, step,
                                                    allowed, length)
                    assert (tuple(masks[k % length] for k in range(6))
                            == tracer_masks_reference(periodic, step,
                                                      allowed, 6))
                    cells += 1
    assert cells == 777
