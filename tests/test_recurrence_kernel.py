"""The bitmask recurrence kernel against the frozenset and dense boolean
matrix kernel it replaced (the recurrence references in ``oracles``).

``chain_graph`` at every grid delta, ``nonwandering_set`` and
``is_mixing`` on random subsets are compared on random plain systems
and on window systems of random 2-4 letter shifts of finite type, and
so are ``basic_sets`` and ``chain_recurrent_set``, which the library
decides on the step relation, against their reading at every grid
delta, and the stable-set parts, grouped in one pass over each piece,
against one scan per anchor; ``is_transitive`` on random plain systems
and subsets against trying every start;
``_primitive`` on random digraphs and on Wielandt's digraphs, whose
exponent (m - 1)^2 + 1 is the largest a primitive relation on m
vertices can need; the a-step rows, read off the orbit table or
squared along the bits of a, against pushing a steps one set image at
a time, on plain maps, random relations and window systems; and
``_members`` against the bit scan it replaced.
``tests/test_mutations.py`` plants faults under the ``check_*``
comparisons defined here.
"""

from hypothesis import assume, given, settings, strategies as st

from dynlab import recurrence
from dynlab.core import _image, build_finite_system, threshold_grid
from dynlab.errors import EmptyShift
from dynlab.gallery import build_random_system
from dynlab.symbolic import build_sft, window_system

from oracles import (basic_sets_reference, chain_graph_reference,
                     chain_recurrent_reference, cp_parts_reference,
                     is_mixing_reference, is_transitive_reference,
                     members_reference, nonwandering_reference,
                     primitive_reference, reach_after_reference)

# the properties are exact, so a slow host must not fail them on time
untimed = settings(deadline=None)


def as_set(mask):
    return {z for z in range(mask.bit_length()) if mask >> z & 1}


def check_chain_graphs(sys):
    for delta in threshold_grid(sys).positive:
        assert (recurrence.chain_graph(sys, delta)
                == chain_graph_reference(sys, delta)), delta


def check_nonwandering(sys):
    assert recurrence.nonwandering_set(sys) == nonwandering_reference(sys)


def check_recurrence(sys):
    """Basic sets and the chain recurrent table, decided once on the
    step relation, against one chain graph per grid delta; and the
    chain recurrent points, the union of the basic sets and the
    non-wandering set as one set."""
    pieces = recurrence.basic_sets(sys)
    assert pieces == basic_sets_reference(sys)
    chain = recurrence.chain_recurrent_set(sys)
    assert (chain.points, chain.table) == chain_recurrent_reference(sys)
    union = tuple(p for p in sys.points if any(p in b for b in pieces))
    assert chain.points == union == recurrence.nonwandering_set(sys)


def check_cp_parts(sys):
    """The stable-set parts of every basic set against one scan of the
    piece per point of the anchor's cycle."""
    for B in recurrence.basic_sets(sys):
        assert recurrence._cp_parts(sys, B) == cp_parts_reference(sys, B), B


def check_power_masks(sys, steps):
    """The a-step rows for every a in ``steps`` against pushing each
    point a steps, one set image per step."""
    for a in steps:
        assert recurrence._power_masks(sys, a) == tuple(
            recurrence._mask(reach_after_reference(sys, (i,), a))
            for i in range(sys.n)), a


def check_primitive(succ):
    """``_primitive`` on the digraph with successor lists ``succ``."""
    m = len(succ)
    rows = {i: sum(1 << j for j in set(out)) for i, out in enumerate(succ)}
    matrix = [[j in out for j in range(m)] for out in succ]
    assert (recurrence._primitive(rows, (1 << m) - 1)
            == primitive_reference(matrix)), succ


def wielandt(m):
    """W_m: the cycle 0 -> 1 -> ... -> m-1 -> 0 plus the chord m-1 -> 1
    (W_1 is a loop)."""
    return [[0]] if m == 1 else [[i + 1] for i in range(m - 1)] + [[0, 1]]


def least_full_exponent(succ):
    """The least k >= 1 with a walk of length exactly k between every
    ordered pair."""
    reach, k = [set(out) for out in succ], 1
    while any(len(r) < len(succ) for r in reach):
        reach = [{w for v in r for w in succ[v]} for r in reach]
        k += 1
    return k


@st.composite
def plain_systems(draw):
    return build_random_system(draw(st.integers(0, 10 ** 6)),
                               draw(st.integers(1, 8)), draw(st.booleans()))


@st.composite
def window_systems(draw):
    """The width-1 window system of a random shift on 2-4 letters."""
    letters = "0123"[:draw(st.integers(2, 4))]
    edges = draw(st.sets(st.tuples(st.sampled_from(letters),
                                   st.sampled_from(letters)), min_size=1))
    try:
        sft = build_sft(letters, sorted(edges))
    except EmptyShift:
        assume(False)
    return window_system(sft, 1)


@st.composite
def relation_systems(draw):
    """Points at mutual distance 1 with a random map and a random
    relation, whose successor lists may omit the map's step, repeat a
    successor or be empty."""
    n = draw(st.integers(1, 8))
    fmap = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    relation = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=4),
                             min_size=n, max_size=n))
    return build_finite_system(
        range(n), [[int(i != j) for j in range(n)] for i in range(n)], fmap,
        relation=relation)


systems = st.one_of(plain_systems(), window_systems())


@untimed
@given(systems)
def test_chain_graphs_and_nonwandering_match_the_frozenset_kernel(sys):
    check_chain_graphs(sys)
    check_nonwandering(sys)


@untimed
@given(systems)
def test_recurrence_matches_the_reading_at_every_grid_delta(sys):
    check_recurrence(sys)


@untimed
@given(systems, st.data())
def test_is_mixing_matches_dense_matrix_powers(sys, data):
    ids = data.draw(st.sets(st.integers(0, sys.n - 1), min_size=1,
                            max_size=6))
    part = tuple(sys.points[i] for i in sorted(ids))
    for a in range(1, 5):
        assert (recurrence.is_mixing(sys, part, a)
                == is_mixing_reference(sys, part, a)), (part, a)


@untimed
@given(st.one_of(plain_systems(), relation_systems(), window_systems()))
def test_power_masks_match_pushing_a_steps(sys):
    check_power_masks(sys, range(1, 2 * sys.n + 1))


def holed(start, holes):
    """300 set bits but those of ``holes``, shifted to ``start``."""
    return ((1 << 300) - 1) ^ (holes << start)


@untimed
@given(st.one_of(
    st.sets(st.integers(0, 300), max_size=6).map(recurrence._mask),
    st.integers(0, 2 ** 64 - 1),
    st.builds(holed, st.integers(0, 200), st.integers(0, 2 ** 40 - 1))))
def test_members_match_the_bit_scan(mask):
    # sparse masks reaching high bits, 64-bit masks of any density, and
    # dense 300-bit masks with drawn holes
    assert recurrence._members(mask) == members_reference(mask)


@untimed
@given(systems)
def test_stable_set_parts_match_one_scan_per_anchor(sys):
    check_cp_parts(sys)


@untimed
@given(plain_systems(), st.data())
def test_is_transitive_matches_trying_every_start(sys, data):
    ids = data.draw(st.sets(st.integers(0, sys.n - 1), min_size=1))
    subset = tuple(sys.points[i] for i in sorted(ids))
    assert (recurrence.is_transitive(sys, subset)
            == is_transitive_reference(sys, subset)), subset


@untimed
@given(window_systems(), st.data())
def test_image_of_relation_rows_is_the_set_image(sys, data):
    w = data.draw(st.integers(0, (1 << sys.n) - 1))
    image = _image(w, recurrence._step_masks(sys))
    assert as_set(image) == {j for i in as_set(w) for j in sys.relation[i]}


@untimed
@given(st.integers(1, 8).flatmap(lambda m: st.lists(
    st.lists(st.integers(0, m - 1), max_size=2 * m), min_size=m,
    max_size=m)))
def test_primitive_matches_dense_matrix_powers(succ):
    check_primitive(succ)


def test_primitive_at_wielandts_exponent():
    for m in range(1, 9):
        assert least_full_exponent(wielandt(m)) == (m - 1) ** 2 + 1
        check_primitive(wielandt(m))
