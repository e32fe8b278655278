"""Chain recurrence, non-wandering points, and the decomposition routes."""

from dataclasses import replace
from fractions import Fraction

import pytest

from dynlab.core import build_finite_system, threshold_grid
from dynlab.gallery import build_xpq
from dynlab.recurrence import (
    basic_sets,
    chain_graph,
    chain_recurrent_set,
    cp_construction,
    cyclic_decomposition,
    hypothesis_report,
    is_mixing,
    is_transitive,
    nonwandering_set,
    spectral_decomposition,
)
from dynlab.shadowing import modulus_table
from dynlab.symbolic import build_sft, window_system

from helpers import cycle_system, myex_system, random_system, stem_into_cycle


def two_fixed_points():
    return build_finite_system(
        ["a", "b"], [[0, 1], [1, 0]], ["a", "b"])


def cycle_with_far_fixed_point():
    pts = ["c0", "c1", "c2", "q"]
    dist = [[0, 1, 1, 10], [1, 0, 1, 10], [1, 1, 0, 10], [10, 10, 10, 0]]
    return build_finite_system(pts, dist, ["c1", "c2", "c0", "q"])


def two_loop_window(w=1):
    sft = build_sft(
        "0123",
        [("0", "1"), ("1", "2"), ("2", "0"), ("0", "3"), ("3", "0")],
    )
    return window_system(sft, w)


def test_chain_graph_thresholds():
    sys = two_fixed_points()
    wide = chain_graph(sys, Fraction(3, 2))
    assert wide.succ == ((0, 1), (0, 1))
    narrow = chain_graph(sys, Fraction(1, 2))
    assert narrow.succ == ((0,), (1,))
    stem = stem_into_cycle()
    functional = chain_graph(stem, threshold_grid(stem).submin)
    assert functional.succ == tuple((j,) for j in stem.fmap)
    cyc = cycle_system(3)
    assert chain_graph(cyc, Fraction(1, 2)).succ == ((1,), (2,), (0,))


def test_chain_recurrent_set_and_table():
    assert chain_recurrent_set(stem_into_cycle()).points == ("z",)
    assert chain_recurrent_set(two_fixed_points()).points == ("a", "b")
    bij = random_system(seed=1, n=6, invertible=True)
    assert chain_recurrent_set(bij).points == bij.points
    # per-delta rows grow with delta; the intersection is the first row
    cr = chain_recurrent_set(random_system(seed=5, n=7))
    rows = [set(pts) for _, pts in cr.table]
    for small, big in zip(rows, rows[1:]):
        assert small <= big
    assert set(cr.points) == rows[0]


def prime_cycles_with_a_tail():
    """81 points: cycles of the primes 2..19 (lcm 9,699,690) and a
    4-point tail into the 2-cycle; distance 1 inside a cycle or the
    tail, 2 across."""
    points, fmap, group = [], [], []
    for length in (2, 3, 5, 7, 11, 13, 17, 19):
        names = [f"c{length}_{k}" for k in range(length)]
        points += names
        fmap += names[1:] + names[:1]
        group += [length] * length
    tail = [f"t{k}" for k in range(4)]
    points += tail
    fmap += tail[1:] + ["c2_0"]
    group += [0] * 4
    dist = [[0 if i == j else 1 if group[i] == group[j] else 2
             for j in range(81)] for i in range(81)]
    return build_finite_system(points, dist, fmap)


def test_recurrence_cost_does_not_grow_with_the_cycle_lcm():
    sys = prime_cycles_with_a_tail()
    assert sys.cycle_lcm == 9699690
    assert nonwandering_set(sys) == sys.points[:77]
    dec = spectral_decomposition(sys)
    assert all(dec.verify(sys).values())
    assert [len(piece.points) for piece in dec.pieces] == [
        2, 3, 5, 7, 11, 13, 17, 19]


def test_nonwandering_matches_cycle_points_on_plain_systems():
    for seed in range(6):
        sys = random_system(seed=seed, n=6, invertible=(seed % 2 == 0))
        expected = tuple(sys.points[i] for i in sys.periodic_indices())
        assert nonwandering_set(sys) == expected


def test_recurrence_equality_when_tracing_modulus_is_populated():
    systems = [
        stem_into_cycle(),
        cycle_with_far_fixed_point(),
        two_loop_window(),
        random_system(seed=11, n=6),
        random_system(seed=12, n=6, invertible=True),
    ]
    for sys in systems:
        table = modulus_table(sys, "shadowing")
        assert table.populated()
        assert chain_recurrent_set(sys).points == nonwandering_set(sys)


def test_basic_sets_examples():
    assert basic_sets(cycle_with_far_fixed_point()) == (
        ("c0", "c1", "c2"), ("q",))
    assert basic_sets(cycle_system(4)) == (("c0", "c1", "c2", "c3"),)
    # grid contains 1/2 < 1, so the two fixed points never chain together
    assert basic_sets(two_fixed_points()) == (("a",), ("b",))
    for seed in range(4):
        sys = random_system(seed=seed, n=7)
        cycles = {frozenset(sys.points[i] for i in sys.cycle(j))
                  for j in range(sys.n)}
        assert {frozenset(b) for b in basic_sets(sys)} == cycles


def test_cyclic_decomposition_periods():
    two = cycle_system(2)
    a, parts = cyclic_decomposition(two, two.points)
    assert a == 2 and parts == (("c0",), ("c1",))
    six = cycle_system(6)
    assert cyclic_decomposition(six, six.points)[0] == 6
    win = two_loop_window()
    a, parts = cyclic_decomposition(win, win.points)
    assert a == 1 and parts == (win.points,)
    with pytest.raises(ValueError):
        cyclic_decomposition(stem_into_cycle(), ("s1", "z"))


def test_parts_rotate_under_the_map():
    sys = random_system(seed=9, n=8)
    for B in basic_sets(sys):
        a, parts = cyclic_decomposition(sys, B)
        for k, part in enumerate(parts):
            image = {sys.apply(p) for p in part}
            assert image == set(parts[(k + 1) % a])


def test_is_mixing_examples():
    one = cycle_system(1)
    assert is_mixing(one, ("c0",), 1)
    two = cycle_system(2)
    assert not is_mixing(two, ("c0", "c1"), 1)  # parity obstruction
    assert is_mixing(two, ("c0",), 2) and is_mixing(two, ("c1",), 2)
    win = two_loop_window()
    assert is_mixing(win, win.points, 1)


def test_is_transitive_examples():
    assert is_transitive(cycle_system(5), cycle_system(5).points)
    far = cycle_with_far_fixed_point()
    assert not is_transitive(far, far.points)
    assert is_transitive(far, ("c0", "c1", "c2"))
    assert is_transitive(stem_into_cycle(), ("s0", "s1", "z"))  # one orbit
    win = two_loop_window()
    assert is_transitive(win, win.points)


def test_cp_construction_on_plain_systems_gives_orbit_singletons():
    for seed in (2, 6):
        sys = random_system(seed=seed, n=6, invertible=(seed == 2))
        for B in basic_sets(sys):
            for p in B:
                assert cp_construction(sys, B, p) == (p,)
    with pytest.raises(ValueError):
        cp_construction(stem_into_cycle(), ("z",), "s0")


def test_cp_construction_sees_merge_basins_inside_the_piece():
    win = two_loop_window()
    B = basic_sets(win)[0]
    anchors = [p for p in B if win.preperiod(win.index[p]) == 0]
    c = cp_construction(win, B, anchors[0])
    assert len(c) > 1  # the canonical-map funnel puts several words here


def test_spectral_decomposition_shapes():
    dec = spectral_decomposition(cycle_with_far_fixed_point())
    assert [p.points for p in dec.pieces] == [("c0", "c1", "c2"), ("q",)]
    assert [p.period for p in dec.pieces] == [3, 1]
    assert all(all(p.mixing) for p in dec.pieces)
    win_dec = spectral_decomposition(two_loop_window())
    assert len(win_dec.pieces) == 1
    piece = win_dec.pieces[0]
    assert piece.period == 1 and piece.mixing == (True,)
    # the stable-set route follows the canonical map's funnel instead of
    # the admissible-step structure -- recorded, not hidden
    assert piece.routes_agree is False
    assert not win_dec.report.invertible and not win_dec.report.passes


def test_decomposition_verifies_and_routes_agree_on_plain_systems():
    for seed in range(8):
        sys = random_system(seed=seed, n=6, invertible=(seed % 2 == 0))
        dec = spectral_decomposition(sys)
        assert all(dec.verify(sys).values())
        assert all(p.routes_agree for p in dec.pieces)
        if dec.report.passes:
            assert dec.partition("graph") == dec.partition("stable-set")


def with_piece(dec, i, **fields):
    """``dec`` with the given fields of piece i replaced."""
    pieces = list(dec.pieces)
    pieces[i] = replace(pieces[i], **fields)
    return replace(dec, pieces=tuple(pieces))


def test_decomposition_verify_catches_planted_faults():
    myex = myex_system(3, 1)  # fixed points 0 and 3, two 4-cycles
    window = window_system(build_xpq(3, 2), 1)  # one mixing piece
    rand = random_system(seed=3, n=6, invertible=True)  # a 4-cycle first
    dec, wdec, rdec = (spectral_decomposition(s) for s in (myex, window, rand))
    cycle, rcycle = dec.pieces[1], rdec.pieces[0]
    assert cycle.period == rcycle.period == 4
    fixed = dec.pieces[0].points + dec.pieces[3].points
    merged = with_piece(dec, 0, points=fixed, parts=(fixed,))
    cases = [
        (myex, dec, "disjoint", replace(dec, pieces=dec.pieces + dec.pieces[:1])),
        (myex, dec, "covers_nonwandering", replace(dec, pieces=dec.pieces[:-1])),
        (myex, dec, "invariant", with_piece(dec, 1, points=cycle.points[1:])),
        (myex, dec, "parts_shift", with_piece(dec, 1, parts=cycle.parts[::-1])),
        (myex, dec, "parts_period", with_piece(dec, 1, period=2)),
        (myex, dec, "transitive", replace(merged, pieces=merged.pieces[:3])),
        (window, wdec, "primitive", with_piece(wdec, 0, mixing=(False,))),
        (rand, rdec, "parts_shift", with_piece(rdec, 0, parts=rcycle.parts[::-1])),
        (rand, rdec, "primitive",
         with_piece(rdec, 0, mixing=(False,) + rcycle.mixing[1:])),
    ]
    for sys, real, flag, faulty in cases:
        assert all(real.verify(sys).values())
        assert faulty.verify(sys)[flag] is False, flag


def test_hypothesis_report_fields():
    sys = cycle_system(3)
    rep = hypothesis_report(sys)
    assert rep.strong_constant == Fraction(1, 2)
    assert rep.strong_fails_at == (Fraction(1), Fraction(2))
    assert rep.invertible and rep.shadowing_populated and rep.passes
    assert not hypothesis_report(stem_into_cycle()).passes