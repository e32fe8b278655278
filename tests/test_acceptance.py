"""End-to-end acceptance battery: one test per library-level law.

Every assertion here is exact (rational arithmetic, boolean agreement,
byte equality); there are no numeric tolerances anywhere.  Each test
covers one law over a frozen corpus, so ``pytest -v`` prints one
pass/fail line per law:

01  weak chain tracing is decidable exactly where shadowing is
02  the subset decision agrees with definition-level brute force
03  the two-factor window shadows yet has no low-period points
04  spectral decompositions re-verify from scratch, both routes agree
05  the satellite lattice walks down the expansiveness hierarchy
06  expansiveness hierarchy implications never fail on the gallery
07  chain tracing transfers to periodic shadowing, pairwise links hold
08  fully populated shadowing forces chain recurrent = nonwandering
09  every CLI command is deterministic byte for byte

Corpora are seeded and frozen; shrinking them would weaken the laws,
so edit with care.  Law 02's oracle reads the lasso family off its
distinct stem states and cycle classes, so it takes seconds, as does
every other law.
"""

import json
from fractions import Fraction

from dynlab.cli import main
from dynlab.core import threshold_grid
from dynlab.expansive import (
    expansive_on_per,
    gamma_set,
    measure_expansive_holds,
    n_expansive_holds,
    strong_measure_expansive_holds,
)
from dynlab.gallery import build_myex, build_xpq
from dynlab.recurrence import (
    chain_recurrent_set,
    nonwandering_set,
    spectral_decomposition,
)
from dynlab.serialize import canonical_json
from dynlab.shadowing import modulus_table, shadowing_holds
from dynlab.specification import (
    derived_periodic_shadowing,
    pairwise_tracing_chain,
)
from dynlab.symbolic import periodic_point_count, product_system, window_system

from helpers import gallery_corpus, random_system, seeded_corpus
from oracles import brute_shadowing_table


def test_01_weak_tracing_row_populated_iff_shadowing_row_populated():
    corpus = list(seeded_corpus(20, 8))
    corpus.append(window_system(build_xpq(3, 2), 1))
    corpus.append(window_system(build_xpq(3, 2), 2))
    assert len(corpus) >= 22
    for sys in corpus:
        weak = modulus_table(sys, "spec-weak")
        shad = modulus_table(sys, "shadowing")
        for (eps_w, row_w), (eps_s, row_s) in zip(weak.rows, shad.rows):
            assert eps_w == eps_s
            assert (row_w is not None) == (row_s is not None), (
                sys.points, eps_w, row_w, row_s)


# (seed, size, invertible, stem+cycle bound): sizes 2 and 3 carry the
# full bound of 12; the larger sizes keep the deepest bound the listing
# oracle finished in reasonable time, still thousands of lassos per
# system.
LAW_02_CORPUS = (
    (0, 2, True, 12),
    (7, 2, False, 12),
    (8, 3, True, 12),
    (1, 3, False, 12),
    (9, 4, False, 9),
    (3, 5, False, 8),
    (11, 6, False, 7),
    (4, 6, True, 7),
    (5, 8, False, 6),
    (14, 5, True, 8),
)


def test_02_subset_decision_matches_lasso_brute_force():
    for seed, size, invertible, max_len in LAW_02_CORPUS:
        sys = random_system(seed=seed, n=size, invertible=invertible)
        oracle = brute_shadowing_table(sys, max_len)
        grid = threshold_grid(sys).positive
        for delta in grid:
            for eps in grid:
                assert oracle(delta, eps) == shadowing_holds(
                    sys, delta, eps)[0], (seed, delta, eps)


def test_03_two_factor_window_shadows_without_low_period_points():
    product = product_system([build_xpq(3, 2), build_xpq(5, 3)])
    window = window_system(product, 1)
    ok, certificate = shadowing_holds(window, Fraction(1, 8), Fraction(1, 4))
    assert ok and certificate is None
    assert [periodic_point_count(product, m) for m in (2, 4, 7)] == [0, 0, 0]
    # the spectrum is not degenerate: nearby periods are realised
    assert all(periodic_point_count(product, m) > 0 for m in (3, 5, 6))


def test_04_spectral_decomposition_reverifies_and_routes_agree():
    corpus = list(seeded_corpus(50, 7))
    assert len(corpus) >= 50
    passing = 0
    for sys in corpus:
        dec = spectral_decomposition(sys)
        checks = dec.verify(sys)
        assert all(checks.values()), (sys.points, checks)
        if dec.report.passes:
            passing += 1
            assert all(p.routes_agree for p in dec.pieces)
            assert dec.partition("graph") == dec.partition("stable-set")
    assert passing >= 10  # the second clause is not vacuous


def test_05_satellite_lattice_walks_down_the_hierarchy():
    inst = build_myex(5, 3)
    sys = inst.system
    grid = threshold_grid(sys).positive

    # (a) the k-th satellite enters the anchor's dynamical ball at 1/k
    for k in (1, 2, 3):
        anchor, satellite = inst.anchors[k - 1], inst.orbits[k - 1][0]
        for delta in grid:
            member = satellite in gamma_set(sys, anchor, delta).members
            assert member == (delta >= Fraction(1, k)), (k, delta)

    # (b) distinguishability on periodic points fails from 1/3 up
    for delta in grid:
        assert expansive_on_per(sys, delta) == (delta < Fraction(1, 3))

    # (c) the strong counterexample is the anchor with the uniform
    # measure on its own satellite orbit
    ok, counter = strong_measure_expansive_holds(sys, Fraction(1, 3))
    assert not ok
    point, measure = counter
    assert point == inst.anchors[2]
    support = tuple(p for p, w in zip(sys.points, measure.weights) if w > 0)
    assert support == inst.orbits[2]
    assert all(w in (Fraction(0), Fraction(1, 2)) for w in measure.weights)

    # (d) with atoms excluded nothing is left to test: vacuously true
    assert measure_expansive_holds(sys, Fraction(1, 3)) == (True, "vacuous")


def test_06_expansiveness_hierarchy_implications_never_fail():
    for sys in gallery_corpus():
        for delta in threshold_grid(sys).positive:
            one = n_expansive_holds(sys, 1, delta)
            strong = strong_measure_expansive_holds(sys, delta)[0]
            measure = measure_expansive_holds(sys, delta)[0]
            assert (not one) or strong, (sys.points, delta)
            assert (not strong) or measure, (sys.points, delta)
            for n in (1, 2, 3):
                weaker = n_expansive_holds(sys, n + 1, delta)
                assert (not n_expansive_holds(sys, n, delta)) or weaker, (
                    sys.points, delta, n)


def test_07_chain_tracing_transfers_to_periodic_shadowing():
    small = [
        (window_system(build_xpq(3, 2), 1), 5),
        (build_myex(2, 1).system, 6),
        (random_system(seed=1, n=4, invertible=False), 6),
        (random_system(seed=5, n=4, invertible=False), 6),
        (random_system(seed=7, n=6, invertible=False), 6),
        (random_system(seed=13, n=4, invertible=False), 6),
    ]

    applicable = 0
    for sys, _ in small:
        for eps in threshold_grid(sys).positive:
            out = derived_periodic_shadowing(sys, eps)
            if out["applicable"]:
                applicable += 1
                assert out["holds"], (sys.points, eps, out)
    assert applicable >= 10  # the transfer clause is not vacuous

    cells = 0
    for sys, k_bound in small:
        grid = threshold_grid(sys).positive
        for delta in grid:
            for eps in grid:
                if delta > eps:
                    continue  # the coarse-step regime is covered below
                report = pairwise_tracing_chain(sys, delta, eps,
                                                k_bound=k_bound)
                cells += 1
                assert report["holds"], (sys.points, delta, eps, report)
    # one small system swept over the full square, coarse steps included
    sys = random_system(seed=1, n=4, invertible=False)
    grid = threshold_grid(sys).positive
    for delta in grid:
        for eps in grid:
            assert pairwise_tracing_chain(sys, delta, eps)["holds"]
    assert cells >= 100


def test_08_populated_shadowing_forces_chain_recurrent_eq_nonwandering():
    populated = 0
    for sys in gallery_corpus():
        if modulus_table(sys, "shadowing").populated():
            populated += 1
            assert chain_recurrent_set(sys).points == nonwandering_set(sys)
    assert populated >= 10  # the law is not vacuous on this corpus


def test_09_cli_reports_are_deterministic(tmp_path, capsys):
    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def stripped(text):
        obj = json.loads(text)
        obj.pop("wall_ms", None)
        return canonical_json(obj)

    sft = tmp_path / "sft.json"
    finite = tmp_path / "finite.json"
    run("gallery", "xpq", "--p", "3", "--q", "2", "--emit", str(sft))
    run("gallery", "random", "--seed", "5", "--size", "4",
        "--emit", str(finite))
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"

    commands = [
        ("gallery", "xpq", "--p", "3", "--q", "2"),
        ("gallery", "myex", "--lattice", "2", "--K", "1"),
        ("gallery", "random", "--seed", "5", "--size", "4"),
        ("check", "shadowing", "--system", str(sft), "--window", "1",
         "--epsilon", "1/4", "--delta", "1/8"),
        ("check", "shadowing", "--system", str(finite), "--epsilon", "1/2"),
        ("check", "spec", "--system", str(finite), "--variant", "weak",
         "--epsilon", "1/2"),
        ("check", "expansive", "--system", str(finite), "--variant",
         "strong-measure", "--delta", "1/2"),
        ("spectral", "--system", str(finite)),
        ("battery", "--system", str(finite), "--id", "hierarchy"),
        ("battery", "--system", str(sft), "--window", "1",
         "--id", "thmA"),
        ("modulus", "--system", str(finite), "--prop", "shadowing"),
    ]
    for argv in commands:
        code_a, out_a = run(*argv)
        code_b, out_b = run(*argv)
        assert code_a == code_b
        assert stripped(out_a) == stripped(out_b), argv

    base = ("modulus", "--system", str(finite), "--prop", "spec-weak")
    run(*base, "--csv", str(csv_a))
    run(*base, "--csv", str(csv_b))
    assert csv_a.read_bytes() == csv_b.read_bytes()
