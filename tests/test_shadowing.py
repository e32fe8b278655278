"""Subset-construction tracing decisions versus definitional brute force."""

import ast
import itertools
import pathlib
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dynlab
from dynlab import shadowing, specification
from dynlab.core import Lasso, build_finite_system, is_pseudo_orbit, shadows, threshold_grid
from dynlab.errors import BoundTooSmall, StateExplosion
from dynlab.gallery import build_random_system, build_xpq
from dynlab.recurrence import chain_graph
from dynlab.symbolic import window_system
from dynlab.shadowing import (
    construct_shadow_point,
    lipschitz_constants,
    modulus_table,
    periodic_shadowing_holds,
    shadowing_holds,
    shadowing_modulus,
    special_shadowing_holds,
    strong_periodic_shadowing_holds,
)

from helpers import (cycle_system, random_system, seeded_corpus,
                     two_points_identity)
from oracles import (brute_shadowing_table, construct_shadow_point_reference,
                     lasso_family_pareto, lasso_pareto_by_states,
                     local_spec_reference, local_weak_spec_reference,
                     modulus_table_reference, periodic_variant_reference)
from test_acceptance import LAW_02_CORPUS
from test_closed_chains import assert_matches_reference, outcome


def hand_system(pts, dfn, images, invertible=None):
    dist = [[dfn(p, q) for q in pts] for p in pts]
    fmap = [images[p] for p in pts]
    return build_finite_system(pts, dist, fmap, invertible=invertible)


def assert_counterexample(sys, cert, delta, epsilon):
    """A reported counterexample must really be a delta-pseudo-orbit that
    no point epsilon-shadows, checked with the core primitives only."""
    assert is_pseudo_orbit(sys, cert.lasso, delta)
    for z in sys.points:
        assert not shadows(sys, z, cert.lasso, epsilon)


def check_against_brute(sys, max_len):
    brute = brute_shadowing_table(sys, max_len)
    grid = threshold_grid(sys)
    for delta in grid.positive:
        for eps in grid.positive:
            got, cert = shadowing_holds(sys, delta, eps)
            assert got == brute(delta, eps), (delta, eps)
            if not got:
                assert_counterexample(sys, cert, delta, eps)


# stem+cycle bounds by system size at which the listing oracle takes
# about a second on the law-02 corpus
LISTING_BOUND = {2: 12, 3: 9, 4: 7, 5: 6, 6: 5, 8: 5}


def test_state_oracle_matches_the_lasso_listing():
    for seed, size, invertible, _ in LAW_02_CORPUS:
        sys = random_system(seed=seed, n=size, invertible=invertible)
        bound = LISTING_BOUND[size]
        assert lasso_pareto_by_states(sys, bound) == lasso_family_pareto(
            sys, bound), (seed, size)


def test_agrees_with_brute_force_on_two_points():
    check_against_brute(two_points_identity(), 12)


def test_agrees_with_brute_force_on_random_three_point_systems():
    check_against_brute(random_system(seed=7, n=3), 9)
    check_against_brute(random_system(seed=8, n=3, invertible=True), 9)


def test_counterexample_is_deterministic():
    sys = random_system(seed=21, n=4)
    grid = threshold_grid(sys)
    for delta in grid.positive:
        for eps in grid.positive:
            a = shadowing_holds(sys, delta, eps)
            b = shadowing_holds(sys, delta, eps)
            assert a == b


def test_rotation_has_exact_small_scale_tracing():
    # On a 5-cycle rotation with the circle metric (distances {0,1,2})
    # any pseudo-orbit with errors below 1 is a true orbit, so shadowing
    # holds at delta=1 for every epsilon.  At delta=2 single steps may
    # drift one position per step, which accumulates to distance 2, so
    # only the top epsilon passes.
    def circ(p, q):
        k = abs(int(p[1:]) - int(q[1:]))
        return min(k, 5 - k)

    sys = hand_system(
        tuple(f"r{i}" for i in range(5)),
        circ,
        {f"r{i}": f"r{(i + 1) % 5}" for i in range(5)},
        invertible=True,
    )
    grid = threshold_grid(sys)
    assert grid.positive == (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
    table = modulus_table(sys, "shadowing")
    assert table.rows == (
        (Fraction(1, 2), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1)),
        (Fraction(3), Fraction(3)),
    )
    assert table.populated()


def test_modulus_matches_linear_scan():
    for seed in (3, 4, 5):
        sys = random_system(seed=seed, n=4)
        grid = threshold_grid(sys)
        for eps in grid.positive:
            passing = [
                delta for delta in grid.positive
                if shadowing_holds(sys, delta, eps)[0]
            ]
            best = max(passing) if passing else None
            assert shadowing_modulus(sys, eps) == best
        rows = modulus_table(sys, "shadowing").rows
        deltas = [d for _, d in rows]
        assert all(
            a is None or (b is not None and b >= a)
            for a, b in zip(deltas, deltas[1:])
        )


def test_modulus_never_empty_below_least_distance():
    # Below the least positive distance the only pseudo-orbits are true
    # orbits, which trace themselves at any positive epsilon.
    for seed in range(6):
        sys = random_system(seed=seed, n=5)
        for eps in threshold_grid(sys).positive:
            assert shadowing_modulus(sys, eps) is not None


def test_construct_shadow_point_success_and_failure():
    sys = cycle_system(4)
    orbit = Lasso(cycle=tuple(sys.points))
    z, info = construct_shadow_point(sys, orbit, Fraction(1, 2))
    assert z == sys.points[0]
    assert info["certificate"].point == z
    # skip one position each step: a valid 2-pseudo-orbit nobody traces
    # at epsilon=1 (the tracker would have to drift along)
    skip = Lasso(cycle=(sys.points[0], sys.points[2]))
    assert is_pseudo_orbit(sys, skip, Fraction(2))
    z, info = construct_shadow_point(sys, skip, Fraction(1))
    assert z is None
    assert info["failed_at"] == 1


def test_construct_shadow_point_two_sided_diagnostics():
    # two disjoint 2-cycles, far apart: the alternating past comes from
    # one cycle, the future from the other; forward and backward
    # survivor sets are disjoint
    sys = hand_system(
        ("a0", "a1", "b0", "b1"),
        lambda p, q: 0 if p == q else (1 if p[0] == q[0] else 10),
        {"a0": "a1", "a1": "a0", "b0": "b1", "b1": "b0"},
        invertible=True,
    )
    lasso = Lasso(stem=(), cycle=("b0", "b1"), two_sided=True,
                  past_cycle=("a0", "a1"))
    z, info = construct_shadow_point(sys, lasso, Fraction(2))
    assert z is None
    assert set(info["forward_survivors"]) == {"b0", "b1"}
    assert set(info["backward_survivors"]) == {"a0", "a1"}


@st.composite
def lasso_cells(draw):
    """A seeded system of 1-7 points, a lasso over its points (two-sided
    only on a bijection) and a grid epsilon."""
    sys = build_random_system(draw(st.integers(0, 10 ** 6)),
                              draw(st.integers(1, 7)), draw(st.booleans()))
    words = st.lists(st.sampled_from(sys.points), min_size=1, max_size=3)
    stem = tuple(draw(st.lists(st.sampled_from(sys.points), max_size=3)))
    cycle = tuple(draw(words))
    if sys.invertible and draw(st.booleans()):
        lasso = Lasso(stem, cycle, two_sided=True,
                      past_cycle=tuple(draw(words)))
    else:
        lasso = Lasso(stem, cycle)
    return sys, lasso, draw(st.sampled_from(threshold_grid(sys).positive))


@settings(deadline=None, max_examples=300)
@given(lasso_cells())
def test_construct_shadow_point_matches_the_viable_set_locator(cell):
    assert construct_shadow_point(*cell) == construct_shadow_point_reference(
        *cell)


def check_failed_at_is_the_dying_step(sys):
    """On every failing grid cell, the viable set along the certificate's
    lasso dies at the step where the die search saw it die."""
    grid = threshold_grid(sys).positive
    for delta in grid:
        for eps in grid:
            holds, cert = shadowing_holds(sys, delta, eps)
            if not holds:
                point, info = shadowing.construct_shadow_point(
                    sys, cert.lasso, eps)
                assert point is None, (delta, eps)
                assert info["failed_at"] == cert.dying_step, (delta, eps)


def test_failed_at_is_the_dying_step():
    for sys in seeded_corpus(40, 8):
        check_failed_at_is_the_dying_step(sys)


def tight_cycle_with_far_fixed_point():
    # 3-cycle c0->c1->c2 with mutual distance 1, plus a fixed point p at
    # distance 4 from the cycle
    return hand_system(
        ("c0", "c1", "c2", "p"),
        lambda p, q: 0 if p == q else (4 if "p" in (p, q) else 1),
        {"c0": "c1", "c1": "c2", "c2": "c0", "p": "p"},
        invertible=True,
    )


def test_periodic_versus_strong_periodic_divergence():
    sys = tight_cycle_with_far_fixed_point()
    # At delta=4 the step graph keeps cycle vertices among themselves
    # (errors <= 1) and p on itself.  Any closed walk over cycle
    # vertices stays within distance 1 of any cycle point's orbit, so
    # plain periodic tracing holds at epsilon=4.  But a period-2 walk
    # (c0, c1) has no tracer with f^2(x) = x: the only such point is p,
    # which sits at distance 4 (not < 4).
    ok, cert = periodic_shadowing_holds(sys, 4, 4, period_bound=3)
    assert ok and cert is None
    # ... and already the period-1 walk staying at c0 (an f-error of 1,
    # fine at delta=4) defeats it: the only fixed point is p.
    ok, cert = strong_periodic_shadowing_holds(sys, 4, 4, period_bound=3)
    assert not ok
    assert cert.lasso.cycle == ("c0",)
    assert is_pseudo_orbit(sys, cert.lasso, Fraction(4))
    period = len(cert.lasso.cycle)
    for z in sys.points:
        if sys.apply(z, period) != z:
            continue
        assert any(
            sys.d(sys.apply(z, i), cert.lasso[i]) >= 4 for i in range(period)
        )


def test_small_bound_warns_when_graph_has_longer_cycles():
    sys = tight_cycle_with_far_fixed_point()
    with pytest.warns(BoundTooSmall):
        periodic_shadowing_holds(sys, 4, 4, period_bound=2)
    with pytest.warns(BoundTooSmall):
        strong_periodic_shadowing_holds(sys, 4, 4, period_bound=1)


def test_bound_warns_at_a_part_no_larger_than_the_bound():
    # the step graph at delta = 7/12 is one part of 5 vertices and 9
    # edges, so it has primitive closed walks of every length past some
    # point; the first untraced one has length 7
    sys = build_random_system(3, 5, invertible=True)
    for bound, holds in ((6, True), (7, False)):
        with pytest.warns(BoundTooSmall):
            assert periodic_shadowing_holds(
                sys, Fraction(7, 12), Fraction(13, 12), bound)[0] is holds


def test_periodic_brute_check_on_random_systems():
    # independent check: enumerate closed delta-walks directly (all
    # rotations, repetitions included) and ask the definitional
    # question per walk
    for seed in (11, 12):
        sys = random_system(seed=seed, n=4)
        grid = threshold_grid(sys)
        bound = 4
        for delta in grid.positive:
            g = chain_graph(sys, delta)
            walks = []

            def grow(walk):
                if len(walk) > bound:
                    return
                walks.append(tuple(walk))
                for u in g.succ[walk[-1]]:
                    walk.append(u)
                    grow(walk)
                    walk.pop()

            for v in range(sys.n):
                grow([v])
            closed = [w for w in walks if w[0] in g.succ[w[-1]]]
            for eps in grid.positive:
                expect = True
                for w in closed:
                    lasso = Lasso(cycle=tuple(sys.points[i] for i in w))
                    traced = any(
                        sys.apply(z, len(w)) == z
                        and shadows(sys, z, lasso, eps)
                        for z in sys.points
                    )
                    if not traced:
                        expect = False
                        break
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", BoundTooSmall)
                    got, cert = strong_periodic_shadowing_holds(
                        sys, delta, eps, period_bound=bound
                    )
                assert got == expect, (seed, delta, eps)


def test_state_cap_raises(monkeypatch):
    sys = random_system(seed=2, n=6)
    grid = threshold_grid(sys)
    with pytest.raises(StateExplosion):
        shadowing_holds(sys, grid.top, grid.positive[0], cap=3)
    monkeypatch.setenv("DYNLAB_SUBSET_CAP", "3")
    with pytest.raises(StateExplosion):
        shadowing_holds(sys, grid.top, grid.positive[0])


def test_limit_tracing_requires_exact_tail():
    sys = cycle_system(3)
    r0, r1, r2 = sys.points
    # stem content is irrelevant; the phase of the cycle decides the tracer
    lasso = Lasso(stem=(r2, r2), cycle=(r2, r0, r1))
    out = specification.generalized_spec_checks(sys, "limit", lasso)
    assert out["holds"]
    x = out["point"]
    assert x == r0  # f^2(r0) = r2 matches position 2, and onward exactly
    for i in range(2, 14):
        assert sys.apply(x, i) == lasso[i]
    assert specification.generalized_spec_checks(
        sys, "limit", Lasso(cycle=(r0, r2))) == {
            "variant": "limit", "holds": False, "point": None}
    with pytest.raises(ValueError,
                       match="blocking is a forward-time construction"):
        specification.generalized_spec_checks(
            sys, "limit", Lasso(cycle=(r0, r1, r2), two_sided=True))


def test_linear_envelope_on_two_point_identity():
    sys = two_points_identity()  # distances {0, 1}, identity map
    # grid {1/2, 1, 2}: below 1 pseudo-orbits are constant (traced
    # exactly), at delta=2 the alternating sequence forces epsilon=2;
    # so eps*(1/2)=1/2, eps*(1)=1/2, eps*(2)=2, and the cheapest
    # certified envelope is L=1 at d0=1/2
    assert lipschitz_constants(sys) == (Fraction(1), Fraction(1, 2))


def test_linear_envelope_certifies_its_claim():
    for seed in (1, 9):
        sys = random_system(seed=seed, n=4)
        L, d0 = lipschitz_constants(sys)
        for d in threshold_grid(sys).positive:
            if d <= d0:
                assert shadowing_holds(sys, d, L * d)[0]


def test_special_tracing_combines_both_tables():
    sys = cycle_system(4)
    ok, info = special_shadowing_holds(sys, Fraction(1, 2))
    assert ok
    assert info["shadowing_delta"] is not None
    assert info["periodic_delta"] is not None


def test_random_spot_checks_certificates():
    rng = random.Random(99)
    for _ in range(8):
        seed = rng.randrange(10**6)
        sys = random_system(seed=seed, n=5)
        grid = threshold_grid(sys)
        delta = rng.choice(grid.positive)
        eps = rng.choice(grid.positive)
        ok, cert = shadowing_holds(sys, delta, eps)
        if not ok:
            assert_counterexample(sys, cert, delta, eps)


# -- skipped work: table rows carry their best delta, chain searches skip
# -- repeated gap structures ---------------------------------------------------

TABLES = ("shadowing", "periodic", "strong-periodic", "spec-weak", "spec-full")


def library_table(sys, prop, bound):
    """The rows of one of the five tables, bound as period and k bound."""
    return shadowing.modulus_table(sys, prop, bound).rows


def reference_table(sys, prop, bound):
    """The carry-free reference rows of one of the five tables, bound as
    period and k bound; the reference must find every spec row's delta
    at N = 1, and its (N, delta) is read as the plain delta."""
    rows = modulus_table_reference(sys, prop, bound, bound)
    if not prop.startswith("spec-"):
        return rows
    assert all(best is not None and best[0] == 1 for _, best in rows), prop
    return tuple((eps, best[1]) for eps, best in rows)


def check_tables(sys, bound=3):
    """Each of the five tables equals the carry-free reference."""
    for prop in TABLES:
        assert library_table(sys, prop, bound) == reference_table(
            sys, prop, bound), prop


def log_cells(monkeypatch):
    """Log (table, d_cut, e_cut) of every cell decided, with delta and
    epsilon as their cutoffs: the library's tables and the public
    single-cell names, which the references call, alike decide a cell
    through the predicate of ``shadowing._decider``."""
    cells = []
    real = shadowing._decider

    def make_logged(sys, table, *args, **kwargs):
        holds = real(sys, table, *args, **kwargs)

        def logged(d_cut, e_cut):
            cells.append((table, d_cut, e_cut))
            return holds(d_cut, e_cut)
        return logged

    for module in (shadowing, specification):
        monkeypatch.setattr(module, "_decider", make_logged)
    return cells


def is_subsequence(sub, seq):
    rest = iter(seq)
    return all(any(x == y for y in rest) for x in sub)


small_systems = st.builds(build_random_system, st.integers(0, 10 ** 6),
                          st.integers(1, 5), st.booleans())


@settings(deadline=None, max_examples=40)
@given(small_systems, st.sampled_from(TABLES))
def test_tables_decide_a_subset_of_the_carry_free_cells(sys, prop):
    # the library may skip cells, never add or reorder them
    with pytest.MonkeyPatch.context() as mp:
        cells = log_cells(mp)
        got = library_table(sys, prop, 3)
        decided = list(cells)
        cells.clear()
        expected = reference_table(sys, prop, 3)
    assert got == expected
    assert is_subsequence(decided, cells)


ANY_TRACER_TABLES = ("shadowing", "periodic", "spec-weak")


def searched_cells(sys, prop, bound):
    """The (d_cut, e_cut) cells one table decides."""
    with pytest.MonkeyPatch.context() as mp:
        cells = log_cells(mp)
        library_table(sys, prop, bound)
    assert {table for table, _, _ in cells} <= {prop}
    return [(d_cut, e_cut) for _, d_cut, e_cut in cells]


@settings(deadline=None, max_examples=40)
@given(small_systems, st.sampled_from(TABLES))
def test_tables_search_no_sentinel_cell_with_a_definitional_answer(sys, prop):
    # at delta up to the least positive distance every pseudo-orbit is an
    # orbit; above every distance any orbit traces, exact period aside
    top = len(sys.distance_values)
    for d_cut, e_cut in searched_cells(sys, prop, 3):
        assert d_cut > 1, (prop, d_cut)
        assert prop not in ANY_TRACER_TABLES or e_cut < top, (prop, e_cut)


@settings(deadline=None, max_examples=30)
@given(small_systems)
def test_single_row_moduli_answer_as_the_table_rows(sys):
    # the row rule of the tables: every grid epsilon answered as the
    # shadowing and periodic rows, with no sentinel cell searched
    shadow = dict(library_table(sys, "shadowing", 3))
    periodic = dict(library_table(sys, "periodic", 3))
    top = len(sys.distance_values)
    for eps in threshold_grid(sys).positive:
        with pytest.MonkeyPatch.context() as mp:
            cells = log_cells(mp)
            assert shadowing_modulus(sys, eps) == shadow[eps]
            assert special_shadowing_holds(sys, eps, 3)[1] == {
                "shadowing_delta": shadow[eps],
                "periodic_delta": periodic[eps]}
        for _, d_cut, e_cut in cells:
            assert d_cut > 1 and e_cut < top


# each public single-cell call, and the two calls built on single
# cells, with the arguments (table, bound, cap, N, warn) it must hand
# the cell search; a cap of 50 and N = 2 stand out from the defaults
CELL_ARGUMENTS = (
    (lambda sys: shadowing.shadowing_holds(sys, 1, 1, 50),
     [("shadowing", 8, 50, 1, True)]),
    (lambda sys: shadowing.periodic_shadowing_holds(sys, 1, 1, 3, 50),
     [("periodic", 3, 50, 1, True)]),
    (lambda sys: shadowing.strong_periodic_shadowing_holds(sys, 1, 1, 3, 50),
     [("strong-periodic", 3, 50, 1, True)]),
    (lambda sys: specification.local_weak_spec_holds(sys, 1, 2, 1, 50),
     [("spec-weak", 8, 50, 2, True)]),
    (lambda sys: specification.local_spec_holds(sys, 1, 2, 1, 3, 50),
     [("spec-full", 3, 50, 2, True)]),
    (lambda sys: specification.pairwise_tracing_chain(sys, 1, 1, 3, 50),
     [(prop, 3, 50, 1, True)
      for prop in ("spec-full", "periodic", "strong-periodic")]),
    (lambda sys: specification.derived_periodic_shadowing(sys, 2, 3, 50),
     [("periodic", 3, 50, 1, False)]),
)


def check_cell_arguments():
    """Each call of ``CELL_ARGUMENTS`` on one small system asks the cell
    search with its own table name, bound, cap and N.  The calls are
    logged where ``_decide_cell`` reads the search, so a faulty copy of
    a public call is logged too."""
    sys, real = build_random_system(1, 4), shadowing._decider
    for call, expected in CELL_ARGUMENTS:
        logged = []

        def logging_decider(sys, *args):
            logged.append(args)
            return real(sys, *args)

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundTooSmall)
            mp.setattr(shadowing, "_decider", logging_decider)
            call(sys)
        assert logged == expected


def test_single_cells_pass_their_own_table_bound_cap_and_n():
    check_cell_arguments()


def test_tables_scan_no_walk_for_the_bound():
    # single-cell calls on this system warn at bound 6 (see below); the
    # tables, the single-row moduli and the derived transfer answer a
    # threshold and scan no walk, so none warns
    sys = build_random_system(3, 5, invertible=True)
    with pytest.warns(BoundTooSmall):
        periodic_shadowing_holds(sys, Fraction(7, 12), Fraction(13, 12), 6)
    with pytest.warns(BoundTooSmall):
        specification.local_spec_holds(sys, Fraction(13, 12), 1,
                                       Fraction(7, 12), 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundTooSmall)
        for prop in TABLES:
            library_table(sys, prop, 6)
        for eps in threshold_grid(sys).positive:
            special_shadowing_holds(sys, eps, 6)
            specification.derived_periodic_shadowing(sys, eps, 6)


def test_the_library_silences_no_warning():
    # the tables scan no walk for BoundTooSmall, so no path of the
    # library needs a warnings filter
    found = []
    for path in sorted(pathlib.Path(dynlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "catch_warnings":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_exact_period_tables_search_above_every_distance():
    # on xpq(3,2) window 2 the exact-period rows at epsilon = 2 are 1/4:
    # a closed walk there can have no tracer of its own period
    sys = window_system(build_xpq(3, 2), 2)
    top = threshold_grid(sys).positive[-1]
    counts = {}
    for prop in TABLES:
        cells = searched_cells(sys, prop, 3)
        counts[prop] = len(cells)
        assert any(e_cut == sys.lt_cutoff(top) for _, e_cut in cells) == (
            prop not in ANY_TRACER_TABLES), prop
        best = top if prop in ANY_TRACER_TABLES else Fraction(1, 4)
        assert library_table(sys, prop, 3)[-1] == (top, best), prop
    assert counts == {"shadowing": 8, "periodic": 8, "strong-periodic": 10,
                      "spec-weak": 8, "spec-full": 10}


@settings(deadline=None, max_examples=25)
@given(small_systems, st.integers(1, 2))
def test_chain_searches_answer_as_the_skip_free_references(sys, N):
    # every gap searched, at a cap of 40: the weak search caps each gap
    # on its own, so it caps exactly where the reference does; the
    # closed-chain searches count across gaps and may decide more
    grid = threshold_grid(sys).positive
    for delta in grid:
        for eps in grid:
            assert (outcome(specification.local_weak_spec_holds, sys, eps, N,
                            delta, 40)
                    == outcome(local_weak_spec_reference, sys, eps, N, delta,
                               40))
            assert_matches_reference(
                lambda c: outcome(specification.local_spec_holds, sys, eps,
                                  N, delta, 3, c),
                lambda c: outcome(local_spec_reference, sys, eps, N, delta,
                                  3, c),
                40)
            if N == 1:
                assert_matches_reference(
                    lambda c: outcome(periodic_shadowing_holds, sys, delta,
                                      eps, 3, c),
                    lambda c: outcome(periodic_variant_reference, sys, delta,
                                      eps, 3, False, c),
                    40)


def test_envelope_reads_the_least_epsilon_off_the_shadowing_table():
    # the envelope of the definitional scan (for each d, the least eps
    # that traces, every cell decided), which the library reads off the
    # shadowing table, deciding only the cells the table decides
    for seed in (3, 4, 5):
        sys = random_system(seed=seed, n=4)
        grid = threshold_grid(sys).positive
        least = [next(e for e in grid if shadowing_holds(sys, d, e)[0])
                 for d in grid]
        slopes = itertools.accumulate(
            (eps / d for d, eps in zip(grid, least)), max)
        _, _, L, d0 = min((slope * d, -d, slope, d)
                          for d, slope in zip(grid, slopes))
        with pytest.MonkeyPatch.context() as mp:
            cells = log_cells(mp)
            assert lipschitz_constants(sys) == (L, d0)
            decided = list(cells)
            cells.clear()
            modulus_table(sys, "shadowing")
        assert decided == cells
