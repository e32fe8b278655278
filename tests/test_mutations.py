"""Planted faults that the oracle comparisons must catch.

Each case builds a faulty copy of one library function from its own
source with one fragment replaced, monkeypatches it in, and asserts
that a named comparison against a reference passes on the real code
and fails on the copy.  A fragment that no longer occurs in the source
fails the case, so each fault follows the code it is planted in.
"""

import inspect
import textwrap
from fractions import Fraction

import pytest

from dynlab import (battery, cli, core, expansive, gallery, recurrence,
                    shadowing, specification, symbolic)
from dynlab.core import FiniteSystem, threshold_grid
from dynlab.gallery import build_random_system, build_xpq
from dynlab.specification import local_spec_holds

from helpers import cycle_system, scalene_cycle, stem_into_cycle
from oracles import (local_spec_reference, local_weak_spec_reference,
                     myex_table_reference, periodic_variant_reference,
                     window_table_reference)
from test_recurrence import (check_parts_out_of_order,
                             swap_beside_a_relation_cycle, two_fixed_points)
from test_recurrence_kernel import (check_chain_graphs, check_cp_parts,
                                    check_nonwandering, check_power_masks,
                                    check_primitive, check_recurrence,
                                    wielandt)
from test_cli import check_shared_load
from test_cli_table import check_table_grammar, grammar_files
from test_metric import (check_built_as_reference, check_metric,
                         check_packed_triangles)
from test_records import check_records
from test_battery import check_order_laws, two_loop_window
from test_shadowing import (check_cell_arguments,
                           check_failed_at_is_the_dying_step, check_tables)
from test_specification import check_gap_range, check_two_sided_corpus
from test_core import check_orbit_table, check_two_sided_shadows
from test_expansive import check_hierarchy
from test_spread import check_spread
from test_tracing_kernel import check_gap_structures
import test_digraph
import test_specification
import test_symbolic


def plant(monkeypatch, owners, name, fragment, fault, *more):
    """Set ``name`` on every owner to a copy of the function whose source
    has ``fragment`` (occurring once) replaced by ``fault``; ``more``
    gives further (fragment, fault) pairs for the same copy."""
    original = getattr(owners[0], name)
    # an attribute built on first read is planted in its build function
    original = getattr(original, "build", original)
    source = textwrap.dedent(inspect.getsource(original))
    for old, new in ((fragment, fault), *more):
        assert source.count(old) == 1, (name, old)
        source = source.replace(old, new)
    namespace = dict(original.__globals__)
    exec(compile(source, f"<faulty {name}>", "exec"), namespace)
    for owner in owners:
        monkeypatch.setattr(owner, name, namespace[name])


def check_wielandt_digraphs():
    for m in range(1, 9):
        check_primitive(wielandt(m))


def check_scalene_gap_structures():
    """The gap structures of a fresh scalene 3-cycle, whose memo no
    earlier call filled, at one delta and two epsilons whose balls
    differ."""
    check_gap_structures(scalene_cycle(), [
        (Fraction(4), Fraction(1, 2), 1), (Fraction(4), Fraction(4), 1),
        (Fraction(1), Fraction(2), 2)])


def test_primitive_stopping_one_exponent_early(monkeypatch):
    check_wielandt_digraphs()
    plant(monkeypatch, [recurrence], "_primitive",
          "(len(rows) - 1) ** 2 + 1", "(len(rows) - 1) ** 2")
    with pytest.raises(AssertionError):
        check_wielandt_digraphs()


def test_power_masks_of_a_map_one_step_short(monkeypatch):
    check_power_masks(cycle_system(4), range(1, 9))
    plant(monkeypatch, [recurrence], "_power_masks",
          "sys.power(i, a)", "sys.power(i, a - 1)")
    with pytest.raises(AssertionError):
        check_power_masks(cycle_system(4), range(1, 9))


def test_power_masks_of_a_relation_skipping_the_lowest_bit(monkeypatch):
    # b and c swap under the relation, so odd and even powers differ
    check_power_masks(swap_beside_a_relation_cycle(), range(1, 7))
    plant(monkeypatch, [core, recurrence], "_row_power",
          "    while a:\n", "    a &= ~1\n    while a:\n")
    with pytest.raises(AssertionError):
        check_power_masks(swap_beside_a_relation_cycle(), range(1, 7))


def test_verify_pushing_parts_only_when_they_shift(monkeypatch):
    # the shortcut inverted: parts listed out of order are not pushed,
    # and their failed shift check is not recorded
    check_parts_out_of_order(cycle_system(5))
    plant(monkeypatch, [recurrence.Decomposition], "verify",
          "if not shifted:", "if shifted:")
    with pytest.raises(AssertionError):
        check_parts_out_of_order(cycle_system(5))


def test_image_dropping_bit_zero(monkeypatch):
    check_chain_graphs(cycle_system(3))
    plant(monkeypatch, [core, recurrence], "_image",
          "    out = 0\n", "    out, w = 0, w & ~1\n")
    with pytest.raises(AssertionError):
        check_chain_graphs(cycle_system(3))


def test_nonwandering_reading_every_strong_component(monkeypatch):
    # the transient points s0 and s1 are strong components of their own,
    # with no closed walk through them
    check_nonwandering(stem_into_cycle())
    plant(monkeypatch, [recurrence], "nonwandering_set",
          "_cyclic_components(_step_sets(sys))",
          "_strong_components(_step_sets(sys))")
    with pytest.raises(AssertionError):
        check_nonwandering(stem_into_cycle())


def test_orbit_table_transient_dropping_itself(monkeypatch):
    # s0 and s1 take the prefixes of their images without themselves
    check_orbit_table(stem_into_cycle())
    plant(monkeypatch, [FiniteSystem], "_orbits",
          "(u,) + prefixes[v]", "prefixes[v]")
    with pytest.raises(AssertionError):
        check_orbit_table(stem_into_cycle())


def test_stable_set_parts_grouped_by_the_image(monkeypatch):
    # in the width-1 window of xpq(3, 2) some members of the piece meet
    # only after two steps
    check_cp_parts(symbolic.window_system(build_xpq(3, 2), 1))
    plant(monkeypatch, [recurrence], "_stable_parts",
          "_eventual_images(sys), {}, {}", "sys.fmap, {}, {}")
    with pytest.raises(AssertionError):
        check_cp_parts(symbolic.window_system(build_xpq(3, 2), 1))


def test_closed_walk_test_dropping_the_self_loop(monkeypatch):
    check_recurrence(two_fixed_points())
    plant(monkeypatch, [recurrence], "_cyclic_components",
          "len(comp) > 1 or comp[0] in succ[comp[0]]", "len(comp) > 1")
    with pytest.raises(AssertionError):
        check_recurrence(two_fixed_points())


def test_basic_sets_read_above_the_least_distance(monkeypatch):
    # the second positive grid delta is the least positive distance,
    # where the open balls are still single points: the third is the
    # first delta whose chain graph can differ from the step relation
    check_recurrence(two_fixed_points())
    plant(monkeypatch, [recurrence], "basic_sets", "_step_sets(sys)",
          "chain_graph(sys, threshold_grid(sys).positive[2]).succ")
    with pytest.raises(AssertionError):
        check_recurrence(two_fixed_points())


def test_lt_cutoff_counting_the_threshold_itself(monkeypatch):
    # at delta = 1 a closed ball would let the fixed point z chain back
    # to the transient point s1
    check_recurrence(stem_into_cycle())
    plant(monkeypatch, [FiniteSystem], "lt_cutoff",
          "bisect_left(", "bisect_right(")
    with pytest.raises(AssertionError):
        check_recurrence(stem_into_cycle())


def test_spread_pair_orbit_one_step_short(monkeypatch):
    # the self-pair orbit through (c0, c1) reaches its largest distance,
    # at (c2, c0), on its third and last step
    check_spread(scalene_cycle())
    plant(monkeypatch, [FiniteSystem], "_build_spread_rank",
          "steps = math.lcm(len(c1), len(c2))",
          "steps = math.lcm(len(c1), len(c2)) - 1")
    with pytest.raises(AssertionError):
        check_spread(scalene_cycle())  # a fresh system: no cached spread


def test_spread_max_walk_one_step_short(monkeypatch):
    # only the max walk is cut: the writes still cover the whole orbit,
    # and the one walk of offset 1 is the only one that sees (c2, c0)
    check_spread(scalene_cycle())
    plant(monkeypatch, [FiniteSystem], "_build_spread_rank",
          "for _ in range(steps):\n                    if rank[u][v] > worst:",
          "for _ in range(steps - 1):\n"
          "                    if rank[u][v] > worst:")
    with pytest.raises(AssertionError):
        check_spread(scalene_cycle())


def test_spread_preperiodic_pass_dropping_the_own_rank(monkeypatch):
    # s0 -> s1 -> z -> z: every image pair of (s0, z) is closer than it
    check_spread(stem_into_cycle())
    plant(monkeypatch, [FiniteSystem], "_build_spread_rank",
          "if ranks[b] > worst:", "if False:")
    with pytest.raises(AssertionError):
        check_spread(stem_into_cycle())


def check_hierarchy_corpus():
    for seed in range(4):
        check_hierarchy(build_random_system(seed, 5, seed % 2 == 0))


def test_n_expansive_floor_reading_the_nth_smallest_entry(monkeypatch):
    check_hierarchy_corpus()
    plant(monkeypatch, [expansive], "_n_floor", "_build_n_floors(sys))[n]",
          "_build_n_floors(sys))[n - 1]")
    with pytest.raises(AssertionError):
        check_hierarchy_corpus()


def test_triangle_check_rejecting_equality(monkeypatch):
    collinear = ["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    check_metric(*collinear)
    # both passes: the packed pass over the pairs, then the rescan in
    # product order; the packed one is planted first, so that the copy
    # of _check_metric, made over core's globals, calls the faulty one
    plant(monkeypatch, [core], "_triangles_hold", "scaled[i][j] * ones",
          "(scaled[i][j] - 1) * ones")
    plant(monkeypatch, [core], "_check_metric",
          ("> bound:\n"
           "            k = next(k for k in range(n) if row_i[k] - row_j[k] > bound)"),
          (">= bound:\n"
           "            k = next(k for k in range(n) if row_i[k] - row_j[k] >= bound)"))
    with pytest.raises(AssertionError):
        check_metric(*collinear)


def test_triangle_fields_one_bit_narrow(monkeypatch):
    check_packed_triangles()
    plant(monkeypatch, [core], "_triangles_hold", "bit_length() + 2",
          "bit_length() + 1")
    with pytest.raises(AssertionError):
        check_packed_triangles()


def test_walk_fields_one_bit_narrow(monkeypatch):
    # maps never reach the packed fields; the walks of the relation with
    # two looped vertices, which has no twins, set the field width exactly
    test_digraph.check_closed_forms()
    plant(monkeypatch, [core, test_digraph], "_closed_walk_counts",
          "most.bit_length()", "most.bit_length() - 1")
    with pytest.raises(AssertionError):
        test_digraph.check_closed_forms()


def test_twin_quotient_rows_as_sets(monkeypatch):
    # one edge per class reached drops the edges of its other members
    test_digraph.check_twin_quotients()
    plant(monkeypatch, [core, test_digraph], "_twin_quotient",
          "tuple(sorted(map(cls.__getitem__, row)))",
          "tuple(sorted(set(map(cls.__getitem__, row))))")
    with pytest.raises(AssertionError):
        test_digraph.check_twin_quotients()


def test_map_walks_counting_cycles_not_their_points(monkeypatch):
    test_digraph.check_closed_forms()
    test_digraph.check_map_spectra()
    # one fault in the one cycle spectrum fails both routes to it
    plant(monkeypatch, [core, battery], "_cycle_spectrum",
          "points[p - 1] += p", "points[p - 1] += 1")
    with pytest.raises(AssertionError):
        test_digraph.check_closed_forms()
    with pytest.raises(AssertionError):
        test_digraph.check_map_spectra()


def test_primitive_mask_keeping_the_next_field(monkeypatch):
    test_digraph.check_primitive_listing()
    plant(monkeypatch, [core, test_digraph], "_closed_walk_counts",
          "(1 << s + width) - 1", "(1 << s + 2 * width) - 1")
    with pytest.raises(AssertionError):
        test_digraph.check_primitive_listing()


def test_two_sided_closed_form_off_the_past_or_the_stem(monkeypatch):
    check_two_sided_corpus()
    for fragment, fault in (
            ("point = lasso.past[0]", "point = lasso.past[-1]"),
            ("sys.apply(point, len(lasso.stem))", "point")):
        with monkeypatch.context() as faulty:
            plant(faulty, [specification, test_specification],
                  "generalized_spec_checks", fragment, fault)
            with pytest.raises(AssertionError):
                check_two_sided_corpus()


def test_tracking_window_one_step_short(monkeypatch):
    check_scalene_gap_structures()
    plant(monkeypatch, [shadowing], "_gap_structures",
          "step, allowed = layers[n]\n",
          "step, allowed = layers[n][0], layers[n - 1][1]\n")
    with pytest.raises(AssertionError):
        check_scalene_gap_structures()


def test_window_entry_keyed_on_the_delta_cutoff(monkeypatch):
    check_scalene_gap_structures()
    plant(monkeypatch, [shadowing], "_gap_structures",
          '("windows", e_cut)', '("windows", d_cut)')
    with pytest.raises(AssertionError):
        check_scalene_gap_structures()


def check_window_table():
    sft = build_xpq(3, 2)
    check_built_as_reference(symbolic.window_system(sft, 2),
                             window_table_reference(sft, 2))


def test_window_distance_one_power_of_two_off(monkeypatch):
    check_window_table()
    plant(monkeypatch, [symbolic], "window_system",
          "= 1 << (w - r)\n", "= 1 << (w - r + 1)\n")
    with pytest.raises(AssertionError):
        check_window_table()


def check_satellite_table():
    check_built_as_reference(gallery.build_myex(3, 2).system,
                             myex_table_reference(3, 2))


def test_satellite_offset_one_over_k_plus_one(monkeypatch):
    check_satellite_table()
    plant(monkeypatch, [gallery], "build_myex",
          "(scale // k, pt)", "(scale // (k + 1), pt)")
    with pytest.raises(AssertionError):
        check_satellite_table()


def test_table_carry_one_grid_step_past_the_previous_best(monkeypatch):
    check_tables(build_random_system(1, 3))
    plant(monkeypatch, [shadowing, cli], "_best_delta", "d_cut <= last",
          "d_cut <= last + 1")
    with pytest.raises(AssertionError):
        check_tables(build_random_system(1, 3))


# two_loop_window, xpq(3,2) at window 1: its strong periodic and local
# specification rows at the top epsilon are 1/2, and below the top
# epsilon every table fails at delta = 1, the second positive distance


def test_table_any_tracer_rule_on_the_exact_period_tables(monkeypatch):
    check_tables(two_loop_window())
    plant(monkeypatch, [shadowing, cli], "_best_delta",
          "not _TABLES[prop][0]", "True")
    with pytest.raises(AssertionError):
        check_tables(two_loop_window())


def test_table_submin_rule_one_distance_too_far(monkeypatch):
    check_tables(two_loop_window())
    plant(monkeypatch, [shadowing, cli], "_best_delta",
          "d_cut <= 1", "d_cut <= 2")
    with pytest.raises(AssertionError):
        check_tables(two_loop_window())


def check_strong_periodic_cells(sys, bound=3):
    """Strong periodic shadowing answers as the walk-listing reference
    at every grid cell, certificate included."""
    grid = threshold_grid(sys).positive
    for delta in grid:
        for eps in grid:
            assert (shadowing.strong_periodic_shadowing_holds(
                sys, delta, eps, bound) == periodic_variant_reference(
                    sys, delta, eps, bound, True)), (delta, eps)


def test_closed_chain_tables_read_mod_a_proper_divisor_of_the_period(
        monkeypatch):
    # cycle lengths with lcm 4 at bound 5: walks of length 4 and 5 read
    # the tables at residues 0 and 1, which the fault reads mod 2
    check_strong_periodic_cells(build_random_system(0, 4, True), 5)
    plant(monkeypatch, [shadowing], "_closed_search",
          "min(bound, sys.cycle_lcm)", "min(bound, sys.cycle_lcm // 2)")
    with pytest.raises(AssertionError):
        check_strong_periodic_cells(build_random_system(0, 4, True), 5)


def check_weak_spec_cells(sys):
    """Local weak specification at N = 1 answers as the frozenset
    reference at every grid cell, counterexample included."""
    grid = threshold_grid(sys).positive
    for delta in grid:
        for eps in grid:
            assert (specification.local_weak_spec_holds(sys, eps, 1, delta)
                    == local_weak_spec_reference(sys, eps, 1, delta)), (
                        delta, eps)


def test_table_verdict_ignoring_the_exact_period(monkeypatch):
    # the strong periodic cells at the top epsilon fail there, and pass
    # when any periodic tracer will do
    check_strong_periodic_cells(two_loop_window())
    monkeypatch.setitem(shadowing._TABLES, "strong-periodic",
                        (False, False, "strong periodic"))
    with pytest.raises(AssertionError):
        check_strong_periodic_cells(two_loop_window())


def test_weak_spec_rule_deciding_periodic_shadowing(monkeypatch):
    # on this system the periodic best delta exceeds shadowing's at 8
    # grid epsilons, from 1/12 on, so weak specification's order fails
    sys = build_random_system(7, 6)
    check_order_laws(sys)
    check_weak_spec_cells(sys)
    monkeypatch.setitem(shadowing._TABLES, "spec-weak",
                        (False, False, "periodic"))
    with pytest.raises(AssertionError):
        check_order_laws(sys)
    with pytest.raises(AssertionError):
        check_weak_spec_cells(sys)


def test_gap_range_one_gap_short(monkeypatch):
    # the scalene cycle's windows change at gap T + P = 3, so the last
    # gap, 5, is the only one with f^2 and the settled windows
    check_gap_range(scalene_cycle())
    plant(monkeypatch, [shadowing, specification], "gap_values",
          "T + 2 * P", "T + 2 * P - 1")
    with pytest.raises(AssertionError):
        check_gap_range(scalene_cycle())


def test_failed_at_read_off_the_earliest_miss(monkeypatch):
    check_failed_at_is_the_dying_step(build_random_system(1, 4))
    plant(monkeypatch, [shadowing], "construct_shadow_point", "max(misses)",
          "min(misses)")
    with pytest.raises(AssertionError):
        check_failed_at_is_the_dying_step(build_random_system(1, 4))


def check_exact_period_hits():
    sys = build_random_system(0, 3, True)  # fresh: hits are memoized
    grid = threshold_grid(sys).positive
    for delta in grid:
        for eps in grid:
            assert (local_spec_holds(sys, eps, 1, delta, 4)
                    == local_spec_reference(sys, eps, 1, delta, 4))


def test_exact_period_hits_reading_k_for_k_times_n(monkeypatch):
    check_exact_period_hits()
    plant(monkeypatch, [shadowing], "_closures", "k * n", "k")
    with pytest.raises(AssertionError):
        check_exact_period_hits()


# two rare cells, found by a sweep of random systems, where skipping a
# gap with the same step map but other windows answers wrongly
STEP_ONLY_CELLS = ((36, 6, Fraction(2, 3), Fraction(7, 4)),
                   (39, 5, Fraction(2), Fraction(2)))


def check_step_only_cells():
    for seed, size, delta, eps in STEP_ONLY_CELLS:
        sys = build_random_system(seed, size)
        assert (local_spec_holds(sys, eps, 1, delta, 4)
                == local_spec_reference(sys, eps, 1, delta, 4))


def test_gap_skip_keyed_on_the_step_map_alone(monkeypatch):
    check_step_only_cells()
    plant(monkeypatch, [shadowing], "_decider",
          "key = step, allowed", "key = step")
    with pytest.raises(AssertionError):
        check_step_only_cells()


def check_short_pasts():
    check_two_sided_shadows(cycle_system(2))


def test_backward_window_one_step_short(monkeypatch):
    # on a 2-cycle, c0 traces the past (c1,) at step -1 and fails only
    # at step -2, the last of the joint period
    check_short_pasts()
    plant(monkeypatch, [core, shadowing], "_shadows_backward",
          "range(-back, 0)", "range(-back + 1, 0)")
    with pytest.raises(AssertionError):
        check_short_pasts()


def check_canonical_points():
    # called through the module, so that pytest collects them only there
    test_symbolic.test_symbolic_point_canonical_equality()
    test_symbolic.test_shift_distance_basic()


def test_stem_absorption_without_the_cycle_rotation(monkeypatch):
    check_canonical_points()
    plant(monkeypatch, [symbolic.SymbolicPoint], "__init__",
          "        cycle = cycle[-1:] + cycle[:-1]\n", "")
    with pytest.raises(AssertionError):
        check_canonical_points()


def test_record_hash_dropping_the_last_field(monkeypatch):
    check_records()
    plant(monkeypatch, [core._Record], "__hash__", "hash(self._values(self))",
          "hash(self._values(self)[:-1])")
    with pytest.raises(AssertionError):
        check_records()


def test_record_equality_dropping_the_last_field(monkeypatch):
    check_records()
    plant(monkeypatch, [core._Record], "__eq__",
          "self._values(self) == other._values(other)",
          "self._values(self)[:-1] == other._values(other)[:-1]")
    with pytest.raises(AssertionError):
        check_records()


def test_periodic_wrapper_asking_the_strong_periodic_table(monkeypatch):
    check_cell_arguments()
    plant(monkeypatch, [shadowing], "periodic_shadowing_holds",
          '"periodic", cap, True)', '"strong-periodic", cap, True)')
    with pytest.raises(AssertionError):
        check_cell_arguments()


def test_full_spec_cell_dropping_its_cap(monkeypatch):
    check_cell_arguments()
    plant(monkeypatch, [specification], "local_spec_holds",
          "k_bound, cap)", "k_bound, None)")
    with pytest.raises(AssertionError):
        check_cell_arguments()


def test_weak_spec_cell_reading_gap_one(monkeypatch):
    check_cell_arguments()
    plant(monkeypatch, [specification], "local_weak_spec_holds",
          "epsilon, N, delta, 8", "epsilon, 1, delta, 8")
    with pytest.raises(AssertionError):
        check_cell_arguments()


def test_system_cache_keyed_without_the_window(capsys, tmp_path, monkeypatch):
    check_shared_load(capsys, tmp_path, monkeypatch)
    build, by_text = cli._loaded.__wrapped__, {}

    def keyed_by_text(text, window):
        if text not in by_text:
            by_text.clear()
            by_text[text] = build(text, window)
        return by_text[text]

    keyed_by_text.cache_clear = by_text.clear
    monkeypatch.setattr(cli, "_loaded", keyed_by_text)
    with pytest.raises(AssertionError):
        check_shared_load(capsys, tmp_path, monkeypatch)


@pytest.mark.parametrize("fragment, fault", [
    # an abbreviation argparse finds ambiguous or reads as another option
    ("spec = options.get(argv[i])",
     "spec = next((spec for flag, spec in options.items()\n"
     "                     if flag.startswith(argv[i])), None)"),
    ('if value not in spec.get("choices", (value,)):', "if False:"),
], ids=["matching-a-flag-by-prefix", "skipping-the-choices-check"])
def test_table_parse_off_the_reference_grammar(tmp_path, monkeypatch,
                                               fragment, fault):
    paths = grammar_files(tmp_path)
    check_table_grammar(paths)
    plant(monkeypatch, [cli], "_parse", fragment, fault)
    with pytest.raises(AssertionError):
        check_table_grammar(paths)
