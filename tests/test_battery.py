"""Battery runner: grid sweeps report rows, diagnose hypotheses, and
collect violations without inventing new mathematics."""

import dataclasses
import json
import warnings
from fractions import Fraction

import pytest

from dynlab import battery
from dynlab.battery import BATTERY_IDS, periodic_spectrum, run_theorem_battery
from dynlab.cli import main
from dynlab.gallery import build_myex, build_xpq
from dynlab.symbolic import window_system

from helpers import random_system

warnings.simplefilter("ignore")


def two_loop_window():
    return window_system(build_xpq(3, 2), 1)


def check_order_laws(sys):
    """thmC reports no violation on ``sys``; its best-delta orders are
    checked whether or not its hypotheses hold."""
    assert run_theorem_battery(sys, "thmC")["violations"] == []


def test_battery_id_validation():
    assert BATTERY_IDS == ("thmA", "thmB", "thmC", "thmD", "hierarchy")
    with pytest.raises(ValueError):
        run_theorem_battery(two_loop_window(), "nonsense")


def test_equivalence_battery_agrees_everywhere():
    for sys_ in (two_loop_window(), random_system(3, 4), random_system(4, 5)):
        out = run_theorem_battery(sys_, "thmA", period_bound=4)
        assert out["asserted"] and not out["violations"] and not out["cap_hits"]
        assert all(row["agree"] for row in out["rows"])
        # the rows cover the whole grid and shadowing rows are never empty
        assert all(row["shadowing_delta"] is not None for row in out["rows"])


def test_periodic_spectrum_counts_two_loop():
    # closed-walk counts of the two-loop graph satisfy c_n = c_{n-2} + c_{n-3}
    out = run_theorem_battery(two_loop_window(), "thmA", period_bound=4)
    assert out["periodic_spectrum"] == {
        "1": 0, "2": 2, "3": 3, "4": 2, "5": 5, "6": 5, "7": 7, "8": 10}
    # relation-free route: counts fixed points of iterates directly
    plain = random_system(5, 4)
    spectrum = periodic_spectrum(plain, 4)
    for m in range(1, 5):
        expected = sum(
            1 for i in range(plain.n) if plain.power(i, m) == i)
        assert spectrum[str(m)] == expected


def test_transfer_battery_holds_on_small_systems():
    for sys_ in (two_loop_window(), random_system(6, 3), random_system(7, 4)):
        out = run_theorem_battery(sys_, "thmB", period_bound=3)
        assert out["asserted"] and not out["violations"] and not out["cap_hits"]
        assert any(row["applicable"] for row in out["transfer_rows"])
        assert all(cell["routes_equal"] for cell in out["chain_cells"])
        assert all(cell["holds"] for cell in out["chain_cells"])


def test_matrix_battery_asserts_on_window_system():
    out = run_theorem_battery(two_loop_window(), "thmC", period_bound=4)
    assert out["hypotheses"]["transitive"]
    assert out["hypotheses"]["strong_measure_expansive"]
    assert out["hypotheses"]["lockstep_pair"] is None
    assert out["asserted"]
    assert out["rows"] and all(row["equivalent"] for row in out["rows"])
    assert not out["violations"]


def test_matrix_battery_downgrades_on_satellite_system():
    out = run_theorem_battery(build_myex(2, 1), "thmC", period_bound=4)
    assert not out["hypotheses"]["transitive"]
    assert not out["hypotheses"]["strong_measure_expansive"]
    assert out["hypotheses"]["lockstep_pair"] is not None
    assert not out["asserted"]
    # descriptive: rows are still reported, but nothing is asserted
    assert out["rows"]
    assert out["violations"] == []


def test_decomposition_battery_reverifies():
    out = run_theorem_battery(build_myex(2, 1), "thmD")
    assert all(out["checks"].values())
    assert out["hypothesis_report"]["passes"]
    assert sorted(p["period"] for p in out["pieces"]) == [1, 1, 3]
    assert all(p["routes_agree"] for p in out["pieces"])
    assert not out["violations"]


def test_hierarchy_battery_clean_on_gallery():
    for sys_ in (build_myex(2, 1).system, build_myex(5, 2).system,
                 two_loop_window(), random_system(8, 5)):
        out = run_theorem_battery(sys_, "hierarchy")
        assert out["rows"] and not out["violations"]


def test_state_explosion_recorded_not_raised():
    out = run_theorem_battery(random_system(9, 6), "thmA", cap=1)
    assert out["cap_hits"]
    assert out["rows"] == []


def test_gallery_wrapper_unwrapped():
    # MyexInstance passes straight in; its .system is used
    inst = build_myex(2, 1)
    direct = run_theorem_battery(inst.system, "hierarchy")
    wrapped = run_theorem_battery(inst, "hierarchy")
    assert direct == wrapped


# -- every law can fail: one planted fault per violation path -----------------
#
# Each case replaces one library function as dynlab.battery binds it, by a
# wrapper that plants one wrong answer, and pins the battery's whole
# violations list.


def plant_row(monkeypatch, prop, epsilon, payload=None):
    """Make battery.modulus_table report ``payload`` (default: no delta)
    at ``epsilon`` in its ``prop`` table."""
    real = battery.modulus_table

    def planted(sys_, kind, *args, **kwargs):
        table = real(sys_, kind, *args, **kwargs)
        if kind != prop:
            return table
        return dataclasses.replace(table, rows=tuple(
            (eps, payload if eps == epsilon else best)
            for eps, best in table.rows))

    monkeypatch.setattr(battery, "modulus_table", planted)


def plant_failure(monkeypatch, name, *at):
    """Make battery.<name> answer ``holds: False`` when called with the
    thresholds ``at`` (its positional arguments after the system)."""
    real = getattr(battery, name)

    def planted(sys_, *args, **kwargs):
        row = real(sys_, *args, **kwargs)
        return {**row, "holds": False} if args[:len(at)] == at else row

    monkeypatch.setattr(battery, name, planted)


def plant_decomposition(monkeypatch, change):
    """Make battery.spectral_decomposition report ``change(pieces)``."""
    real = battery.spectral_decomposition

    def planted(sys_):
        dec = real(sys_)
        return dataclasses.replace(dec, pieces=change(dec.pieces))

    monkeypatch.setattr(battery, "spectral_decomposition", planted)


def test_equivalence_violation_names_its_epsilon(monkeypatch):
    plant_row(monkeypatch, "spec-weak", Fraction(1, 2))
    out = run_theorem_battery(two_loop_window(), "thmA", period_bound=4)
    assert [row["agree"] for row in out["rows"]] == [True, False, True, True]
    assert out["violations"] == [{
        "law": "chain-tracing and shadowing rows must be non-empty together",
        "epsilon": "1/2"}]


def test_transfer_violation_names_its_epsilon(monkeypatch):
    plant_failure(monkeypatch, "derived_periodic_shadowing", Fraction(2))
    out = run_theorem_battery(two_loop_window(), "thmB", period_bound=4)
    assert out["violations"] == [{
        "law": "chain tracing at half quality must transfer to periodic "
               "tracing at the derived thresholds",
        "epsilon": "2"}]


def test_pairwise_chain_violation_names_its_cell(monkeypatch):
    plant_failure(monkeypatch, "pairwise_tracing_chain",
                  Fraction(1, 2), Fraction(1))
    out = run_theorem_battery(two_loop_window(), "thmB", period_bound=4)
    assert out["violations"] == [{
        "law": "pairwise tracing chain", "delta": "1/2", "epsilon": "1"}]


def test_matrix_violation_names_its_epsilon(monkeypatch):
    plant_row(monkeypatch, "spec-weak", Fraction(1))
    out = run_theorem_battery(two_loop_window(), "thmC", period_bound=4)
    assert out["asserted"]
    assert [row["equivalent"] for row in out["rows"]] == [
        True, True, False, True]
    assert out["violations"] == [{
        "law": "all six tracing properties must agree under the diagnosed "
               "hypotheses",
        "epsilon": "1"}]


# on two_loop_window at period bound 4 every column's best delta at
# epsilon = 1 is 1/2; each plant breaks one order and no other law
ORDER_FAULTS = {
    "weak-spec-above-shadowing": (
        "shadowing", Fraction(1, 4),
        "weak specification's best delta must not exceed shadowing's"),
    "local-spec-above-strong-periodic": (
        "spec-full", Fraction(2),
        "local specification's best delta must not exceed strong periodic "
        "shadowing's"),
    "strong-periodic-above-periodic": (
        "periodic", Fraction(1, 4),
        "strong periodic shadowing's best delta must not exceed periodic "
        "shadowing's"),
    "strong-periodic-above-an-empty-periodic-row": (
        "periodic", None,
        "strong periodic shadowing's best delta must not exceed periodic "
        "shadowing's"),
}


@pytest.mark.parametrize("prop, payload, law", ORDER_FAULTS.values(),
                         ids=ORDER_FAULTS.keys())
def test_order_violation_names_its_epsilon(monkeypatch, prop, payload, law):
    plant_row(monkeypatch, prop, Fraction(1), payload)
    out = run_theorem_battery(two_loop_window(), "thmC", period_bound=4)
    assert out["asserted"]
    expected = [{"law": law, "epsilon": "1"}]
    if payload is None:  # an empty row also breaks the agreement law
        expected.insert(0, {
            "law": "all six tracing properties must agree under the "
                   "diagnosed hypotheses",
            "epsilon": "1"})
    assert out["violations"] == expected


def test_order_laws_checked_without_the_hypotheses(monkeypatch, capsys,
                                                   tmp_path):
    # myex(2,1) fails both hypotheses: thmC describes its rows, yet an
    # order law that fails is a violation, and exits 1
    path = str(tmp_path / "myex.json")
    assert main(["gallery", "myex", "--lattice", "2", "--K", "1",
                 "--emit", path]) == 0
    capsys.readouterr()
    plant_row(monkeypatch, "shadowing", Fraction(1), Fraction(1, 4))
    code = main(["battery", "--system", path, "--id", "thmC",
                 "--period-bound", "4"])
    out = capsys.readouterr()
    results = json.loads(out.out)["results"]
    assert (code, out.err, results["asserted"]) == (1, "", False)
    assert results["violations"] == [{
        "law": "weak specification's best delta must not exceed shadowing's",
        "epsilon": "1"}]


def test_decomposition_invariant_violation(monkeypatch):
    plant_decomposition(monkeypatch, lambda pieces: pieces[:-1])
    out = run_theorem_battery(build_myex(2, 1), "thmD")
    assert out["violations"] == [
        {"law": "decomposition invariant: covers_nonwandering"}]


def test_decomposition_route_violation_names_its_piece(monkeypatch):
    plant_decomposition(monkeypatch, lambda pieces: (
        pieces[0], dataclasses.replace(pieces[1], routes_agree=False),
        *pieces[2:]))
    out = run_theorem_battery(build_myex(2, 1), "thmD")
    assert all(out["checks"].values())
    assert out["violations"] == [{
        "law": "construction routes must agree when the hypothesis report "
               "passes",
        "piece": ["(0,1/2)", "(1/2,0)", "(1/2,1/2)"]}]


HIERARCHY_VIOLATIONS = [
    {"law": "1-expansive implies strong measure expansive", "delta": "1/4"}]


def test_hierarchy_violation_names_its_delta(monkeypatch):
    monkeypatch.setattr(battery, "strong_measure_expansive_holds",
                        lambda sys_, delta: (False, None))
    out = run_theorem_battery(two_loop_window(), "hierarchy", period_bound=4)
    assert out["violations"] == HIERARCHY_VIOLATIONS


def test_asserted_violation_exits_one_through_cli(monkeypatch, capsys,
                                                  tmp_path):
    path = str(tmp_path / "x32.json")
    assert main(["gallery", "xpq", "--p", "3", "--q", "2",
                 "--emit", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(battery, "strong_measure_expansive_holds",
                        lambda sys_, delta: (False, None))
    code = main(["battery", "--system", path, "--window", "1",
                 "--id", "hierarchy", "--period-bound", "4"])
    out = capsys.readouterr()
    assert (code, out.err) == (1, "")
    results = json.loads(out.out)["results"]
    assert results["asserted"]
    assert results["violations"] == HIERARCHY_VIOLATIONS
