"""Command-line tool: loading, reports, exit codes, determinism."""

import contextlib
import io
import json
import pathlib
import re
import time
import warnings

import pytest

from dynlab import cli
from dynlab.cli import main, parse_system_file
from dynlab.errors import SchemaError
from dynlab.serialize import canonical_json, modulus_csv
from dynlab.shadowing import modulus_table
from dynlab.symbolic import Sft


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def emit_x32(capsys, tmp_path):
    path = tmp_path / "x32.json"
    code, _, _ = run(capsys, "gallery", "xpq", "--p", "3", "--q", "2",
                     "--emit", str(path))
    assert code == 0
    return str(path)


def emit_random(capsys, tmp_path, seed=5, size=4):
    path = tmp_path / f"r{seed}.json"
    code, _, _ = run(capsys, "gallery", "random", "--seed", str(seed),
                     "--size", str(size), "--emit", str(path))
    assert code == 0
    return str(path)


def test_gallery_emits_loadable_system(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    loaded = parse_system_file(path)
    assert isinstance(loaded, Sft)
    assert len(loaded.alphabet) == 4

    rnd = emit_random(capsys, tmp_path)
    finite = parse_system_file(rnd)
    assert finite.n == 4


def test_check_shadowing_decision_and_modulus(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    code, out, _ = run(capsys, "check", "shadowing", "--system", path,
                       "--window", "1", "--epsilon", "1/4", "--delta", "1/8")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["shadowing"]["holds"]
    assert report["results"]["periodic"]["holds"]
    assert report["results"]["strong_periodic"]["holds"]

    code, out, _ = run(capsys, "check", "shadowing", "--system", path,
                       "--window", "1", "--epsilon", "1/4")
    assert code == 0
    assert json.loads(out)["results"]["modulus_delta"] is not None


def test_check_expansive_failure_exits_one(capsys, tmp_path):
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, "gallery", "myex", "--lattice", "2", "--K", "1",
                     "--emit", str(path))
    assert code == 0
    # the satellite keeps constant offset 1 from its anchor
    code, out, _ = run(capsys, "check", "expansive", "--system", str(path),
                       "--variant", "per", "--delta", "1")
    assert code == 1
    assert json.loads(out)["results"]["holds"] is False

    code, out, _ = run(capsys, "check", "expansive", "--system", str(path),
                       "--variant", "strong-measure", "--delta", "1")
    assert code == 1
    witness = json.loads(out)["results"]["counterexample"]
    assert witness["point"] and witness["measure"]


def test_check_spec_paths(capsys, tmp_path):
    path = emit_random(capsys, tmp_path, seed=6, size=3)
    code, out, _ = run(capsys, "check", "spec", "--system", path,
                       "--variant", "weak", "--epsilon", "2")
    assert code == 0
    assert json.loads(out)["results"]["best_delta"] is not None

    code, out, _ = run(capsys, "check", "spec", "--system", path,
                       "--variant", "lipschitz", "--epsilon", "1")
    assert code == 0
    env = json.loads(out)["results"]["envelope"]
    assert set(env) == {"slope", "delta0"}


def test_spectral_exit_and_checks(capsys, tmp_path):
    path = emit_random(capsys, tmp_path, seed=7, size=5)
    code, out, _ = run(capsys, "spectral", "--system", path)
    assert code == 0
    report = json.loads(out)
    assert all(report["results"]["checks"].values())
    assert report["results"]["decomposition"]["pieces"]


def test_battery_through_cli(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    code, out, _ = run(capsys, "battery", "--system", path, "--window", "1",
                       "--id", "thmC", "--period-bound", "4")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["asserted"] and not results["violations"]


def test_modulus_csv_matches_library(capsys, tmp_path):
    path = emit_random(capsys, tmp_path, seed=8, size=4)
    csv_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "modulus", "--system", path,
                       "--prop", "shadowing", "--csv", str(csv_path))
    assert code == 0
    table = modulus_table(parse_system_file(path), "shadowing")
    assert csv_path.read_text() == modulus_csv(table)
    assert json.loads(out)["results"]["populated"] is True


def test_input_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "check", "shadowing",
                       "--system", str(tmp_path / "absent.json"),
                       "--epsilon", "1/4")
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "finite", "points": ["a"], "dist": [["0"]]}')
    code, _, err = run(capsys, "check", "shadowing", "--system", str(bad),
                       "--epsilon", "1/4")
    assert code == 2 and "/map" in err

    # finite file cannot be windowed
    rnd = emit_random(capsys, tmp_path, seed=9, size=3)
    code, _, err = run(capsys, "check", "shadowing", "--system", rnd,
                       "--window", "1", "--epsilon", "1/4")
    assert code == 2

    # sft file needs a window for finite-system commands
    sft = emit_x32(capsys, tmp_path)
    code, _, err = run(capsys, "check", "shadowing", "--system", sft,
                       "--epsilon", "1/4")
    assert code == 2 and "--window" in err

    # the lasso variants need a lasso file
    code, _, err = run(capsys, "check", "spec", "--system", rnd,
                       "--variant", "limit", "--epsilon", "1")
    assert code == 2 and "needs --lasso FILE" in err

    # a finite family cannot be windowed
    code, out, err = run(capsys, "gallery", "myex", "--lattice", "2",
                         "--K", "1", "--window", "1")
    assert (code, out) == (2, "") and "--window" in err


def test_cap_exit_three(capsys, tmp_path, monkeypatch):
    path = emit_random(capsys, tmp_path, seed=10, size=6)
    monkeypatch.setenv("DYNLAB_SUBSET_CAP", "1")
    code, _, err = run(capsys, "check", "shadowing", "--system", path,
                       "--epsilon", "1/4", "--delta", "1/2")
    assert code == 3 and "cap" in err


def test_reports_deterministic_modulo_wall_time(capsys, tmp_path):
    path = emit_random(capsys, tmp_path, seed=11, size=4)
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "battery", "--system", path, "--id",
                        "hierarchy")
        outs.append(json.loads(out))
    for report in outs:
        report.pop("wall_ms")
    assert canonical_json(outs[0]) == canonical_json(outs[1])


def test_parser_built_once_answers_as_a_fresh_one(capsys, tmp_path):
    path = emit_random(capsys, tmp_path, seed=13, size=4)
    commands = [
        ("check", "shadowing", "--system", path, "--epsilon", "1"),
        ("battery", "--system", path, "--id", "hierarchy"),
        ("check", "expansive", "--system", path, "--variant", "n",
         "--delta", "1"),
    ]

    def call(argv):
        code, out, err = run(capsys, *argv)
        return code, re.sub(r'"wall_ms": *[0-9.]+', '"wall_ms": 0', out), err

    shared = [call(argv) for argv in commands]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert shared == fresh
    # argparse reports to the sys.stderr of the call, not of the build
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), pytest.raises(SystemExit) as exc:
        main(["check", "shadowing", "--system", path, "--epsilon", "1",
              "--bogus"])
    assert exc.value.code == 2
    assert stderr.getvalue().startswith("usage: dynlab ")
    assert "unrecognized arguments: --bogus" in stderr.getvalue()
    assert capsys.readouterr().err == ""


def test_emit_writes_stdout_bytes(capsys, tmp_path):
    path = emit_random(capsys, tmp_path, seed=12, size=3)
    emitted = tmp_path / "report.json"
    _, out, _ = run(capsys, "check", "expansive", "--system", path,
                    "--variant", "measure", "--delta", "1/2",
                    "--emit", str(emitted))
    assert emitted.read_text() == out


def test_parse_system_file_pointer(tmp_path):
    f = tmp_path / "x.json"
    f.write_text('{"points": []}')  # kind defaults to "finite"
    with pytest.raises(SchemaError) as e:
        parse_system_file(str(f))
    assert e.value.pointer == "/points"

    f.write_text('{"kind": "mystery"}')
    with pytest.raises(SchemaError) as e:
        parse_system_file(str(f))
    assert e.value.pointer == "/kind"


def two_cycle_pair(tmp_path):
    """The joined/split system of test_generalized_two_sided_variant:
    two 2-cycles a0 <-> a1 and b0 <-> b1, far apart."""
    pts = ["a0", "a1", "b0", "b1"]
    dist = [["0" if p == q else ("1" if p[0] == q[0] else "10") for q in pts]
            for p in pts]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"kind": "finite", "points": pts, "dist": dist,
                                "map": ["a1", "a0", "b1", "b0"],
                                "invertible": True}))
    return str(path)


def check_spec_with_lasso(capsys, tmp_path, system, variant, lasso):
    path = tmp_path / "lasso.json"
    path.write_text(json.dumps(lasso))
    return run(capsys, "check", "spec", "--system", system, "--variant",
               variant, "--epsilon", "1", "--lasso", str(path))


def test_check_spec_two_sided_variant(capsys, tmp_path):
    system = two_cycle_pair(tmp_path)
    # the past defaults to the cycle
    code, out, _ = check_spec_with_lasso(
        capsys, tmp_path, system, "two-sided", {"cycle": ["a0", "a1"]})
    assert code == 0
    assert json.loads(out)["results"]["holds"] is True

    code, out, _ = check_spec_with_lasso(
        capsys, tmp_path, system, "two-sided",
        {"cycle": ["b0", "b1"], "past": ["a0", "a1"]})
    assert code == 1
    assert json.loads(out)["results"] == {"holds": False, "point": None}


def test_lasso_entries_must_be_points_of_the_system(capsys, tmp_path):
    system = two_cycle_pair(tmp_path)
    cases = [
        ("limit", {"cycle": ["nope"]}, "/cycle/0"),
        ("limit", {"stem": ["a0", ["a1"]], "cycle": ["a0", "a1"]}, "/stem/1"),
        ("two-sided", {"cycle": ["a0", "a1"], "past": ["a1", 7]}, "/past/1"),
        ("two-sided", {"cycle": ["a0", "a1"], "past": []}, "/past"),
        ("limit", {"cycle": ["a0", "a1"], "past": ["a0", "a1"]}, "/past"),
        ("limit", {"stem": "a0", "cycle": ["a0", "a1"]}, "/stem"),
    ]
    for variant, lasso, pointer in cases:
        code, out, err = check_spec_with_lasso(
            capsys, tmp_path, system, variant, lasso)
        assert code == 2 and out == ""
        assert err.startswith(f"dynlab: {pointer}:")


def test_over_long_integer_literal_names_its_file(capsys, tmp_path):
    # json.load raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal beyond int's digit limit
    literal = "9" * 5000
    system = tmp_path / "long.json"
    system.write_text('{"kind": "finite", "points": ["a"], '
                      f'"dist": [[{literal}]], "map": ["a"]}}')
    lasso = tmp_path / "lasso.json"
    lasso.write_text(f'{{"cycle": [{literal}]}}')
    cases = [
        (system, ["spectral", "--system", str(system)]),
        (lasso, ["check", "spec", "--system", two_cycle_pair(tmp_path),
                 "--variant", "limit", "--epsilon", "1",
                 "--lasso", str(lasso)]),
    ]
    for path, argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert str(path) in err and "set_int_max_str_digits" not in err, err


def test_bad_bounds_exit_two(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"cycle": ["0,1,2"]}))
    common = ["--system", path, "--window", "1", "--epsilon", "1/4"]
    cases = [
        ["check", "shadowing", "--delta", "1/8", "--period-bound", "0"],
        ["check", "spec", "--variant", "full", "--k-bound", "0"],
        ["check", "spec", "--variant", "full", "--delta", "1/8",
         "--k-bound", "0"],
        ["check", "spec", "--variant", "limit", "--N", "0",
         "--lasso", str(lasso)],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv, *common)
        assert (code, out) == (2, ""), argv
        assert err.startswith("dynlab: "), argv
    code, out, _ = run(capsys, "modulus", "--prop", "periodic",
                       "--period-bound", "-1", "--system", path,
                       "--window", "1")
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, "check", "expansive", "--variant", "n",
                       "--n", "0", "--delta", "1", "--system", path,
                       "--window", "1")
    assert (code, out) == (2, "")


def test_best_delta_above_every_distance_refuses_gap_zero(capsys, tmp_path):
    # at this epsilon every weak chain cell passes by definition, so no
    # search would refuse N = 0 on its own
    path = emit_x32(capsys, tmp_path)
    code, out, err = run(capsys, "check", "spec", "--variant", "weak",
                         "--N", "0", "--epsilon", "100", "--system", path,
                         "--window", "1")
    assert (code, out, err) == (
        2, "", "dynlab: N must be at least 1, got 0\n")


def test_threshold_at_zero_is_refused_by_name(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    code, out, err = run(capsys, "check", "shadowing", "--delta", "0",
                         "--epsilon", "1", "--system", path, "--window", "1")
    assert (code, out, err) == (
        2, "", "dynlab: delta must be positive, got 0\n")


def test_one_point_system_refuses_a_length_bound_of_zero(capsys, tmp_path):
    # every cell of a one-point system passes by definition, so no search
    # would refuse the bound on its own; the tables that take no bound
    # ignore it
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"kind": "finite", "points": ["a"],
                                "dist": [["0"]], "map": ["a"]}))
    for argv in (["modulus", "--prop", "periodic", "--period-bound", "0"],
                 ["modulus", "--prop", "spec-full", "--k-bound", "0"],
                 ["check", "spec", "--variant", "full", "--k-bound", "0",
                  "--epsilon", "1"]):
        code, out, err = run(capsys, *argv, "--system", str(path))
        assert (code, out, err) == (
            2, "", "dynlab: length bound must be at least 1, got 0\n"), argv
    for prop, flag in (("shadowing", "--period-bound"),
                       ("spec-weak", "--k-bound")):
        code, _, err = run(capsys, "modulus", "--prop", prop, flag, "0",
                           "--system", str(path))
        assert (code, err) == (0, ""), prop


def test_best_delta_paths_warn_no_bound_too_small(capsys, tmp_path):
    # a best-threshold question answers a threshold; at window 1 the gap
    # graphs of xpq(3,2) have closed walks longer than the k bound 6
    path = emit_x32(capsys, tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check", "spec", "--variant", "full",
                             "--epsilon", "1/4", "--system", path,
                             "--window", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["best_delta"] == "1/2"
        code, _, err = run(capsys, "modulus", "--prop", "spec-full",
                           "--system", path, "--window", "1")
        assert (code, err) == (0, "")
    assert [w.message for w in caught] == []


def test_both_best_delta_paths_agree(capsys, tmp_path):
    # check spec without --delta answers each epsilon as the table row
    path = emit_x32(capsys, tmp_path)
    cells = 0
    for window in ("1", "2"):
        for variant in ("weak", "full"):
            code, out, _ = run(capsys, "modulus", "--prop", f"spec-{variant}",
                               "--system", path, "--window", window)
            assert code == 0
            for row in json.loads(out)["results"]["table"]["rows"]:
                code, out, _ = run(capsys, "check", "spec", "--variant",
                                   variant, "--epsilon", row["epsilon"],
                                   "--system", path, "--window", window)
                assert code == 0
                assert json.loads(out)["results"]["best_delta"] == (
                    row["best"]["delta"]), (window, variant, row["epsilon"])
                cells += 1
    assert cells == 18


def test_battery_rejects_a_period_bound_below_one(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    for battery_id in ("thmA", "thmB", "thmC", "thmD", "hierarchy"):
        for bound in ("0", "-2"):
            code, out, err = run(capsys, "battery", "--system", path,
                                 "--window", "1", "--id", battery_id,
                                 "--period-bound", bound)
            assert (code, out) == (2, ""), (battery_id, bound)
            assert err == (f"dynlab: period bound must be at least 1, "
                           f"got {bound}\n")


def test_periodic_modulus_on_window_two_is_decided(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    code, out, _ = run(capsys, "modulus", "--prop", "periodic",
                       "--system", path, "--window", "2")
    assert code == 0
    assert json.loads(out)["results"]["table"]["rows"]


def test_zero_denominator_thresholds_exit_two(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    common = ["--system", path, "--window", "1"]
    cases = [
        ["check", "shadowing", "--delta", "1/0", "--epsilon", "1/4"],
        ["check", "shadowing", "--delta", "1/8", "--epsilon", "1/0"],
        ["check", "spec", "--variant", "full", "--delta", "1/0",
         "--epsilon", "1/4"],
        ["check", "spec", "--variant", "weak", "--epsilon", "1/0"],
        ["check", "expansive", "--variant", "n", "--delta", "1/0"],
        ["check", "expansive", "--variant", "strong-measure", "--delta",
         "2/0"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv, *common)
        assert (code, out) == (2, ""), argv
        assert err.startswith("dynlab: zero denominator in '"), argv


def test_hostile_decimal_exponents_exit_two(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    code, out, err = run(capsys, "check", "expansive", "--variant", "n",
                         "--delta", "1e-99999999", "--system", path,
                         "--window", "1")
    assert (code, out) == (2, "")
    assert err.startswith("dynlab: decimal exponent out of range in '")

    with open(emit_random(capsys, tmp_path)) as f:
        obj = json.load(f)
    obj["dist"][1][2] = "1e-99999999"
    hostile = tmp_path / "hostile.json"
    hostile.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", "expansive", "--variant", "n",
                         "--delta", "1/2", "--system", str(hostile))
    assert (code, out) == (2, "")
    assert "/dist/1/2: decimal exponent out of range" in err


def test_thresholds_too_long_to_print_exit_two(capsys, tmp_path):
    path = emit_x32(capsys, tmp_path)
    for delta in ("1e-4300", "9" * 4000 + "e1000"):
        code, out, err = run(capsys, "check", "expansive", "--variant", "n",
                             "--delta", delta, "--system", path,
                             "--window", "1")
        assert (code, out) == (2, ""), delta[:8]
        assert err.startswith(f"dynlab: too many digits in '{delta}'")


def test_hostile_common_denominator_exits_two(capsys, tmp_path):
    # three coprime 1500-digit denominators: their lcm has 4500 digits
    big = 10 ** 1499
    a, b, c = (f"{s + 1}/{s}" for s in (big + 1, big + 2, big + 3))
    hostile = tmp_path / "hostile.json"
    hostile.write_text(json.dumps({
        "kind": "finite", "points": ["a", "b", "c"],
        "dist": [["0", a, b], [a, "0", c], [b, c, "0"]],
        "map": ["b", "c", "a"]}))
    code, out, err = run(capsys, "check", "expansive", "--variant", "n",
                         "--delta", "1/2", "--system", str(hostile))
    assert (code, out) == (2, "")
    assert err == ("dynlab: common denominator of the distances has more "
                   "than 4300 digits\n")


def test_spec_lasso_variants_at_gap_two(capsys, tmp_path):
    # random(3, 6, inv): f(p0) = p3, so the cycle (p0, p5, p1, p5) is no
    # cycle of f, while f^2 maps p0 -> p1 -> p0, the blocked cycle
    system = tmp_path / "r3.json"
    code, _, _ = run(capsys, "gallery", "random", "--seed", "3", "--size",
                     "6", "--invertible", "--emit", str(system))
    assert code == 0
    lasso = tmp_path / "lasso.json"
    lasso.write_text(json.dumps({"cycle": ["p0", "p5", "p1", "p5"]}))
    argv = ["check", "spec", "--system", str(system), "--epsilon", "1",
            "--N", "2", "--lasso", str(lasso)]
    code, out, _ = run(capsys, *argv, "--variant", "limit")
    assert code == 0
    assert json.loads(out)["results"] == {"holds": True, "point": "p0"}
    # blocking is forward-time only: the two-sided variant refuses N = 2
    # rather than answer for N = 1
    code, out, err = run(capsys, *argv, "--variant", "two-sided")
    assert (code, out) == (2, "")
    assert err == ("dynlab: the two-sided variant takes N = 1 only: "
                   "blocking is a forward-time construction\n")


FROZEN_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "cli_reports.json").read_text())


@pytest.mark.parametrize("name", sorted(FROZEN_REPORTS))
def test_report_matches_frozen_report(capsys, tmp_path, monkeypatch, name):
    """Report paths no other test reaches (failing certificates, chain
    counterexamples, battery cap hits, every battery, spectral, modulus
    and gallery reports), byte for byte but for the wall_ms value,
    against reports frozen before the orbit-shape code moved into core
    and before the commands shared one report path.  A case that writes
    a file (``--csv``, ``gallery --emit``) to ``{out}`` also pins the
    file's text."""
    files = {"{random-5-4}": emit_random(capsys, tmp_path),
             "{random-3-6-invertible}": str(tmp_path / "r3.json"),
             "{lasso}": str(tmp_path / "lasso.json"),
             "{out}": str(tmp_path / "out")}
    run(capsys, "gallery", "random", "--seed", "3", "--size", "6",
        "--invertible", "--emit", files["{random-3-6-invertible}"])
    (tmp_path / "lasso.json").write_text(
        json.dumps({"cycle": ["p0", "p5", "p1", "p5"]}))
    case = FROZEN_REPORTS[name]
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)
    code, out, _ = run(capsys, *(files.get(a, a) for a in case["argv"]))
    assert code == case["exit"]
    assert re.sub(r'"wall_ms": \d+', '"wall_ms": 0', out) == case["report"]
    if "written" in case:
        assert (tmp_path / "out").read_text() == case["written"]


def test_hostile_window_is_refused_before_listing_words(capsys, tmp_path):
    # xpq(3,2) has 299,426 words of length 41: its table would hold about
    # 9 * 10^10 entries
    path = emit_x32(capsys, tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, "spectral", "--system", path,
                         "--window", "20")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("dynlab: window radius 20: more than 1000 points exceed "
                   "the budget of 1000000000 for n^3 times the bit width\n")
    code, out, err = run(capsys, "gallery", "random", "--seed", "0",
                         "--size", "1001")
    assert (code, out) == (2, "")
    assert err.startswith("dynlab: random system size 1001: more than 1000")


def test_a_failed_write_exits_two_and_prints_nothing(capsys, tmp_path):
    # each output file is written before the report is printed
    system = emit_random(capsys, tmp_path)
    missing = tmp_path / "missing"
    cases = [
        (["modulus", "--system", system, "--prop", "shadowing", "--csv"],
         missing / "t.csv"),
        (["spectral", "--system", system, "--emit"], missing / "t.json"),
        (["gallery", "xpq", "--p", "3", "--q", "2", "--emit"],
         missing / "t.json"),
        (["check", "expansive", "--system", system, "--variant", "n",
          "--delta", "1", "--emit"], tmp_path),
    ]
    for argv, path in cases:
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, ""), argv
        reason = ("Is a directory" if path == tmp_path
                  else "No such file or directory")
        assert err == f"dynlab: cannot write {path}: {reason}\n", argv
    assert not missing.exists()


def test_hostile_lattice_is_refused_before_listing_orbits(capsys):
    # lattice 33 has 1089 points; lattice 31 has 961, and its first four
    # orbits add 46 satellites
    for lattice, K, what in (("33", "1", "myex lattice 33"),
                             ("31", "4", "myex lattice 31 with 4 satellite "
                                         "families")):
        start = time.perf_counter()
        code, out, err = run(capsys, "gallery", "myex", "--lattice", lattice,
                             "--K", K)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == (f"dynlab: {what}: more than 1000 points exceed the "
                       f"budget of 1000000000 for n^3 times the bit width\n")
