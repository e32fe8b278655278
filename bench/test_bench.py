"""Tests of the benchmark itself: the reference check and the tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import judge  # noqa: E402

import dynlab  # noqa: E402
from dynlab import (build_finite_system, build_random_system,  # noqa: E402
                    build_xpq, canonical_json, sft_to_obj)
from dynlab.errors import StateExplosion  # noqa: E402


def _reference_for(op, output):
    return {op.id: workloads.digest_text(op.canonical(output))}


def test_planted_wrong_decomposition_is_caught():
    system = build_random_system(3, 6, invertible=True)
    op = workloads.decompose_op("decompose toy", system)
    dec, checks = op.run()
    reference = _reference_for(op, (dec, checks))
    assert judge(op, (dec, checks), None, reference)["status"] == "ok"
    planted = dataclasses.replace(dec, pieces=dec.pieces[:-1])
    verdict = judge(op, (planted, checks), None, reference)
    assert verdict["status"] == "failed"
    assert "differs from the reference" in verdict["detail"]


def test_planted_wrong_cli_report_is_caught(tmp_path):
    path = tmp_path / "xpq.json"
    path.write_text(canonical_json(sft_to_obj(build_xpq(3, 2))))
    op = workloads.cli_op("cli spectral", workloads.DECOMPOSE,
                          ["spectral", "--system", str(path), "--window", "2"],
                          (0,), workloads._spectral_problems)
    out = op.run()
    reference = _reference_for(op, out)
    # wall time is not part of the reference
    retimed = dataclasses.replace(out, stdout=out.stdout.replace(
        '"wall_ms": ', '"wall_ms": 9'))
    assert judge(op, retimed, None, reference)["status"] == "ok"
    planted = dataclasses.replace(out, stdout=out.stdout.replace(
        '"mixing": [\n            true', '"mixing": [\n            false', 1))
    assert planted.stdout != out.stdout
    assert judge(op, planted, None, reference)["status"] == "failed"


def test_shadowed_counterexample_fails_the_self_check():
    system = build_random_system(1, 5, invertible=True)
    orbit = tuple(system.points[i] for i in system.cycle(0))
    report = {"results": {"shadowing": {"certificate": {
        "delta": "1", "epsilon": "1",
        "lasso": {"stem": [], "cycle": list(orbit)}}}}}
    problems = workloads._shadowing_problems(system)(report)
    assert problems == ["counterexample lasso is shadowed"]


def test_cap_hit_is_undecided_unless_the_reference_decided():
    system = build_random_system(3, 6, invertible=True)
    op = workloads.decompose_op("decompose toy", system)
    error = StateExplosion(10, 9)
    assert judge(op, None, error, {})["status"] == "capped"
    assert judge(op, None, error, {"decompose toy": None})["status"] == "capped"
    assert judge(op, None, error, {"decompose toy": "ab"})["status"] == "failed"
    assert judge(op, None, ValueError("x"), {})["status"] == "failed"


def _two_points():
    # identity map on two points at distance 1: the positive grid is
    # (1/2, 1, 2); delta = 2 allows any jump, delta <= 1 only true orbits
    return build_finite_system(["a", "b"], [[0, 1], [1, 0]], ["a", "b"])


def test_tracer_counts_match_hand_derived_counts():
    system = _two_points()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.active = True
        table = dynlab.modulus_table(system, "shadowing")
        system.power(0, 5)
        system.apply("b", 3)
        dynlab.expansive.orbit_spread(system)
        dynlab.orbit_spread(system)
        with pytest.raises(StateExplosion):
            dynlab.shadowing_holds(system, 2, 1, cap=1)
        tracer.active = False
        dynlab.shadowing_holds(system, 2, 1)  # not recorded
    finally:
        uninstall()
    assert [str(d) for _, d in table.rows] == ["1", "1", "2"]
    _, calls = tracer.self_times()
    # rows eps = 1/2 and 1: top delta 2 fails, bottom 1/2 holds, middle 1
    # holds (3 calls each); row eps = 2: top delta holds (1 call); plus
    # the capped call
    assert calls["shadowing.shadowing_holds"] == 3 + 3 + 1 + 1
    assert calls["shadowing.modulus_table"] == 1
    assert calls["core.threshold_grid"] == 1
    assert calls["shadowing.delta_graph"] == 8
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["shadowing.calls_per_row"] == (8 / 3, "ratio")
    assert metrics["core.power_calls"] == (2, "count")
    assert metrics["expansive.orbit_spread_calls"] == (2, "count")
    assert metrics["expansive.spread_calls_per_system"] == (2.0, "ratio")
    assert metrics["shadowing.cap_hits"] == (1, "count")
    assert metrics["specification.cap_hits"] == (0, "count")
    # a span's self time excludes its children, so self times add up to
    # the root spans' durations
    roots = sum(end - start for _, start, end, parent in tracer.spans
                if parent < 0)
    self_s, _ = tracer.self_times()
    assert sum(self_s.values()) == pytest.approx(roots)


def test_uninstall_restores_every_binding():
    before = {(mod, attr): value
              for mod in [dynlab] + [getattr(dynlab, m)
                                     for m in tracing.MODULES]
              for attr, value in vars(mod).items() if callable(value)}
    power = dynlab.FiniteSystem.power
    uninstall = tracing.install(tracing.Tracer())
    assert dynlab.modulus_table is not before[(dynlab, "modulus_table")]
    assert dynlab.battery.modulus_table is dynlab.shadowing.modulus_table
    uninstall()
    for (mod, attr), value in before.items():
        assert getattr(mod, attr) is value
    assert dynlab.FiniteSystem.power is power


def test_reference_names_every_operation_of_the_default_seed():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    assert reference["seed"] == workloads.DEFAULT_SEED
    ops, clean_up = workloads.satellites(workloads.DEFAULT_SEED)
    assert all(op.id in reference["digests"] for op in ops())
    clean_up()
