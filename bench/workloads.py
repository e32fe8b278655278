"""The three named workloads: their inputs, operations and self-checks.

A workload has a set-up (``import dynlab`` plus building and validating
its systems) and a list of operations.  Each operation is timed on its
own and judged afterwards, outside the timed region:

- its canonical output is digested and compared with the frozen
  reference in ``reference.json`` when the reference has that
  operation (operation ids name their inputs, so seed-independent
  operations are compared at every seed);
- self-checks that need no reference run at every seed.

The seed picks the random systems of ``satellites`` and the check cells
of ``window-battery``; the program only ever receives the generated
inputs.  ``product-window`` does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0
WORKLOADS = ("satellites", "window-battery", "product-window")

# operation kinds, which decide the end-to-end metric an operation's
# time counts towards (every kind counts towards ops_s)
DECOMPOSE, BATTERY, TABLE, CHECK = "decompose", "battery", "table", "check"


@dataclass
class Op:
    """One timed operation: ``run`` does the work, the rest judge it."""

    id: str
    kind: str
    run: Callable[[], object]
    canonical: Callable[[object], str]   # output -> text that is digested
    capped: Callable[[object], bool]     # output -> hit a resource cap?
    problems: Callable[[object], list]   # output -> failed self-checks


def digest_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- library operations --------------------------------------------------------


def decompose_op(op_id, system):
    from dynlab import spectral_decomposition
    from dynlab.serialize import canonical_json, decomposition_to_obj

    def run():
        dec = spectral_decomposition(system)
        return dec, dec.verify(system)

    def problems(out):
        return [f"verify: {name} is False"
                for name, ok in out[1].items() if not ok]

    return Op(op_id, DECOMPOSE, run,
              lambda out: canonical_json({
                  "decomposition": decomposition_to_obj(out[0]),
                  "checks": out[1]}),
              lambda out: False, problems)


def battery_op(op_id, system, battery_id):
    from dynlab import run_theorem_battery
    from dynlab.serialize import canonical_json

    return Op(op_id, BATTERY,
              lambda: run_theorem_battery(system, battery_id),
              canonical_json,
              lambda out: bool(out["cap_hits"]),
              _battery_problems)


def _battery_problems(results):
    if not results.get("asserted"):
        return []
    return [f"asserted law violated: {v['law']}"
            for v in results["violations"]]


def _battery_problems_of_report(report):
    return _battery_problems(report["results"])


# -- CLI operations ------------------------------------------------------------

_WALL_MS = re.compile(r'"wall_ms": \d+')


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str

    def report(self):
        return json.loads(self.stdout) if self.stdout else None


def cli_op(op_id, kind, argv, expected_codes, problems=None):
    """``dynlab.cli.main(argv)`` in-process with stdout captured.

    Exit code 3 is a cap hit; any code outside ``expected_codes`` and
    3 is a failure.
    """
    from dynlab.cli import main

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return CliOutput(code, out.getvalue(), err.getvalue())

    def all_problems(out):
        if out.code == 3:
            return []
        found = [] if out.code in expected_codes else [
            f"exit code {out.code}: {out.stderr.strip()[:200]}"]
        if problems is not None and out.stdout:
            found += problems(out.report())
        return found

    return Op(op_id, kind, run,
              lambda out: f"exit {out.code}\n"
                          + _WALL_MS.sub('"wall_ms": 0', out.stdout),
              lambda out: out.code == 3, all_problems)


def _spectral_problems(report):
    return [f"verify: {name} is False"
            for name, ok in report["results"]["checks"].items() if not ok]


def _shadowing_problems(system):
    """A counterexample must be a delta-pseudo-orbit that no point traces."""
    from dynlab import Lasso, as_fraction, construct_shadow_point
    from dynlab import is_pseudo_orbit

    def check(report):
        cert = report["results"]["shadowing"]["certificate"]
        if cert is None:
            return []
        lasso = Lasso(stem=tuple(cert["lasso"]["stem"]),
                      cycle=tuple(cert["lasso"]["cycle"]))
        found = []
        if not is_pseudo_orbit(system, lasso, as_fraction(cert["delta"])):
            found.append("counterexample is not a delta-pseudo-orbit")
        point, _ = construct_shadow_point(system, lasso,
                                          as_fraction(cert["epsilon"]))
        if point is not None:
            found.append("counterexample lasso is shadowed")
        return found

    return check


def _periodic_table_problems(system, period_bound):
    """A decided periodic modulus table must hold at each best delta and
    fail at the next grid delta."""
    from dynlab import as_fraction, periodic_shadowing_holds, threshold_grid

    grid = list(threshold_grid(system).positive)

    def check(report):
        found = []
        for row in report["results"]["table"]["rows"]:
            eps = as_fraction(row["epsilon"])
            best = row["best"]
            above = (grid[0] if best is None else
                     next((d for d in grid
                           if d > as_fraction(best["delta"])), None))
            if best is not None and not periodic_shadowing_holds(
                    system, as_fraction(best["delta"]), eps, period_bound)[0]:
                found.append(f"periodic table row {row['epsilon']}: best "
                             f"delta does not hold")
            if above is not None and periodic_shadowing_holds(
                    system, above, eps, period_bound)[0]:
                found.append(f"periodic table row {row['epsilon']}: a larger "
                             f"delta holds")
        return found

    return check


# -- workloads -----------------------------------------------------------------


def satellites(seed):
    """Library: myex(6,2) decomposition and hierarchy battery, plus four
    seeded random invertible systems decomposed.

    The random systems have 8 points: at 10 or 12 points their
    decomposition time varies so much with the seed that it would
    dominate the run-to-run spread of ``decompose_s``.
    """
    from dynlab import build_myex, build_random_system

    rng = random.Random(seed)
    seeds = [rng.randrange(10 ** 6) for _ in range(4)]
    myex = build_myex(6, 2).system
    randoms = [(s, build_random_system(s, 8, invertible=True))
               for s in seeds]

    def ops():
        yield decompose_op("decompose myex(6,2)", myex)
        yield battery_op("battery hierarchy myex(6,2)", myex, "hierarchy")
        for s, system in randoms:
            yield decompose_op(f"decompose random({s},8,invertible)", system)

    return ops, lambda: None


def window_battery(seed, workdir):
    """CLI: batteries, spectral, the periodic modulus table and seeded
    single-cell checks on the xpq(3,2) shift file at window 2."""
    from dynlab import build_xpq, threshold_grid, window_system
    from dynlab.serialize import canonical_json, sft_to_obj

    shift = build_xpq(3, 2)
    system = window_system(shift, 2)
    path = os.path.join(workdir, f"xpq-3-2-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(sft_to_obj(shift)))
    common = ["--system", path, "--window", "2"]
    # the top grid value is a sentinel above every distance; at delta = top
    # every jump is a step and the closed-walk search runs into the cap,
    # which the modulus operation already shows
    values = [str(v) for v in threshold_grid(system).positive[:-1]]
    cells = [(d, e) for d in values for e in values]
    rng = random.Random(seed)
    shadow_cells = rng.sample(cells, 4)
    spec_cells = rng.sample(cells, 4)

    def ops():
        for battery_id in ("thmC", "thmA", "thmD", "hierarchy"):
            yield cli_op(f"cli battery --id {battery_id}", BATTERY,
                         ["battery", "--id", battery_id] + common, (0,),
                         _battery_problems_of_report)
        yield cli_op("cli spectral", DECOMPOSE, ["spectral"] + common, (0,),
                     _spectral_problems)
        yield cli_op("cli modulus --prop periodic", TABLE,
                     ["modulus", "--prop", "periodic"] + common, (0,),
                     _periodic_table_problems(system, 8))
        for d, e in shadow_cells:
            yield cli_op(f"cli check shadowing --delta {d} --epsilon {e}",
                         CHECK, ["check", "shadowing", "--delta", d,
                                 "--epsilon", e] + common, (0, 1),
                         _shadowing_problems(system))
        for d, e in spec_cells:
            yield cli_op(f"cli check spec --variant full --delta {d} "
                         f"--epsilon {e}", CHECK,
                         ["check", "spec", "--variant", "full", "--delta", d,
                          "--epsilon", e] + common, (0, 1))

    return ops, lambda: os.remove(path)


def product_window(seed):
    """Library: the 70-point window system of the (2,3,5) two-factor
    product truncation, decomposed, plus the hierarchy battery."""
    from dynlab import build_product_truncation, window_system

    system = window_system(build_product_truncation((2, 3, 5), 2), 1)
    name = "product((2,3,5),2) window 1"

    def ops():
        yield decompose_op(f"decompose {name}", system)
        yield battery_op(f"battery hierarchy {name}", system, "hierarchy")

    return ops, lambda: None


def set_up(workload, seed, workdir):
    """Build the workload's systems; returns (ops factory, clean-up)."""
    if workload == "satellites":
        return satellites(seed)
    if workload == "window-battery":
        return window_battery(seed, workdir)
    if workload == "product-window":
        return product_window(seed)
    raise ValueError(f"unknown workload {workload!r}")
