"""Quantified law batteries: grid-wide implication and equivalence sweeps
over one system, reported as JSON-ready rows with explicit verdicts.

A battery never adds mathematics: every cell calls one library decision
procedure and records its boolean (plus parameters and witnesses).  The
battery layer only chooses the sample (the threshold grid), states which
implications it asserts, and collects violations.  Batteries that carry
hypotheses (the six-property matrix) first diagnose them and downgrade
to a descriptive report when they fail, so falsifying instances are
first-class inputs rather than errors.

Resource caps are respected per cell: a subset search that trips
StateExplosion marks its cell and the battery moves on.

:func:`run_theorem_battery` builds the one result record (battery id,
period bound, ``asserted``, ``violations``, ``cap_hits``) and hands it
to the battery's runner, which adds only its own fields; ``_cell``
records a cap hit in it and ``_check`` records a violation: the law's
text plus the cell it failed at (``epsilon``, ``delta`` or ``piece``).

Battery ids (opaque tokens, fixed by the command-line contract):

=============  ==============================================================
id             contents
=============  ==============================================================
``thmA``       per-epsilon agreement of the chain-tracing and pseudo-orbit
               tracing modulus rows (each non-empty exactly when the other is)
``thmB``       periodic-tracing transfer at derived parameters, plus the
               pairwise chain exact-period => chain(N=1) => some-period
``thmC``       six tracing properties per epsilon with the transitivity and
               lockstep-freeness hypotheses diagnosed up front, and three
               orders of best deltas that need no hypothesis
``thmD``       decomposition invariants re-verified and the two construction
               routes compared under the hypothesis report
``hierarchy``  the expansiveness ladder per delta: 1-expansive => strong
               measure => measure, n => (n+1), strong => expansive on
               periodic points
=============  ==============================================================
"""

from __future__ import annotations

from .core import _at_least, _closed_walk_counts, threshold_grid
from .errors import StateExplosion
from .expansive import (
    expansive_on_per,
    lockstep_orbit_pair,
    measure_expansive_holds,
    n_expansive_holds,
    strong_measure_expansive_holds,
)
from .recurrence import (_step_sets, hypothesis_report, is_transitive,
                         spectral_decomposition)
from .serialize import _frac, decomposition_to_obj, fraction_str
from .shadowing import modulus_table
from .specification import (
    derived_periodic_shadowing,
    modulus_table_for_spec,
    pairwise_tracing_chain,
)

__all__ = ["BATTERY_IDS", "run_theorem_battery", "periodic_spectrum"]

BATTERY_IDS = ("thmA", "thmB", "thmC", "thmD", "hierarchy")


def periodic_spectrum(sys, bound):
    """Count of period-m points for m = 1..bound, exactly.

    The count is the number of closed walks of length m of the
    admissible steps: closed relation walks when the system carries a
    relation, otherwise the fixed points of the m-th iterate.
    """
    counts = _closed_walk_counts(_step_sets(sys), bound)
    return {str(m): count for m, count in enumerate(counts, 1)}


def _cell(result, label, run):
    """``run()``; None when it trips the subset cap, after recording the
    hit of the cell ``label`` in the battery record ``result``."""
    try:
        return run()
    except StateExplosion as exc:
        result["cap_hits"].append({"cell": label, "detail": str(exc)})
        return None


def _check(result, holds, law, **cell):
    """Record in ``result`` that ``law`` fails at ``cell`` (its epsilon,
    delta or piece) unless it ``holds``."""
    if not holds:
        result["violations"].append({"law": law, **cell})


def _equivalence_battery(result, sys, period_bound, cap):
    """Per-epsilon: chain-tracing row non-empty iff shadowing row is."""
    result["rows"] = []
    tables = _cell(result, "modulus tables", lambda: (
        modulus_table(sys, "shadowing", cap=cap),
        modulus_table_for_spec(sys, "weak", cap=cap)))
    if tables is None:
        return
    shad, weak = tables
    for (eps, s), (_, w) in zip(shad.rows, weak.rows):
        row = {
            "epsilon": _frac(eps),
            "shadowing_delta": _frac(s),
            "weak_spec": None if w is None else [1, _frac(w)],
            "agree": (s is None) == (w is None),
        }
        result["rows"].append(row)
        _check(result, row["agree"], "chain-tracing and shadowing rows must "
               "be non-empty together", epsilon=row["epsilon"])


def _transfer_battery(result, sys, period_bound, cap):
    """Derived-parameter periodic transfer plus the pairwise chain."""
    result.update(transfer_rows=[], chain_cells=[])
    grid = threshold_grid(sys)
    for eps in grid.positive:
        row = _cell(result, f"transfer at epsilon {fraction_str(eps)}",
                    lambda: derived_periodic_shadowing(
                        sys, eps, k_bound=period_bound, cap=cap))
        if row is None:
            continue
        out = {"epsilon": _frac(eps), "applicable": row["applicable"]}
        if row["applicable"]:
            out.update({name: _frac(row[name])
                        for name in ("delta", "eta", "delta1")},
                       N=row["N"], holds=row["holds"])
            _check(result, row["holds"], "chain tracing at half quality must "
                   "transfer to periodic tracing at the derived thresholds",
                   epsilon=out["epsilon"])
        result["transfer_rows"].append(out)
    for k, eps in enumerate(grid.positive):
        for delta in grid.positive[:k + 1]:
            cell = _cell(result, f"chain at delta {fraction_str(delta)} "
                                 f"epsilon {fraction_str(eps)}",
                         lambda: pairwise_tracing_chain(
                             sys, delta, eps, k_bound=period_bound, cap=cap))
            if cell is None:
                continue
            at = {"delta": _frac(delta), "epsilon": _frac(eps)}
            result["chain_cells"].append({
                **at,
                "holds": cell["holds"],
                "routes_equal": cell["exact_to_chain"]["routes_equal"],
                "instances": cell["instances_checked"],
            })
            _check(result, cell["holds"], "pairwise tracing chain", **at)


_MATRIX_COLUMNS = ("local_spec", "weak_spec", "shadowing", "strong_periodic",
                   "periodic", "special")

# (lower, upper, law): at every epsilon the lower column's best delta is
# at most the upper's, None counting as below every delta.  Each holds
# cell by cell with no hypothesis: a chain at gap 1 is a pseudo-orbit
# (closed ones up to the same bound), and a tracer of exact period is a
# periodic tracer.
_ORDER_LAWS = (
    ("weak_spec", "shadowing",
     "weak specification's best delta must not exceed shadowing's"),
    ("local_spec", "strong_periodic", "local specification's best delta "
     "must not exceed strong periodic shadowing's"),
    ("strong_periodic", "periodic", "strong periodic shadowing's best delta "
     "must not exceed periodic shadowing's"),
)


def _matrix_battery(result, sys, period_bound, cap):
    """Six tracing properties per epsilon, gated by the two hypotheses:
    transitivity and freeness from lockstep orbit pairs (the uniform
    finite form of measure-level expansiveness).  The best-delta orders
    of ``_ORDER_LAWS`` are checked at every epsilon, asserted or not."""
    grid = threshold_grid(sys)
    pair = lockstep_orbit_pair(sys)
    hypotheses = result["hypotheses"] = {
        "transitive": is_transitive(sys, sys.points),
        "strong_measure_expansive": pair is None,
        "lockstep_pair": None if pair is None else
            [pair[0], pair[1], fraction_str(pair[2])],
        "strong_constant": _frac(hypothesis_report(sys).strong_constant),
    }
    asserted = result["asserted"] = (
        hypotheses["transitive"] and hypotheses["strong_measure_expansive"])
    result["rows"] = []
    columns = _cell(result, "modulus tables", lambda: {
        "local_spec": dict(modulus_table_for_spec(
            sys, "full", k_bound=period_bound, cap=cap).rows),
        "weak_spec": dict(modulus_table_for_spec(sys, "weak", cap=cap).rows),
        "shadowing": dict(modulus_table(sys, "shadowing", cap=cap).rows),
        "strong_periodic": dict(modulus_table(
            sys, "strong-periodic", period_bound, cap).rows),
        "periodic": dict(modulus_table(
            sys, "periodic", period_bound, cap).rows),
    })
    if columns is None:
        return
    for eps in grid.positive:
        row = {"epsilon": _frac(eps)}
        for name in _MATRIX_COLUMNS[:-1]:
            row[name] = columns[name][eps] is not None
        # special_shadowing_holds is exactly these two searches again
        row["special"] = row["shadowing"] and row["periodic"]
        row["equivalent"] = len({row[name] for name in _MATRIX_COLUMNS}) <= 1
        result["rows"].append(row)
        _check(result, not asserted or row["equivalent"], "all six tracing "
               "properties must agree under the diagnosed hypotheses",
               epsilon=row["epsilon"])
        for lower, upper, law in _ORDER_LAWS:
            low, high = columns[lower][eps], columns[upper][eps]
            _check(result, low is None or high is not None and low <= high,
                   law, epsilon=row["epsilon"])


def _decomposition_battery(result, sys, period_bound, cap):
    """Re-verify every decomposition invariant and compare routes."""
    dec = spectral_decomposition(sys)
    checks = dec.verify(sys)
    obj = decomposition_to_obj(dec)
    for piece in obj["pieces"]:
        del piece["stable_set_parts"]
    result.update(checks=checks, pieces=obj["pieces"],
                  hypothesis_report=obj["report"])
    for name, ok in checks.items():
        _check(result, ok, f"decomposition invariant: {name}")
    for piece in dec.pieces:
        _check(result, not dec.report.passes or piece.routes_agree,
               "construction routes must agree when the hypothesis report "
               "passes", piece=list(piece.points))


def _hierarchy_battery(result, sys, period_bound, cap):
    """The expansiveness ladder at every grid delta."""
    result["rows"] = []
    for delta in threshold_grid(sys).positive:
        counts = {n: n_expansive_holds(sys, n, delta) for n in range(1, 5)}
        strong = strong_measure_expansive_holds(sys, delta)[0]
        measure = measure_expansive_holds(sys, delta)[0]
        on_per = expansive_on_per(sys, delta)
        at = _frac(delta)
        result["rows"].append({
            "delta": at,
            "n_expansive": {str(n): counts[n] for n in counts},
            "strong_measure": strong,
            "measure": measure,
            "expansive_on_per": on_per,
        })
        _check(result, not counts[1] or strong,
               "1-expansive implies strong measure expansive", delta=at)
        _check(result, not strong or measure,
               "strong measure expansive implies measure expansive", delta=at)
        _check(result, not strong or on_per, "strong measure expansive "
               "implies expansive on periodic points", delta=at)
        for n in range(1, 4):
            _check(result, not counts[n] or counts[n + 1],
                   f"{n}-expansive implies {n + 1}-expansive", delta=at)


_RUNNERS = {
    "thmA": _equivalence_battery,
    "thmB": _transfer_battery,
    "thmC": _matrix_battery,
    "thmD": _decomposition_battery,
    "hierarchy": _hierarchy_battery,
}


def run_theorem_battery(system, battery_id, period_bound=6, cap=None):
    """Run one battery over the system's threshold grid.

    ``system`` is a finite metric system (an object with a ``.system``
    attribute, such as a gallery instance wrapper, is unwrapped).
    Returns a JSON-ready dict: battery id, per-cell rows, diagnosed
    hypotheses where applicable, asserted flag, violations, cap hits,
    and the periodic-point spectrum up to max(period_bound, 8).
    A ``period_bound`` below 1 raises ValueError for every battery.
    """
    sys = getattr(system, "system", system)
    if battery_id not in _RUNNERS:
        raise ValueError(
            f"unknown battery {battery_id!r}; choose from {BATTERY_IDS}")
    _at_least(period_bound, 1, "period bound")
    result = {"battery": battery_id, "period_bound": period_bound,
              "asserted": True, "violations": [], "cap_hits": []}
    _RUNNERS[battery_id](result, sys, period_bound, cap)
    result["periodic_spectrum"] = periodic_spectrum(sys, max(period_bound, 8))
    return result
