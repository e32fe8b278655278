"""The ``dynlab`` command line tool: file I/O, report assembly, and the
battery runner.

Every run prints one canonical JSON report to stdout (and to ``--emit``
when given): tool version, command, parameters, a digest of the input
system, the results, and wall time.  Replaying a command on the same
inputs reproduces the report byte for byte except for the wall-time
field.  The CLI adds no mathematics — results quote library outputs.

Every command that takes a system runs :func:`_run`: load and digest
the system, get parameters, results and exit code from the command's
handler, emit the report.  Output files are written before the report.

Exit codes: 0 all asserted checks pass; 1 a checked property or
asserted law failed (the report says which); 2 input error or an
unwritable output file; 3 resource cap hit (raise ``DYNLAB_SUBSET_CAP``
to retry).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
import time

from . import __version__
from .battery import BATTERY_IDS, run_theorem_battery
from .core import Lasso, _largest_passing, as_fraction, threshold_grid
from .errors import DynlabError, SchemaError, StateExplosion
from .expansive import (
    expansive_on_per,
    measure_expansive_holds,
    n_expansive_holds,
    strong_measure_expansive_holds,
)
from .gallery import (
    build_myex,
    build_product_truncation,
    build_random_system,
    build_xpq,
)
from .recurrence import spectral_decomposition
from .serialize import (
    _frac,
    canonical_json,
    decomposition_to_obj,
    digest_obj,
    fraction_str,
    modulus_csv,
    modulus_table_to_obj,
    parse_system_obj,
    sft_to_obj,
    system_to_obj,
)
from .shadowing import (
    modulus_table,
    periodic_shadowing_holds,
    shadowing_holds,
    shadowing_modulus,
    strong_periodic_shadowing_holds,
)
from .specification import (
    generalized_spec_checks,
    local_spec_holds,
    local_weak_spec_holds,
    modulus_table_for_spec,
)
from .symbolic import Sft, window_system

__all__ = ["main", "parse_system_file"]


def parse_system_file(path):
    """Load and validate a system file (finite or shift kind)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deep to decode
        raise SchemaError("", f"{path} is not JSON: {exc}") from exc
    return parse_system_obj(obj)


def _load_finite(path, window):
    """A finite system from a file, windowing shift files on request."""
    loaded = parse_system_file(path)
    if isinstance(loaded, Sft):
        if window is None:
            raise SchemaError(
                "/kind", "this command needs a finite system; pass --window W "
                         "to run on the shift's window system")
        return window_system(loaded, window)
    if window is not None:
        raise SchemaError(
            "/kind", "--window applies only to shift files")
    return loaded


def _lasso_from_file(path, sys_, two_sided):
    """Lasso from a JSON object of point lists: ``stem`` (optional) and
    ``cycle``, plus ``past`` (optional, default the cycle) when
    two-sided.  Every entry must be a point of ``sys_``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("", f"cannot read lasso file {path}: {exc}") from exc
    if not isinstance(obj, dict) or "cycle" not in obj:
        raise SchemaError("/cycle", "lasso file needs a cycle list")
    lists = {"stem": obj.get("stem", []), "cycle": obj["cycle"]}
    if two_sided:
        lists["past"] = obj.get("past", obj["cycle"])
    elif "past" in obj:
        raise SchemaError("/past", "only a two-sided lasso has a past cycle")
    for key, entries in lists.items():
        if not isinstance(entries, list) or (key != "stem" and not entries):
            raise SchemaError(f"/{key}", "lasso needs a list of points here")
        for k, point in enumerate(entries):
            if isinstance(point, (list, dict)) or point not in sys_.index:
                raise SchemaError(
                    f"/{key}/{k}", f"{point!r} is not a point of the system")
    return Lasso(stem=tuple(lists["stem"]), cycle=tuple(lists["cycle"]),
                 two_sided=two_sided,
                 past_cycle=tuple(lists["past"]) if two_sided else None)


def _cert_obj(cert):
    if cert is None:
        return None
    return {
        "kind": cert.kind,
        "delta": _frac(cert.delta),
        "epsilon": _frac(cert.epsilon),
        "lasso": {"stem": list(cert.lasso.stem), "cycle": list(cert.lasso.cycle)},
        "dying_step": cert.dying_step,
        "point": cert.point,
    }


def _chain_obj(info):
    """JSON form of a (bool, info) result from a chain-tracing check."""
    out = {"gap_range": [info["gap_range"].start, info["gap_range"].stop]}
    chain = info.get("counterexample")
    if chain is not None:
        out["counterexample"] = {
            "sources": list(chain.sources),
            "gap": chain.gap,
            "closed": chain.closed,
            "delta": fraction_str(chain.delta),
        }
    return out


def _write(path, text):
    """Write an output file; a path that cannot be written is bad input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(args, command, parameters, digest, results, emitted=None):
    """Print the report of a run, first writing it (or ``emitted``) to
    ``--emit`` when given, so that a failed write prints nothing."""
    text = canonical_json({
        "tool": f"dynlab {__version__}",
        "command": command,
        "parameters": parameters,
        "system_digest": digest,
        "results": results,
        "wall_ms": int((time.monotonic() - args.t0) * 1000),
    })
    if args.emit:
        _write(args.emit, text if emitted is None else canonical_json(emitted))
    _sys.stdout.write(text)


def _run(args):
    """The report path of every command that takes a system: load and
    digest the system, run the command's handler on it, and emit the
    parameters and results the handler returns, with its exit code."""
    sys_ = _load_finite(args.system, args.window)
    digest = digest_obj(system_to_obj(sys_))
    params, results, code = args.handler(args, sys_)
    params["window"] = args.window
    command = f"check {args.what}" if args.command == "check" else args.command
    _emit(args, command, params, digest, results)
    return code


# -- subcommand handlers: (args, system) -> (parameters, results, exit code) --


def _cmd_check_shadowing(args, sys_):
    epsilon = as_fraction(args.epsilon)
    params = {"epsilon": fraction_str(epsilon),
              "period_bound": args.period_bound}
    if args.delta is None:
        best = shadowing_modulus(sys_, epsilon)
        return params, {"modulus_delta": fraction_str(best)}, 0
    delta = as_fraction(args.delta)
    params["delta"] = fraction_str(delta)
    holds, cert = shadowing_holds(sys_, delta, epsilon)
    p_holds, p_cert = periodic_shadowing_holds(
        sys_, delta, epsilon, args.period_bound)
    s_holds, s_cert = strong_periodic_shadowing_holds(
        sys_, delta, epsilon, args.period_bound)
    results = {
        "shadowing": {"holds": holds, "certificate": _cert_obj(cert)},
        "periodic": {"holds": p_holds, "certificate": _cert_obj(p_cert)},
        "strong_periodic": {"holds": s_holds,
                            "certificate": _cert_obj(s_cert)},
    }
    return params, results, 0 if holds else 1


def _cmd_check_spec(args, sys_):
    epsilon = as_fraction(args.epsilon)
    params = {"variant": args.variant, "epsilon": fraction_str(epsilon),
              "N": args.N, "k_bound": args.k_bound}
    if args.variant in ("weak", "full"):
        check = (local_weak_spec_holds if args.variant == "weak"
                 else lambda s, e, n, d: local_spec_holds(s, e, n, d,
                                                          args.k_bound))
        if args.delta is None:
            best = _largest_passing(
                threshold_grid(sys_).positive,
                lambda d: check(sys_, epsilon, args.N, d)[0])
            code = 0 if best is not None else 1
            return params, {"best_delta": _frac(best)}, code
        delta = as_fraction(args.delta)
        params["delta"] = fraction_str(delta)
        holds, info = check(sys_, epsilon, args.N, delta)
        return params, {"holds": holds, **_chain_obj(info)}, 0 if holds else 1
    if args.variant == "lipschitz":
        out = generalized_spec_checks(sys_, "lipschitz", N=args.N)
        L, d0 = out["envelope"]
        results = {"holds": out["holds"],
                   "envelope": {"slope": fraction_str(L),
                                "delta0": fraction_str(d0)}}
    else:  # limit | two-sided
        if args.lasso is None:
            raise SchemaError("", f"variant {args.variant} needs --lasso FILE")
        lasso = _lasso_from_file(args.lasso, sys_,
                                 args.variant == "two-sided")
        out = generalized_spec_checks(sys_, args.variant, lasso=lasso,
                                      N=args.N)
        results = {"holds": out["holds"], "point": out["point"]}
    return params, results, 0 if out["holds"] else 1


def _cmd_check_expansive(args, sys_):
    delta = as_fraction(args.delta)
    params = {"variant": args.variant, "delta": fraction_str(delta),
              "n": args.n}
    if args.variant == "n":
        results = {"holds": n_expansive_holds(sys_, args.n, delta)}
    elif args.variant == "strong-measure":
        holds, witness = strong_measure_expansive_holds(sys_, delta)
        results = {"holds": holds}
        if witness is not None:
            point, measure = witness
            results["counterexample"] = {
                "point": point,
                "measure": {sys_.points[i]: fraction_str(w)
                            for i, w in enumerate(measure.weights) if w},
            }
    elif args.variant == "measure":
        holds, note = measure_expansive_holds(sys_, delta)
        results = {"holds": holds, "note": note}
    else:  # per
        results = {"holds": expansive_on_per(sys_, delta)}
    return params, results, 0 if results["holds"] else 1


def _cmd_spectral(args, sys_):
    dec = spectral_decomposition(sys_)
    checks = dec.verify(sys_)
    routes_ok = (not dec.report.passes) or all(
        piece.routes_agree for piece in dec.pieces)
    results = {"decomposition": decomposition_to_obj(dec), "checks": checks,
               "routes_agree_under_hypotheses": routes_ok}
    return {}, results, 0 if all(checks.values()) and routes_ok else 1


def _cmd_battery(args, sys_):
    results = run_theorem_battery(sys_, args.id, args.period_bound)
    code = 3 if results["cap_hits"] else 0
    if results.get("asserted") and results["violations"]:
        code = 1
    return {"id": args.id, "period_bound": args.period_bound}, results, code


def _cmd_modulus(args, sys_):
    if args.prop.startswith("spec-"):
        table = modulus_table_for_spec(sys_, args.prop.removeprefix("spec-"),
                                       k_bound=args.k_bound)
    else:
        table = modulus_table(sys_, args.prop, args.period_bound)
    if args.csv:
        _write(args.csv, modulus_csv(table))
    params = {"prop": args.prop, "period_bound": args.period_bound,
              "k_bound": args.k_bound}
    results = {"table": modulus_table_to_obj(table),
               "populated": table.populated()}
    return params, results, 0


def _cmd_gallery(args):
    if args.family == "xpq":
        built = build_xpq(args.p, args.q)
        params = {"p": args.p, "q": args.q}
    elif args.family == "myex":
        built = build_myex(args.lattice, args.K).system
        params = {"lattice": args.lattice, "K": args.K}
    elif args.family == "product":
        primes = tuple(int(t) for t in args.primes.split(","))
        built = build_product_truncation(primes, args.factors)
        params = {"primes": list(primes), "factors": args.factors}
    else:  # random
        built = build_random_system(args.seed, args.size, args.invertible)
        params = {"seed": args.seed, "size": args.size,
                  "invertible": args.invertible}
    if args.window is not None:
        if not isinstance(built, Sft):
            raise SchemaError("", "--window applies only to shift families")
        built = window_system(built, args.window)
    params["window"] = args.window
    obj = sft_to_obj(built) if isinstance(built, Sft) else system_to_obj(built)
    results = {"system": obj, "kind": obj["kind"],
               "size": len(obj.get("points", obj.get("alphabet", ())))}
    _emit(args, f"gallery {args.family}", params, digest_obj(obj), results,
          obj)
    return 0


# -- parser -------------------------------------------------------------------


def _add_common(parser, handler=None):
    """--window, --emit, and --system for a command run by ``handler``."""
    if handler is not None:
        parser.add_argument("--system", required=True,
                            help="path to a system JSON file")
        parser.set_defaults(func=_run, handler=handler)
    parser.add_argument("--window", type=int, default=None,
                        help="window radius; turns a shift file into its "
                             "finite window system")
    parser.add_argument("--emit", default=None,
                        help="also write the JSON output to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dynlab",
        description="Exact tracing, expansiveness and decomposition checks "
                    "on finite metric systems and shifts of finite type.")
    parser.add_argument("--version", action="version",
                        version=f"dynlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide one property at thresholds")
    what = check.add_subparsers(dest="what", required=True)

    p = what.add_parser("shadowing")
    _add_common(p, _cmd_check_shadowing)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", default=None,
                   help="omit to compute the best grid delta instead")
    p.add_argument("--period-bound", type=int, default=8, dest="period_bound")

    p = what.add_parser("spec")
    _add_common(p, _cmd_check_spec)
    p.add_argument("--variant", required=True,
                   choices=("weak", "full", "limit", "lipschitz", "two-sided"))
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--k-bound", type=int, default=6, dest="k_bound")
    p.add_argument("--lasso", default=None,
                   help="JSON file with stem/cycle lists (limit, two-sided) "
                        "and an optional past list (two-sided)")

    p = what.add_parser("expansive")
    _add_common(p, _cmd_check_expansive)
    p.add_argument("--variant", required=True,
                   choices=("n", "strong-measure", "measure", "per"))
    p.add_argument("--delta", required=True)
    p.add_argument("--n", type=int, default=1)

    p = sub.add_parser("spectral", help="basic sets, cyclic parts, mixing")
    _add_common(p, _cmd_spectral)

    gallery = sub.add_parser("gallery", help="construct a built-in example")
    gallery.set_defaults(func=_cmd_gallery)
    fam = gallery.add_subparsers(dest="family", required=True)

    p = fam.add_parser("xpq")
    _add_common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = fam.add_parser("myex")
    _add_common(p)
    p.add_argument("--lattice", type=int, required=True)
    p.add_argument("--K", type=int, required=True)

    p = fam.add_parser("product")
    _add_common(p)
    p.add_argument("--primes", required=True,
                   help="comma-separated strictly increasing primes")
    p.add_argument("--factors", type=int, required=True)

    p = fam.add_parser("random")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--invertible", action="store_true")

    p = sub.add_parser("battery", help="run a quantified law battery")
    _add_common(p, _cmd_battery)
    p.add_argument("--id", required=True, choices=BATTERY_IDS)
    p.add_argument("--period-bound", type=int, default=6, dest="period_bound")

    p = sub.add_parser("modulus", help="best-threshold table per epsilon")
    _add_common(p, _cmd_modulus)
    p.add_argument("--prop", required=True,
                   choices=("shadowing", "periodic", "strong-periodic",
                            "spec-weak", "spec-full"))
    p.add_argument("--period-bound", type=int, default=8, dest="period_bound")
    p.add_argument("--k-bound", type=int, default=6, dest="k_bound")
    p.add_argument("--csv", default=None,
                   help="also write the table as CSV to this path")

    return parser


@functools.cache
def _parser():
    """The parser of :func:`build_parser`, built once per process:
    parsing reads it and changes nothing in it (no option has a mutable
    default), and errors go to the ``sys.stderr`` of the moment."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    args.t0 = time.monotonic()
    try:
        return args.func(args)
    except StateExplosion as exc:
        print(f"dynlab: resource cap hit: {exc}", file=_sys.stderr)
        return 3
    except (DynlabError, ValueError) as exc:
        print(f"dynlab: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
