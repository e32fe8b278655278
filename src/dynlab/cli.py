"""The ``dynlab`` command line tool: file I/O, report assembly, and the
battery runner.

Every run prints one canonical JSON report to stdout (and to ``--emit``
when given): tool version, command, parameters, a digest of the input
system, the results, and wall time.  Replaying a command on the same
inputs reproduces the report byte for byte except for the wall-time
field.  The CLI adds no mathematics — results quote library outputs.

Exit codes: 0 all asserted checks pass; 1 a checked property or
asserted law failed (the report says which); 2 input error; 3 resource
cap hit (raise ``DYNLAB_SUBSET_CAP`` to retry).
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

__all__ = ["main", "parse_system_file", "run_theorem_battery"]


def parse_system_file(path):
    """Load and validate a system file (finite or shift kind)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
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
    except (OSError, json.JSONDecodeError) as exc:
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
        "delta": None if cert.delta is None else fraction_str(cert.delta),
        "epsilon": None if cert.epsilon is None else fraction_str(cert.epsilon),
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


def _emit(report, emit_path):
    text = canonical_json(report)
    _sys.stdout.write(text)
    if emit_path:
        with open(emit_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(args, command, parameters, digest, results):
    return {
        "tool": f"dynlab {__version__}",
        "command": command,
        "parameters": parameters,
        "system_digest": digest,
        "results": results,
        "wall_ms": int((time.monotonic() - args.t0) * 1000),
    }


def _system_digest(loaded):
    obj = sft_to_obj(loaded) if isinstance(loaded, Sft) else system_to_obj(loaded)
    return digest_obj(obj)


# -- subcommand handlers ------------------------------------------------------


def _cmd_check_shadowing(args):
    sys_ = _load_finite(args.system, args.window)
    digest = _system_digest(sys_)
    epsilon = as_fraction(args.epsilon)
    params = {"epsilon": fraction_str(epsilon),
              "period_bound": args.period_bound, "window": args.window}
    if args.delta is None:
        best = shadowing_modulus(sys_, epsilon)
        results = {"modulus_delta": fraction_str(best)}
        code = 0
    else:
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
        code = 0 if holds else 1
    _emit(_report(args, "check shadowing", params, digest, results), args.emit)
    return code


def _cmd_check_spec(args):
    sys_ = _load_finite(args.system, args.window)
    digest = _system_digest(sys_)
    epsilon = as_fraction(args.epsilon)
    params = {"variant": args.variant, "epsilon": fraction_str(epsilon),
              "N": args.N, "k_bound": args.k_bound, "window": args.window}
    if args.variant in ("weak", "full"):
        check = (local_weak_spec_holds if args.variant == "weak"
                 else lambda s, e, n, d: local_spec_holds(s, e, n, d,
                                                          args.k_bound))
        if args.delta is not None:
            delta = as_fraction(args.delta)
            params["delta"] = fraction_str(delta)
            holds, info = check(sys_, epsilon, args.N, delta)
            results = {"holds": holds, **_chain_obj(info)}
            code = 0 if holds else 1
        else:
            best = _largest_passing(
                threshold_grid(sys_).positive,
                lambda d: check(sys_, epsilon, args.N, d)[0])
            results = {"best_delta":
                       None if best is None else fraction_str(best)}
            code = 0 if best is not None else 1
    elif args.variant == "lipschitz":
        out = generalized_spec_checks(sys_, "lipschitz", N=args.N)
        L, d0 = out["envelope"]
        results = {"holds": out["holds"],
                   "envelope": {"slope": fraction_str(L),
                                "delta0": fraction_str(d0)}}
        code = 0 if out["holds"] else 1
    else:  # limit | two-sided
        if args.lasso is None:
            raise SchemaError("", f"variant {args.variant} needs --lasso FILE")
        lasso = _lasso_from_file(args.lasso, sys_,
                                 args.variant == "two-sided")
        out = generalized_spec_checks(sys_, args.variant, lasso=lasso,
                                      N=args.N)
        results = {"holds": out["holds"], "point": out["point"]}
        code = 0 if out["holds"] else 1
    _emit(_report(args, "check spec", params, digest, results), args.emit)
    return code


def _cmd_check_expansive(args):
    sys_ = _load_finite(args.system, args.window)
    digest = _system_digest(sys_)
    delta = as_fraction(args.delta)
    params = {"variant": args.variant, "delta": fraction_str(delta),
              "n": args.n, "window": args.window}
    if args.variant == "n":
        holds = n_expansive_holds(sys_, args.n, delta)
        results = {"holds": holds}
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
        holds = expansive_on_per(sys_, delta)
        results = {"holds": holds}
    _emit(_report(args, "check expansive", params, digest, results), args.emit)
    return 0 if results["holds"] else 1


def _cmd_spectral(args):
    sys_ = _load_finite(args.system, args.window)
    digest = _system_digest(sys_)
    dec = spectral_decomposition(sys_)
    checks = dec.verify(sys_)
    routes_ok = (not dec.report.passes) or all(
        piece.routes_agree for piece in dec.pieces)
    results = {"decomposition": decomposition_to_obj(dec), "checks": checks,
               "routes_agree_under_hypotheses": routes_ok}
    params = {"window": args.window}
    _emit(_report(args, "spectral", params, digest, results), args.emit)
    return 0 if all(checks.values()) and routes_ok else 1


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
    report = _report(args, f"gallery {args.family}", params, digest_obj(obj),
                     results)
    text = canonical_json(report)
    _sys.stdout.write(text)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(obj))
    return 0


def _cmd_battery(args):
    sys_ = _load_finite(args.system, args.window)
    digest = _system_digest(sys_)
    results = run_theorem_battery(sys_, args.id, args.period_bound)
    params = {"id": args.id, "period_bound": args.period_bound,
              "window": args.window}
    _emit(_report(args, "battery", params, digest, results), args.emit)
    if results.get("asserted") and results["violations"]:
        return 1
    if results["cap_hits"]:
        return 3
    return 0


def _cmd_modulus(args):
    sys_ = _load_finite(args.system, args.window)
    digest = _system_digest(sys_)
    if args.prop.startswith("spec-"):
        table = modulus_table_for_spec(sys_, args.prop.removeprefix("spec-"),
                                       k_bound=args.k_bound)
    else:
        table = modulus_table(sys_, args.prop, args.period_bound)
    params = {"prop": args.prop, "period_bound": args.period_bound,
              "k_bound": args.k_bound, "window": args.window}
    results = {"table": modulus_table_to_obj(table),
               "populated": table.populated()}
    _emit(_report(args, "modulus", params, digest, results), args.emit)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(modulus_csv(table))
    return 0


# -- parser -------------------------------------------------------------------


def _add_common(parser, system=True):
    if system:
        parser.add_argument("--system", required=True,
                            help="path to a system JSON file")
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
    _add_common(p)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", default=None,
                   help="omit to compute the best grid delta instead")
    p.add_argument("--period-bound", type=int, default=8, dest="period_bound")
    p.set_defaults(func=_cmd_check_shadowing)

    p = what.add_parser("spec")
    _add_common(p)
    p.add_argument("--variant", required=True,
                   choices=("weak", "full", "limit", "lipschitz", "two-sided"))
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--k-bound", type=int, default=6, dest="k_bound")
    p.add_argument("--lasso", default=None,
                   help="JSON file with stem/cycle lists (limit, two-sided) "
                        "and an optional past list (two-sided)")
    p.set_defaults(func=_cmd_check_spec)

    p = what.add_parser("expansive")
    _add_common(p)
    p.add_argument("--variant", required=True,
                   choices=("n", "strong-measure", "measure", "per"))
    p.add_argument("--delta", required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=_cmd_check_expansive)

    p = sub.add_parser("spectral", help="basic sets, cyclic parts, mixing")
    _add_common(p)
    p.set_defaults(func=_cmd_spectral)

    gallery = sub.add_parser("gallery", help="construct a built-in example")
    fam = gallery.add_subparsers(dest="family", required=True)

    p = fam.add_parser("xpq")
    _add_common(p, system=False)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_gallery)

    p = fam.add_parser("myex")
    _add_common(p, system=False)
    p.add_argument("--lattice", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.set_defaults(func=_cmd_gallery)

    p = fam.add_parser("product")
    _add_common(p, system=False)
    p.add_argument("--primes", required=True,
                   help="comma-separated strictly increasing primes")
    p.add_argument("--factors", type=int, required=True)
    p.set_defaults(func=_cmd_gallery)

    p = fam.add_parser("random")
    _add_common(p, system=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--invertible", action="store_true")
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("battery", help="run a quantified law battery")
    _add_common(p)
    p.add_argument("--id", required=True, choices=BATTERY_IDS)
    p.add_argument("--period-bound", type=int, default=6, dest="period_bound")
    p.set_defaults(func=_cmd_battery)

    p = sub.add_parser("modulus", help="best-threshold table per epsilon")
    _add_common(p)
    p.add_argument("--prop", required=True,
                   choices=("shadowing", "periodic", "strong-periodic",
                            "spec-weak", "spec-full"))
    p.add_argument("--period-bound", type=int, default=8, dest="period_bound")
    p.add_argument("--k-bound", type=int, default=6, dest="k_bound")
    p.add_argument("--csv", default=None,
                   help="also write the table as CSV to this path")
    p.set_defaults(func=_cmd_modulus)

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
