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
The system file is read on every command, but a process that runs
several commands (through :func:`main`) loads and digests each file
text once per window: a command on the text and window of the one
before reuses its system, with the threshold structures the earlier
commands built.  A single shell command loads its file once, as ever.

The grammar of the command line is one table, ``_COMMANDS``.  A
well-formed command line (the command words, then each option at most
once and by its full name, each value not starting with "-") is parsed
from the table without importing argparse.  Help, ``--version`` and
every other command line, errors included, go through argparse, built
from the same table on first need, so their text is argparse's as ever.

Exit codes: 0 all checks pass; 1 a checked property or a battery
law failed (the report says which); 2 input error or an
unwritable output file; 3 resource cap hit (raise ``DYNLAB_SUBSET_CAP``
to retry).
"""

from __future__ import annotations

import functools
import json
import sys as _sys
import time
from types import SimpleNamespace

from . import __version__
from .battery import BATTERY_IDS, run_theorem_battery
from .core import Lasso, _at_least, _positive, as_fraction
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
    _TABLES,
    _best_delta,
    _decider,
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
)
from .symbolic import Sft, window_system

__all__ = ["main", "parse_system_file"]


def _json_int(text):
    """A JSON integer literal as an int: json.load's ``parse_int``, so
    that a literal too long for int() is refused in words of its own
    (int's message names an interpreter setting)."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"an integer literal of {len(text)} characters is "
                         f"too long") from None


class _NotJson(Exception):
    """Text that does not decode as JSON, raised by code that has no
    file name; :func:`_read` names the file."""


def _read(path, parse, *args):
    """``parse(text, *args)`` on the text of the file at ``path``, read
    afresh on every call; a file that cannot be read or is not JSON is
    refused in words that name it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # undecodable text
        raise SchemaError("", f"{path} is not JSON: {exc}") from exc
    try:
        return parse(text, *args)
    except _NotJson as exc:
        raise SchemaError("", f"{path} is not JSON: {exc}") from exc.__cause__


def _parse_system_text(text):
    """A validated system (finite or shift kind) from a file's text."""
    try:
        obj = json.loads(text, parse_int=_json_int)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or an over-long integer; RecursionError:
        # arrays or objects nested too deep to decode
        raise _NotJson(exc) from exc
    return parse_system_obj(obj)


def parse_system_file(path):
    """Load and validate a system file (finite or shift kind)."""
    return _read(path, _parse_system_text)


@functools.lru_cache(maxsize=1)
def _loaded(text, window):
    """The finite system of a system file's text and its digest,
    windowing a shift on request; kept for the last (text, window)
    only, so that a process running several commands on one file
    builds, checks and digests its system once and the commands share
    its memo.  An error is raised afresh on every call."""
    loaded = _parse_system_text(text)
    if isinstance(loaded, Sft):
        if window is None:
            raise SchemaError(
                "/kind", "this command needs a finite system; pass --window W "
                         "to run on the shift's window system")
        loaded = window_system(loaded, window)
    elif window is not None:
        raise SchemaError(
            "/kind", "--window applies only to shift files")
    return loaded, digest_obj(system_to_obj(loaded))


def _load_finite(path, window):
    """The finite system of a file, windowing shift files on request."""
    return _read(path, _loaded, window)[0]


def _lasso_from_file(path, sys_, two_sided):
    """Lasso from a JSON object of point lists: ``stem`` (optional) and
    ``cycle``, plus ``past`` (optional, default the cycle) when
    two-sided.  Every entry must be a point of ``sys_``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_int=_json_int)
    except (OSError, ValueError, RecursionError) as exc:
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
    digest the system (read the file, and build and digest the system
    unless the last command loaded the same text at the same window),
    run the command's handler on it, and emit the parameters and
    results the handler returns, with its exit code."""
    sys_, digest = _read(args.system, _loaded, args.window)
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
        if args.delta is None:
            prop = f"spec-{args.variant}"
            best = _best_delta(sys_, prop, epsilon,
                               _decider(sys_, prop, args.k_bound, N=args.N))
            return params, {"best_delta": _frac(best)}, 0
        delta = as_fraction(args.delta)
        params["delta"] = fraction_str(delta)
        holds, info = (
            local_weak_spec_holds(sys_, epsilon, args.N, delta)
            if args.variant == "weak" else
            local_spec_holds(sys_, epsilon, args.N, delta, args.k_bound))
        return params, {"holds": holds, **_chain_obj(info)}, 0 if holds else 1
    # the other variants read no threshold, but refuse a bad one as every
    # chain question does, before any work: N, then delta, then epsilon;
    # a delta that is given is echoed, as for weak and full
    _at_least(args.N, 1, "N")
    if args.delta is not None:
        params["delta"] = fraction_str(_positive(args.delta, "delta"))
    _positive(epsilon, "epsilon")
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
    # a piece with no stable-set parts (None) has no route to disagree
    routes_ok = (not dec.report.passes) or all(
        piece.routes_agree is not False for piece in dec.pieces)
    results = {"decomposition": decomposition_to_obj(dec), "checks": checks,
               "routes_agree_under_hypotheses": routes_ok}
    return {}, results, 0 if all(checks.values()) and routes_ok else 1


def _cmd_battery(args, sys_):
    results = run_theorem_battery(sys_, args.id, args.period_bound)
    code = 3 if results["cap_hits"] else 0
    if results["violations"]:
        code = 1
    return {"id": args.id, "period_bound": args.period_bound}, results, code


def _cmd_modulus(args, sys_):
    bound = args.k_bound if args.prop == "spec-full" else args.period_bound
    table = modulus_table(sys_, args.prop, bound)
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
        try:
            primes = tuple(int(t) for t in args.primes.split(","))
        except ValueError:
            raise ValueError("--primes must be comma-separated integers, "
                             f"got {args.primes!r}") from None
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


# -- command table ------------------------------------------------------------
#
# The grammar of the command line, written once.  A node is a dict:
# "parser" holds the keyword arguments of its argparse parser (the help
# line of a command's word), "defaults" the namespace values it sets,
# "options" each option's flag and the keyword arguments of argparse's
# add_argument (every option of a command that runs names its dest).  A
# node with subcommands names the namespace key of the word that picks
# one ("dest") and maps each word to its node ("commands").  _parse
# reads the table for a well-formed command line; _parser builds
# argparse from it for every other one.

_FRAME = {
    "--window": dict(dest="window", type=int, default=None,
                     help="window radius; turns a shift file into its "
                          "finite window system"),
    "--emit": dict(dest="emit", default=None,
                   help="also write the JSON output to this path"),
}


def _on_system(handler, options, **parser):
    """A command that runs ``handler`` on the system of ``--system``."""
    return {"parser": parser, "defaults": {"func": _run, "handler": handler},
            "options": {"--system": dict(dest="system", required=True,
                                         help="path to a system JSON file"),
                        **_FRAME, **options}}


_COMMANDS = {
    "parser": dict(
        prog="dynlab",
        description="Exact tracing, expansiveness and decomposition checks "
                    "on finite metric systems and shifts of finite type."),
    "options": {"--version": dict(action="version",
                                  version=f"dynlab {__version__}")},
    "dest": "command",
    "commands": {
        "check": {"parser": dict(help="decide one property at thresholds"),
                  "dest": "what", "commands": {
            "shadowing": _on_system(_cmd_check_shadowing, {
                "--epsilon": dict(dest="epsilon", required=True),
                "--delta": dict(dest="delta", default=None,
                                help="omit to compute the best grid delta "
                                     "instead"),
                "--period-bound": dict(dest="period_bound", type=int,
                                       default=8)}),
            "spec": _on_system(_cmd_check_spec, {
                "--variant": dict(dest="variant", required=True,
                                  choices=("weak", "full", "limit",
                                           "lipschitz", "two-sided")),
                "--epsilon": dict(dest="epsilon", required=True),
                "--delta": dict(dest="delta", default=None),
                "--N": dict(dest="N", type=int, default=1),
                "--k-bound": dict(dest="k_bound", type=int, default=6),
                "--lasso": dict(dest="lasso", default=None,
                                help="JSON file with stem/cycle lists (limit, "
                                     "two-sided) and an optional past list "
                                     "(two-sided)")}),
            "expansive": _on_system(_cmd_check_expansive, {
                "--variant": dict(dest="variant", required=True,
                                  choices=("n", "strong-measure", "measure",
                                           "per")),
                "--delta": dict(dest="delta", required=True),
                "--n": dict(dest="n", type=int, default=1)}),
        }},
        "spectral": _on_system(_cmd_spectral, {},
                               help="basic sets, cyclic parts, mixing"),
        "gallery": {"parser": dict(help="construct a built-in example"),
                    "defaults": {"func": _cmd_gallery},
                    "dest": "family", "commands": {
            "xpq": {"options": {
                **_FRAME,
                "--p": dict(dest="p", type=int, required=True),
                "--q": dict(dest="q", type=int, required=True)}},
            "myex": {"options": {
                **_FRAME,
                "--lattice": dict(dest="lattice", type=int, required=True),
                "--K": dict(dest="K", type=int, required=True)}},
            "product": {"options": {
                **_FRAME,
                "--primes": dict(dest="primes", required=True,
                                 help="comma-separated strictly increasing "
                                      "primes"),
                "--factors": dict(dest="factors", type=int, required=True)}},
            "random": {"options": {
                **_FRAME,
                "--seed": dict(dest="seed", type=int, required=True),
                "--size": dict(dest="size", type=int, required=True),
                "--invertible": dict(dest="invertible", action="store_true",
                                     default=False)}},
        }},
        "battery": _on_system(_cmd_battery, {
            "--id": dict(dest="id", required=True, choices=BATTERY_IDS),
            "--period-bound": dict(dest="period_bound", type=int, default=6)},
            help="run a quantified law battery"),
        "modulus": _on_system(_cmd_modulus, {
            "--prop": dict(dest="prop", required=True, choices=tuple(_TABLES)),
            "--period-bound": dict(dest="period_bound", type=int, default=8),
            "--k-bound": dict(dest="k_bound", type=int, default=6),
            "--csv": dict(dest="csv", default=None,
                          help="also write the table as CSV to this path")},
            help="best-threshold table per epsilon"),
    },
}


def _parse(argv):
    """The namespace argparse gives a well-formed command line, read off
    the command table: the command words, then options of the command,
    each at most once and by its full name, each but a flag followed by
    a value that does not start with "-".  Applies an option's type and
    choices and requires its required options.  None for any other
    command line (help, --version, an abbreviated, "=" or repeated
    option, a value that looks like an option, every error), which
    :func:`main` hands to argparse."""
    node, values, i = _COMMANDS, {}, 0
    while "commands" in node:
        if i == len(argv) or argv[i] not in node["commands"]:
            return None
        values[node["dest"]] = argv[i]
        node = node["commands"][argv[i]]
        values.update(node.get("defaults", {}))
        i += 1
    options, given = node["options"], {}
    while i < len(argv):
        spec = options.get(argv[i])
        if spec is None or argv[i] in given:
            return None
        flag, i = argv[i], i + 1
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        if i == len(argv) or argv[i].startswith("-"):
            return None
        value, i = argv[i], i + 1
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if value not in spec.get("choices", (value,)):
            return None
        given[flag] = value
    for flag, spec in options.items():
        if flag not in given and spec.get("required"):
            return None
        values[spec["dest"]] = given.get(flag, spec.get("default"))
    return SimpleNamespace(**values)


@functools.cache
def _parser():
    """argparse built from the command table, once per process and only
    for a command line :func:`_parse` declines, so that help, --version
    and every error read as argparse words them.  Parsing reads it and
    changes nothing in it (no option has a mutable default), and errors
    go to the ``sys.stderr`` of the moment."""
    import argparse

    def build(parser, node):
        parser.set_defaults(**node.get("defaults", {}))
        for flag, spec in node.get("options", {}).items():
            parser.add_argument(flag, **spec)
        if "commands" in node:
            sub = parser.add_subparsers(dest=node["dest"], required=True)
            for word, child in node["commands"].items():
                build(sub.add_parser(word, **child.get("parser", {})), child)
        return parser

    return build(argparse.ArgumentParser(**_COMMANDS["parser"]), _COMMANDS)


def main(argv=None):
    argv = _sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
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
