"""Spans and counts around the public functions of every dynlab module.

The wrappers are installed from outside the package: each public
function (a name in a module's ``__all__`` that the module defines) is
replaced by a wrapper in every ``dynlab`` module that binds it, which
also catches the copies made by ``from .x import y``.  Two methods are
wrapped as well: ``Decomposition.verify`` gets a span and
``FiniteSystem.power``, which inner loops call millions of times, only
a count.

Spans live in memory as ``[name, start, end, parent]`` lists and are
written out once, by :meth:`Tracer.dump`, when the run ends.  A span's
self time is its duration minus the time covered by its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("core", "symbolic", "gallery", "shadowing", "specification",
           "expansive", "recurrence", "battery", "serialize", "cli")


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.cheap_counts = {}  # name -> [calls], for the hottest methods
        self.active = False
        self._spread_systems = {}

    def enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def leave(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one of its steps."""
        if not self.active:
            yield
            return
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def self_times(self):
        """(self seconds by name, calls by name) over all closed spans."""
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls = defaultdict(float), Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - covered[idx]
            calls[name] += 1
        return self_s, calls

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "cheap_counts": {k: v[0] for k, v in
                                        self.cheap_counts.items()}}, fh)

    # -- count hooks: results inspected at the boundary ----------------------

    def _on_modulus_table(self, args, kwargs, result):
        prop = args[1] if len(args) > 1 else kwargs.get("prop")
        self.counts[f"shadowing.table_rows.{prop}"] += len(result.rows)

    def _on_orbit_spread(self, args, kwargs, result):
        system = args[0] if args else kwargs["sys"]
        # keep the system alive so its id is never reused by another one
        self._spread_systems[id(system)] = system
        self.counts["expansive.spread_systems"] = len(self._spread_systems)

    def _on_battery(self, args, kwargs, result):
        self.counts["battery.cells"] += sum(
            len(result.get(key, ())) for key in
            ("rows", "chain_cells", "transfer_rows"))
        self.counts["battery.cap_hits"] += len(result["cap_hits"])


def _wrap(tracer, name, fn, hook, cap_error):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except cap_error as exc:
            # charge the cap hit to the innermost public function only
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                tracer.counts[f"{layer}.cap_hits"] += 1
            raise
        finally:
            tracer.leave()
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return wrapper


def _count_only(tracer, name, fn):
    calls = tracer.cheap_counts[name] = [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            calls[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer):
    """Wrap every public dynlab function; returns a function undoing it."""
    import dynlab
    from dynlab.core import FiniteSystem
    from dynlab.errors import StateExplosion
    from dynlab.recurrence import Decomposition

    modules = [dynlab] + [importlib.import_module(f"dynlab.{m}")
                          for m in MODULES]
    hooks = {
        "shadowing.modulus_table": tracer._on_modulus_table,
        "expansive.orbit_spread": tracer._on_orbit_spread,
        "battery.run_theorem_battery": tracer._on_battery,
    }
    wrapped = {}
    for mod in modules[1:]:
        short = mod.__name__.split(".", 1)[1]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                wrapped[fn] = _wrap(tracer, name, fn, hooks.get(name),
                                    StateExplosion)
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrapped[value])
    for cls, attr, make in (
            (Decomposition, "verify",
             lambda fn: _wrap(tracer, "recurrence.Decomposition.verify", fn,
                              None, StateExplosion)),
            (FiniteSystem, "power",
             lambda fn: _count_only(tracer, "core.FiniteSystem.power", fn))):
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def uninstall():
        for owner, attr, original in undo:
            setattr(owner, attr, original)

    return uninstall


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, import_s):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts

    def s(*names):
        return sum(self_s[n] for n in names)

    def c(*names):
        return sum(calls[n] for n in names)

    periodic = ("shadowing.periodic_shadowing_holds",
                "shadowing.strong_periodic_shadowing_holds")
    out = {
        "core.import_s": (import_s, "s"),
        "core.build_finite_system_s": (s("core.build_finite_system"), "s"),
        "core.build_finite_system_calls": (c("core.build_finite_system"),
                                           "count"),
        "core.threshold_grid_calls": (c("core.threshold_grid"), "count"),
        "core.power_calls": (tracer.cheap_counts["core.FiniteSystem.power"][0],
                            "count"),
        "symbolic.window_system_s": (s("symbolic.window_system"), "s"),
        "gallery.build_s": (s("gallery.build_xpq", "gallery.build_myex",
                              "gallery.build_product_truncation",
                              "gallery.build_random_system"), "s"),
        "shadowing.shadowing_holds_s": (s("shadowing.shadowing_holds"), "s"),
        "shadowing.shadowing_holds_calls": (c("shadowing.shadowing_holds"),
                                            "count"),
        "shadowing.calls_per_row": (_ratio(
            c("shadowing.shadowing_holds"),
            counts["shadowing.table_rows.shadowing"]), "ratio"),
        "shadowing.periodic_s": (s(*periodic), "s"),
        "shadowing.periodic_calls": (c(*periodic), "count"),
        "shadowing.modulus_table_s": (s("shadowing.modulus_table"), "s"),
        "shadowing.special_s": (s("shadowing.special_shadowing_holds"), "s"),
        "shadowing.cap_hits": (counts["shadowing.cap_hits"], "count"),
        "specification.weak_s": (s("specification.local_weak_spec_holds"),
                                 "s"),
        "specification.weak_calls": (c("specification.local_weak_spec_holds"),
                                     "count"),
        "specification.full_s": (s("specification.local_spec_holds"), "s"),
        "specification.full_calls": (c("specification.local_spec_holds"),
                                     "count"),
        "specification.pairwise_s": (
            s("specification.pairwise_tracing_chain"), "s"),
        "specification.derived_s": (
            s("specification.derived_periodic_shadowing"), "s"),
        "specification.cap_hits": (counts["specification.cap_hits"], "count"),
        "expansive.orbit_spread_s": (s("expansive.orbit_spread"), "s"),
        "expansive.orbit_spread_calls": (c("expansive.orbit_spread"), "count"),
        "expansive.spread_calls_per_system": (_ratio(
            c("expansive.orbit_spread"), counts["expansive.spread_systems"]),
            "ratio"),
        "expansive.strong_measure_s": (
            s("expansive.strong_measure_expansive_holds"), "s"),
        "expansive.n_expansive_s": (s("expansive.n_expansive_holds"), "s"),
        "recurrence.basic_sets_s": (s("recurrence.basic_sets"), "s"),
        "recurrence.chain_recurrent_set_s": (
            s("recurrence.chain_recurrent_set"), "s"),
        "recurrence.nonwandering_set_s": (s("recurrence.nonwandering_set"),
                                          "s"),
        "recurrence.cyclic_decomposition_s": (
            s("recurrence.cyclic_decomposition"), "s"),
        "recurrence.is_mixing_s": (s("recurrence.is_mixing"), "s"),
        "recurrence.hypothesis_report_s": (s("recurrence.hypothesis_report"),
                                           "s"),
        "recurrence.verify_s": (s("recurrence.Decomposition.verify"), "s"),
        "battery.self_s": (s("battery.run_theorem_battery",
                             "battery.periodic_spectrum"), "s"),
        "battery.cells": (counts["battery.cells"], "count"),
        "battery.cap_hits": (counts["battery.cap_hits"], "count"),
        "serialize.parse_s": (s("serialize.parse_system_obj",
                                "serialize.obj_to_system",
                                "serialize.obj_to_sft"), "s"),
        "serialize.canonical_json_s": (s("serialize.canonical_json"), "s"),
        "serialize.digest_s": (s("serialize.digest_obj"), "s"),
        "cli.self_s": (s("cli.main", "cli.parse_system_file"), "s"),
    }
    return out
