"""The top-level surface is the union of the submodules' ``__all__``.

Each public name is declared once, in the ``__all__`` of the module that
defines it; ``dynlab`` republishes every submodule but the command line
module.  The frozen lists below pin the surface so that a name cannot
drop out of it unnoticed.
"""

import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import dynlab
from dynlab import errors

REPUBLISHED = ("battery", "core", "errors", "expansive", "gallery",
               "recurrence", "serialize", "shadowing", "specification",
               "symbolic")

# the modules ``import dynlab`` loads, in a fresh interpreter
LOADED = {"dynlab", *(f"dynlab.{name}" for name in REPUBLISHED)}

# the surface before every submodule was republished whole ...
EARLIER_SURFACE = {
    "BATTERY_IDS", "BasicPiece", "Blocked", "BoundTooSmall",
    "ChainRecurrence", "Decomposition", "DeltaGraph", "DynlabError",
    "FiniteSystem", "GammaSet", "HypothesisReport", "InvariantMeasure",
    "Lasso", "MetricViolation", "ModulusTable", "MyexInstance", "SchemaError",
    "Sft", "ShadowCertificate", "SpecCertificate", "SpecInstance",
    "StableSets", "StateExplosion", "SymbolicPoint", "ThresholdGrid",
    "__version__", "as_fraction", "basic_sets", "blockify",
    "build_finite_system", "build_myex", "build_product_truncation",
    "build_random_system", "build_sft", "build_xpq", "canonical_json",
    "chain_graph", "chain_recurrent_set", "construct_shadow_point",
    "cp_construction", "cyclic_decomposition",
    "derived_periodic_shadowing", "digest_obj", "enumerate_ergodic_measures",
    "eta_modulus", "expansive_on_per", "gamma_set", "gap_values",
    "generalized_spec_checks", "hypothesis_report", "is_mixing",
    "is_periodic_pseudo_orbit", "is_pseudo_orbit", "is_transitive",
    "lipschitz_constants", "local_spec_holds",
    "local_weak_spec_holds", "lockstep_orbit_pair", "measure_expansive_holds",
    "modulus_csv", "modulus_table",
    "n_expansive_constant", "n_expansive_holds", "nonwandering_set",
    "obj_to_sft", "obj_to_system", "orbit_spread", "pairwise_tracing_chain",
    "parse_system_obj", "periodic_point_count", "periodic_points",
    "periodic_shadowing_holds", "periodic_spectrum", "product_system",
    "run_theorem_battery", "sft_to_obj", "shadowing_holds",
    "shadowing_modulus", "shadows", "shift_distance", "spec_to_shadow_point",
    "special_shadowing_holds", "spectral_decomposition", "stable_sets",
    "strong_measure_expansive_holds", "strong_periodic_shadowing_holds",
    "subset_cap", "system_to_obj",
    "theorem_stableset_check", "threshold_grid", "trace_chain",
    "window_system",
}

# ... less the four that restated a public function that stays:
# strong_shadow_point (trace_chain at gap 1 with periodic=True),
# limit_shadowing_check (generalized_spec_checks' "limit" variant),
# two_sided_limit_shadowing_check (its "two-sided" variant) and
# delta_graph (chain_graph) ...

# ... and the names that republishing added to it
ADDED = {
    "fraction_str", "decomposition_to_obj", "modulus_table_to_obj",
    "NotABijection", "NotInvertible", "EmptyShift", "HorizonExceeded",
    "NotCoprime", "NotEnoughOrbits", "NotDecaying", "ModulusViolation",
}


def submodules():
    return [importlib.import_module(f"dynlab.{name}") for name in REPUBLISHED]


def test_all_is_the_version_then_each_submodule_list():
    expected = ["__version__"]
    for module in submodules():
        expected += module.__all__
    assert dynlab.__all__ == expected
    assert len(set(dynlab.__all__)) == len(dynlab.__all__)


def defined_names(module):
    """The names that the top-level statements of ``module``'s source
    bind, imports aside."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(leaf.id for target in targets
                         for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return names


def test_each_submodule_lists_only_what_it_defines():
    # the command line module too, though dynlab does not republish it
    for module in [*submodules(), importlib.import_module("dynlab.cli")]:
        assert set(module.__all__) <= defined_names(module), module.__name__


def test_each_name_is_the_submodules_object():
    for module in submodules():
        for name in module.__all__:
            assert getattr(dynlab, name) is getattr(module, name), name


def test_errors_list_every_error_type_and_the_warning():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert set(errors.__all__) == defined
    assert defined == {"BoundTooSmall"} | {
        name for name in defined
        if issubclass(getattr(errors, name), errors.DynlabError)}
    assert len(errors.__all__) == 13


def test_surface_only_gains_the_serialize_helpers_and_error_types():
    assert EARLIER_SURFACE.isdisjoint(ADDED)
    assert set(dynlab.__all__) == EARLIER_SURFACE | ADDED


def test_import_loads_the_republished_modules_and_not_the_cli():
    src = os.path.dirname(os.path.dirname(dynlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, dynlab; print(' '.join("
            "m for m in sys.modules if m.split('.')[0] == 'dynlab'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    loaded = set(out.stdout.split())
    assert "dynlab.cli" not in loaded
    assert loaded == LOADED


def imported_names(tree):
    """The names that the import statements in ``tree`` bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_imported_name_is_used_or_listed():
    # the package module is exempt: it imports its submodules to
    # republish them
    for path in sorted(pathlib.Path(dynlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        listed = importlib.import_module(f"dynlab.{path.stem}").__all__
        unused = imported_names(tree) - used - set(listed)
        assert not unused, (path.name, sorted(unused))


ROOT = pathlib.Path(__file__).resolve().parent.parent

# The public names that no module of the package, no demo, no benchmark
# workload and no README paragraph uses, and why each stays for now.
# A name restating another public function is deleted instead; a name
# that gains a caller leaves this list.
NO_CALLER = {
    "cp_construction":
        "the stable-set route's part C_p of one basic set, on its own",
    "enumerate_ergodic_measures":
        "the ergodic measures of a finite map, one per cycle",
    "is_periodic_pseudo_orbit":
        "the definitional test of a periodic pseudo-orbit",
    "orbit_spread":
        "the orbit spread every expansiveness floor is read off",
    "periodic_points":
        "lists the points periodic_point_count counts",
    "shift_distance":
        "the dyadic metric between symbolic points",
    "spec_to_shadow_point":
        "claim 1's constructive side: a tracer by the chain route",
    "theorem_stableset_check":
        "local stable sets inside global ones, a step toward claim 5",
    "trace_chain":
        "the definitional chain tracer; at gap 1 with periodic=True "
        "it is the exact-period tracer of a cyclic sequence",
}


def used_names(source):
    """The names and attributes that the Python ``source`` reads."""
    return {getattr(node, "id", getattr(node, "attr", None))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_name_without_a_caller_is_listed_with_its_reason():
    # code is read as syntax, so a docstring naming a function does not
    # call it; the README counts every name it documents
    sources = [path.read_text(encoding="utf-8") for path in (
        *sorted(pathlib.Path(dynlab.__file__).parent.glob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")), ROOT / "bench" / "workloads.py")
        if path.name != "__init__.py"]
    used = set().union(*map(used_names, sources))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(
        encoding="utf-8")))
    assert set(dynlab.__all__) - used == set(NO_CALLER)
