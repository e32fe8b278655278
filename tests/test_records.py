"""The shared record base against real dataclasses.

Every result record derives from ``core._Record``, which defines once the
methods ``@dataclass(frozen=True)`` would compile for each class.  Each
record is compared here with a twin declared by ``@dataclass(frozen=True)``
with the same name, fields and defaults: construction, ``fields``,
``replace``, ``==``, ``hash``, ``repr`` and the frozen fields must agree.
"""

import dataclasses
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, dataclass

import pytest

from dynlab import (core, expansive, gallery, recurrence, shadowing,
                    specification, symbolic)


@dataclass(frozen=True)
class Lasso:
    stem: tuple = ()
    cycle: tuple = ()
    two_sided: bool = False
    past_cycle: tuple | None = None

    __post_init__ = core.Lasso.__post_init__


@dataclass(frozen=True)
class ThresholdGrid:
    values: tuple


@dataclass(frozen=True)
class GammaSet:
    center: object
    delta: object
    members: tuple
    spread: dict


@dataclass(frozen=True)
class InvariantMeasure:
    weights: tuple
    ergodic: bool


@dataclass(frozen=True)
class StableSets:
    center: object
    epsilon: object
    s_local: tuple
    s_global: tuple
    u_local: tuple | None = None
    u_global: tuple | None = None


@dataclass(frozen=True)
class MyexInstance:
    lattice_q: int
    satellites: int
    anchors: tuple
    orbits: tuple
    system: object


@dataclass(frozen=True)
class ChainRecurrence:
    points: tuple
    table: tuple


@dataclass(frozen=True)
class HypothesisReport:
    invertible: bool
    strong_constant: object
    strong_fails_at: tuple


@dataclass(frozen=True)
class BasicPiece:
    points: tuple
    period: int
    parts: tuple
    mixing: tuple
    cp_parts: tuple | None
    routes_agree: bool | None


@dataclass(frozen=True)
class Decomposition:
    pieces: tuple
    report: object


@dataclass(frozen=True)
class DeltaGraph:
    delta: object
    succ: tuple


@dataclass(frozen=True)
class ShadowCertificate:
    kind: str
    delta: object
    epsilon: object
    lasso: object
    dying_step: int | None = None
    point: object | None = None


@dataclass(frozen=True)
class ModulusTable:
    prop: str
    rows: tuple


@dataclass(frozen=True)
class SpecInstance:
    sources: tuple
    gap: int
    closed: bool
    delta: object


@dataclass(frozen=True)
class SpecCertificate:
    point: object
    sources: tuple
    gap: int
    epsilon: object
    periodic: bool


@dataclass(frozen=True)
class Blocked:
    lasso: object
    instance: object
    terms: tuple


@dataclass(frozen=True)
class Sft:
    alphabet: tuple
    edges: frozenset


TWINS = [
    (core.Lasso, Lasso), (core.ThresholdGrid, ThresholdGrid),
    (expansive.GammaSet, GammaSet),
    (expansive.InvariantMeasure, InvariantMeasure),
    (expansive.StableSets, StableSets), (gallery.MyexInstance, MyexInstance),
    (recurrence.ChainRecurrence, ChainRecurrence),
    (recurrence.HypothesisReport, HypothesisReport),
    (recurrence.BasicPiece, BasicPiece),
    (recurrence.Decomposition, Decomposition),
    (recurrence.DeltaGraph, DeltaGraph),
    (shadowing.ShadowCertificate, ShadowCertificate),
    (shadowing.ModulusTable, ModulusTable),
    (specification.SpecInstance, SpecInstance),
    (specification.SpecCertificate, SpecCertificate),
    (specification.Blocked, Blocked), (symbolic.Sft, Sft),
]
IDS = [real.__name__ for real, _ in TWINS]


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def samples(cls):
    """Two argument tuples for ``cls`` that differ in the last field only."""
    if cls in (core.Lasso, Lasso):
        return ((1,), (2, 3), True, (4,)), ((1,), (2, 3), True, (5,))
    first = tuple(f"{name}-value" for name in names(cls))
    return first, first[:-1] + ("other",)


def outcome(call):
    """What a call returned, or the type and text of what it raised."""
    try:
        return "returned", call()
    except (TypeError, ValueError, FrozenInstanceError) as exc:
        return type(exc), str(exc)


def check_declaration(real, twin):
    assert dataclasses.is_dataclass(real) and dataclasses.is_dataclass(twin)
    assert ([(f.name, f.default) for f in dataclasses.fields(real)]
            == [(f.name, f.default) for f in dataclasses.fields(twin)])
    assert real.__match_args__ == twin.__match_args__
    assert real.__qualname__ == twin.__qualname__


def check_construction(real, twin):
    """Positional, keyword and defaulted calls build equal reprs; calls
    that do not fit raise TypeError on both."""
    args, _ = samples(real)
    keywords = dict(zip(names(real), args))
    required = [f.name for f in dataclasses.fields(real)
                if f.default is dataclasses.MISSING]
    calls = [(args, {}), ((), keywords), (args[:1], dict(list(
        keywords.items())[1:])), (args[:len(required)], {})]
    if real is core.Lasso:
        calls.append(((), {"cycle": (7,)}))
    for a, k in calls:
        assert (outcome(lambda: repr(real(*a, **k)))
                == outcome(lambda: repr(twin(*a, **k))))
    for a, k in [(args + (None,), {}), (args, {"unknown": 1}),
                 (args[:-1], {"unknown": 1}), (args, {names(real)[0]: 1}),
                 ((), {})]:
        if real is core.Lasso and not a:
            continue  # every Lasso field has a default
        assert outcome(lambda: real(*a, **k))[0] is TypeError
        assert outcome(lambda: twin(*a, **k))[0] is TypeError


def check_equality_and_hash(real, twin):
    a, b = samples(real)
    x, y, z = real(*a), real(*a), real(*b)
    tx, ty, tz = twin(*a), twin(*a), twin(*b)
    assert (x == y, x != y, x == z, x != z) == (tx == ty, tx != ty,
                                               tx == tz, tx != tz)
    assert (x == y, x == z) == (True, False)
    assert hash(x) == hash(y) == hash(tx)
    assert hash(z) == hash(tz)
    # another class, even with the same fields, is never equal
    assert (x == tx, tx == x, x == a) == (False, False, False)


def check_replace_and_frozen(real, twin):
    a, b = samples(real)
    last = names(real)[-1]
    changed = dataclasses.replace(real(*a), **{last: b[-1]})
    assert changed == real(*b)
    assert repr(changed) == repr(dataclasses.replace(twin(*a),
                                                     **{last: b[-1]}))
    x, tx = real(*a), twin(*a)
    for name in [*names(real), "not_a_field"]:
        assert (outcome(lambda: setattr(x, name, 0))
                == outcome(lambda: setattr(tx, name, 0)))
        assert (outcome(lambda: delattr(x, name))
                == outcome(lambda: delattr(tx, name)))
        assert outcome(lambda: setattr(x, name, 0))[0] is FrozenInstanceError
    assert x == real(*a)


def check_record(real, twin):
    check_declaration(real, twin)
    check_construction(real, twin)
    check_equality_and_hash(real, twin)
    check_replace_and_frozen(real, twin)


def check_records():
    for real, twin in TWINS:
        check_record(real, twin)


@pytest.mark.parametrize("real, twin", TWINS, ids=IDS)
def test_record_behaves_as_its_dataclass_twin(real, twin):
    check_record(real, twin)


def test_every_record_has_a_twin():
    records = {cls for module in (core, expansive, gallery, recurrence,
                                  shadowing, specification, symbolic)
               for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, core._Record)
               and "__dataclass_fields__" in vars(cls)}
    assert records == {real for real, _ in TWINS}


def test_lasso_validation_matches_its_twin():
    for args in [(), ((1,), ()), ((1,), (2,), False, (3,))]:
        expected = outcome(lambda: Lasso(*args))
        assert expected[0] is ValueError
        assert outcome(lambda: core.Lasso(*args)) == expected


def test_symbolic_point_freezes_only_lasso_fields():
    # an undecorated subclass of a frozen dataclass freezes only the
    # parent's fields
    class Undecorated(Lasso):
        pass

    point = symbolic.SymbolicPoint((0,), (1, 0))
    twin = Undecorated((), (1,), True, (1,))
    for target in (point, twin):
        target.note = "set"
        assert target.note == "set"
        del target.note
        with pytest.raises(FrozenInstanceError):
            target.cycle = (1,)
        with pytest.raises(FrozenInstanceError):
            del target.stem
    assert hash(point) == hash((point.stem, point.cycle, point.past))
    assert dataclasses.is_dataclass(point)
    assert names(symbolic.SymbolicPoint) == names(core.Lasso)


def test_import_compiles_no_dataclass_method():
    if not hasattr(dataclasses, "_create_fn"):
        pytest.skip("this Python's dataclasses compiles through another hook")
    script = textwrap.dedent("""
        import dataclasses, inspect
        calls = {"create_fn": 0, "signature": 0}
        create_fn, signature = dataclasses._create_fn, inspect.signature
        def counted_create_fn(*args, **kwargs):
            calls["create_fn"] += 1
            return create_fn(*args, **kwargs)
        def counted_signature(*args, **kwargs):
            calls["signature"] += 1
            return signature(*args, **kwargs)
        dataclasses._create_fn = counted_create_fn
        inspect.signature = counted_signature
        import dynlab
        print(calls)
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "{'create_fn': 0, 'signature': 0}"
