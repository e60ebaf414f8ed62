"""The value base every record class stands on, and what importing the package costs.

`core.Value` replaces the package's dataclasses, so a CLI call imports neither
`dataclasses` nor `inspect` nor `fractions`. These tests pin the behaviour the
replaced dataclasses had: value equality and hashing, frozen fields, keyword
`match` patterns, weak references to expression nodes, copying and pickling,
and the `dataclasses.fields` / `dataclasses.replace` support that the benchmark
harness's own tests use on tables, verdicts, points and lift traces.
"""
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import padicvdp
from padicvdp.core import PadicInt, PadicPoint, SampledReport, Value, from_integer
from padicvdp.dsl import (
    Add,
    DigitSum,
    DivP,
    FuncDef,
    IntConst,
    Mul,
    Pow,
    RatConst,
    Sub,
    Var,
    _DigitIndex,
    _tokenize,
    parse,
    well_defined_check,
)
from padicvdp.hensel import LiftLevel, LiftTrace, hensel_lift_uni
from padicvdp.vdp import LipschitzVerdict, VdpTable, vdp_expand_uni, weighted_lip_bound_check

from support import QUINTIC_TEXT

SRC = str(Path(padicvdp.__file__).resolve().parents[1])


def test_importing_the_cli_loads_no_dataclasses_inspect_or_fractions():
    # -S: no site hooks, whose .pth files may import modules of their own
    code = ("import sys, padicvdp.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_norms_are_still_exact_fractions():
    x = PadicInt(3, (0, 0, 1, 2))
    assert type(x.norm()) is Fraction and x.norm() == Fraction(1, 9)
    assert PadicInt(3, (0, 0)).norm() == Fraction(0)
    point = PadicPoint((x, PadicInt(3, (0, 1, 0, 0))))
    assert type(point.norm()) is Fraction and point.norm() == Fraction(1, 3)


def _lift_trace() -> LiftTrace:
    return hensel_lift_uni(FuncDef(1, parse(QUINTIC_TEXT, 1)), 0, 5, 1, 4, 7)


def _table() -> VdpTable:
    return vdp_expand_uni(FuncDef(1, parse("x1^2", 1)), 1, 7, 3)


# one instance of every class that stands on Value
INSTANCES = {
    "PadicInt": lambda: from_integer(5, 7, 3),
    "PadicPoint": lambda: PadicPoint.from_integers((1, 2), 7, 3),
    "SampledReport": lambda: well_defined_check(parse("x1", 1), 1, 7, 3, 2),
    "IntConst": lambda: IntConst(3),
    "RatConst": lambda: RatConst(1, 2),
    "Var": lambda: Var(1),
    "Add": lambda: Add(Var(1), IntConst(1)),
    "Sub": lambda: Sub(Var(1), IntConst(1)),
    "Mul": lambda: Mul(Var(1), IntConst(2)),
    "Pow": lambda: Pow(Var(1), 2),
    "DivP": lambda: DivP(Var(1), 1),
    "DigitSum": lambda: DigitSum(1, (0, 1), 2),
    "_DigitIndex": _DigitIndex,
    "_Token": lambda: _tokenize("x1")[0],
    "FuncDef": lambda: FuncDef(1, parse("x1 + 1", 1), source="x1 + 1"),
    "VdpTable": _table,
    "LipschitzVerdict": lambda: weighted_lip_bound_check(_table(), 1),
    "LiftLevel": lambda: _lift_trace().levels[0],
    "LiftTrace": _lift_trace,
}


@pytest.fixture(params=sorted(INSTANCES))
def value(request):
    made = INSTANCES[request.param]()
    assert type(made).__name__ == request.param and isinstance(made, Value)
    return made


def test_a_value_equals_and_hashes_as_one_built_again(value):
    again = INSTANCES[type(value).__name__]()
    assert again is not value
    assert again == value and hash(again) == hash(value)
    assert value != object() and (value == object()) is False


def test_fields_are_neither_assigned_nor_deleted(value):
    for name in value.__match_args__ or ("anything",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_only_the_evaluators_keep_an_instance_dict(value):
    assert hasattr(value, "__dict__") == isinstance(value, (FuncDef, VdpTable))


def test_copies_and_pickles_are_equal(value):
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and repr(other) == repr(value)


def test_repr_names_every_field():
    assert repr(Add(Var(1), RatConst(1, 2))) == (
        "Add(left=Var(index=1), right=RatConst(numerator=1, denominator=2))")
    assert repr(FuncDef(1, Var(1), source="x1")) == (
        "FuncDef(arity=1, body=Var(index=1), alpha=None, source='x1')")


def test_a_padic_int_differs_at_another_precision():
    assert from_integer(5, 7, 3) != from_integer(5, 7, 4)
    assert from_integer(5, 7, 3) == PadicInt(7, (5, 0, 0))
    assert len({from_integer(5, 7, 3), from_integer(5, 7, 4), PadicInt(7, (5, 0, 0))}) == 2


def test_a_funcdef_ignores_its_source_text():
    body = parse("x1 + 1", 1)
    a, b = FuncDef(1, body, source="x1 + 1"), FuncDef(1, body, source="x1+1")
    assert a == b and hash(a) == hash(b)
    assert a != FuncDef(1, body, alpha=(1,))
    assert FuncDef(arity=1, body=body) == FuncDef(1, body, None, None)


def test_keyword_and_positional_match_patterns_on_nodes():
    match parse("divp(x1 - 3, 1) * x1^2 + digitsum(x1, i, 2)", 1):
        case Add(left=Mul(left=DivP(operand=Sub(Var(index=1), IntConst(value=3)), exponent=1),
                          right=Pow(base=Var(1), exponent=2)),
                 right=DigitSum(var_index=1, coeffs=(0, 1), exponent=2)):
            pass
        case other:
            pytest.fail(f"no pattern matched {other!r}")


def test_an_expression_node_can_be_weakly_referenced():
    node = parse("x1 + 1", 1)
    ref = weakref.ref(node)
    assert ref() is node
    del node
    assert ref() is None


@pytest.mark.parametrize("make, change", [
    (_table, {"alpha": 1}),
    (lambda: weighted_lip_bound_check(_table(), 0), {"holds": False}),
    (lambda: PadicPoint.from_integers((1, 2), 7, 3), {"coords": (from_integer(4, 7, 3),)}),
    (_lift_trace, {"status": "condition-failed"}),
])
def test_dataclasses_replace_builds_through_the_constructor(make, change):
    original = make()
    changed = dataclasses.replace(original, **change)
    assert type(changed) is type(original) and changed != original
    for name in original.__match_args__:
        assert getattr(changed, name) == change.get(name, getattr(original, name))


def test_dataclasses_replace_runs_the_checks_a_constructor_runs():
    table = _table()
    assert dataclasses.replace(table, alpha=1).normalized is not None
    with pytest.raises(ValueError, match="at least one coordinate"):
        dataclasses.replace(PadicPoint.from_integers((1,), 7, 3), coords=())


@pytest.mark.parametrize("cls, names", [
    (VdpTable, ["prime", "level", "coeffs", "arity", "alpha"]),
    (LipschitzVerdict, ["holds", "alpha", "level", "violation"]),
    (PadicPoint, ["coords"]),
    (LiftTrace, ["status", "prime", "arity", "alpha", "start", "l0", "target_precision",
                 "levels", "root", "failed_level", "auto_coordinate"]),
    (LiftLevel, ["level", "coordinate", "residual_digit", "chosen_digit", "condition_values",
                 "condition_complete"]),
    (SampledReport, ["samples", "violations", "first_violation", "seed", "label", "echo"]),
])
def test_dataclasses_fields_lists_the_fields_in_order(cls, names):
    assert dataclasses.is_dataclass(cls)
    assert [f.name for f in dataclasses.fields(cls)] == names


def test_dataclasses_fields_keeps_defaults_and_what_equality_reads():
    fields = {f.name: f for f in dataclasses.fields(FuncDef)}
    assert [fields[name].compare for name in fields] == [True, True, True, False]
    assert fields["alpha"].default is None and fields["arity"].default is dataclasses.MISSING
    assert {f.name: f.default for f in dataclasses.fields(VdpTable)}["arity"] == 1
