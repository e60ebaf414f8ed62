"""Only core knows the digit layout and the rule that decides vanishing.

Other modules ask core's `vanishes_to` / `vanishing_scan`; a local prefix test
or digit walk would bring back a precision rule of its own.
"""
import ast
import gc
import weakref
from pathlib import Path

import padicvdp
from padicvdp.core import PadicPoint
from padicvdp.dsl import evaluate, parse

PACKAGE = Path(padicvdp.__file__).parent

# (module, enclosing function) pairs allowed to read `.digits` outside core
DIGIT_READERS = {("vdp.py", "VdpTable.to_json"), ("dsl.py", "evaluate")}


def _walk(node, attribute: str, scope: tuple, in_function: bool):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and not in_function:
            is_function = isinstance(child, ast.FunctionDef)
            yield from _walk(child, attribute, scope + (child.name,), is_function)
            continue
        if isinstance(child, ast.Attribute) and child.attr == attribute:
            yield ".".join(scope), child
        yield from _walk(child, attribute, scope, in_function)


def _uses(attribute: str):
    """(module, enclosing function, node) for every use of the attribute.

    The enclosing function is qualified by its class; helpers nested inside a
    function count as part of it.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _walk(ast.parse(path.read_text()), attribute, (), False):
            yield path.name, scope, node


def test_divisible_by_p_power_is_called_only_in_core():
    uses = _uses("divisible_by_p_power")
    assert [(module, node.lineno) for module, _, node in uses if module != "core.py"] == []


def test_digits_are_read_only_by_core_table_json_and_digitsum():
    readers = {(module, scope) for module, scope, _ in _uses("digits") if module != "core.py"}
    assert readers <= DIGIT_READERS, readers - DIGIT_READERS


def test_digitsum_branch_is_the_only_digit_reader_in_evaluate():
    tree = ast.parse((PACKAGE / "dsl.py").read_text())
    evaluate = next(n for n in tree.body if getattr(n, "name", None) == "evaluate")
    cases = [c for m in ast.walk(evaluate) if isinstance(m, ast.Match) for c in m.cases]
    for case in cases:
        reads = [n for n in ast.walk(case) if isinstance(n, ast.Attribute) and n.attr == "digits"]
        pattern = case.pattern
        digitsum = isinstance(pattern, ast.MatchClass) and ast.unparse(pattern.cls) == "DigitSum"
        assert not reads or digitsum, ast.unparse(pattern)


def test_dsl_reads_no_digits_and_calls_no_divmod():
    tree = ast.parse((PACKAGE / "dsl.py").read_text())
    digits = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "digits"]
    divmods = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "divmod"]
    assert (digits, divmods) == ([], [])


def test_the_compiled_form_of_an_earlier_expression_is_not_kept():
    point = PadicPoint.from_integers((3,), 7, 4)
    a = parse("x1^2 + digitsum(x1, i, 1)", 1)
    evaluate(a, point)
    evaluate(parse("x1 + 1", 1), point)
    gone = weakref.ref(a)
    del a
    gc.collect()
    assert gone() is None
