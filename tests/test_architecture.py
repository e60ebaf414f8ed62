"""Only core knows the digit layout, the rule that decides vanishing and the sampling loop.

Other modules ask core's `vanishes_to` / `vanishing_scan` and walk digits
through core; a local prefix test or digit walk would bring back a precision
rule of its own. Sampled checks hand their draws to core's `sampled_scan`; a
local seeded loop would bring back a report of its own.
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
DIGIT_READERS = {("vdp.py", "VdpTable.to_json")}

# (module, enclosing function) pairs that build a random.Random besides core's one scan:
# the projection tier's fixed points and expand's spot check draw no sampled verdict
RANDOM_BUILDERS = {("cli.py", "_cmd_lipschitz"), ("cli.py", "_cmd_expand")}


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


def test_digits_are_read_only_by_core_and_table_json():
    readers = {(module, scope) for module, scope, _ in _uses("digits") if module != "core.py"}
    assert readers <= DIGIT_READERS, readers - DIGIT_READERS


def test_only_core_calls_divmod():
    # core owns the one digit walk; a divmod elsewhere would be a second one
    calls = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "divmod"
    ]
    assert calls == []


def test_only_the_sampled_scan_builds_a_random_generator():
    builders = {(module, scope) for module, scope, _ in _uses("Random")}
    assert builders == RANDOM_BUILDERS | {("core.py", "sampled_scan")}
    imports = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "random"
    ]
    assert imports == []  # `from random import Random` would hide a builder from the scan


def test_the_compiled_form_of_an_earlier_expression_is_not_kept():
    point = PadicPoint.from_integers((3,), 7, 4)
    a = parse("x1^2 + digitsum(x1, i, 1)", 1)
    evaluate(a, point)
    evaluate(parse("x1 + 1", 1), point)
    gone = weakref.ref(a)
    del a
    gc.collect()
    assert gone() is None
