"""Only core knows the digit layout, the rule that decides vanishing, the sampling loop
and how a consumer's evaluation point is built.

Other modules ask core's `vanishes_to` / `column_scan` and
walk digits through core; a local prefix test or digit walk would bring back a
precision rule of its own. Sampled checks hand their draws to core's
`sampled_scan`; a local seeded loop would bring back a report of its own.
Consumers evaluate F on residue tuples through core's `on_residues` or
`on_columns`; a point built per evaluation would bring back a per-call adapter
of its own. Every class that serves
`on_residues` is a `core.Evaluator`, whose `__call__` is the only one.
Every module-level function and class has a caller in the package, the
benchmark harness or the README; a definition only tests call is a test
oracle, and belongs in `tests/support.py`.
"""
import ast
import gc
import importlib
import re
import weakref
from collections import Counter
from pathlib import Path
from typing import Iterator

import padicvdp
from padicvdp.core import Evaluator, PadicPoint, on_residues
from padicvdp.dsl import FuncDef, parse

PACKAGE = Path(padicvdp.__file__).parent
REPO = Path(__file__).resolve().parents[1]

# (module, enclosing function) pairs allowed to read `.digits` outside core: none, as a
# table writes its digit lists through core's `_digit_list`
DIGIT_READERS: set = set()

# (module, enclosing function) pairs that build a PadicPoint besides core's one adapter:
# public boundaries that take or return a point, never a consumer's evaluation loop
POINT_BUILDERS = {
    ("vdp.py", "projection"),
    ("hensel.py", "hensel_lift_multi"),  # the returned root
}


def _walk(node, match, scope: tuple, in_function: bool):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and not in_function:
            is_function = isinstance(child, ast.FunctionDef)
            yield from _walk(child, match, scope + (child.name,), is_function)
            continue
        if match(child):
            yield ".".join(scope), child
        yield from _walk(child, match, scope, in_function)


def _found(match):
    """(module, enclosing function, node) for every node that match accepts.

    The enclosing function is qualified by its class; helpers nested inside a
    function count as part of it.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _walk(ast.parse(path.read_text()), match, (), False):
            yield path.name, scope, node


def _uses(attribute: str):
    return _found(lambda node: isinstance(node, ast.Attribute) and node.attr == attribute)


def _builds_a_point(node) -> bool:
    """A call of PadicPoint(...) or of a from_integers classmethod."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "PadicPoint"
            or isinstance(f, ast.Attribute) and f.attr == "from_integers")


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


def _imports_random(node) -> bool:
    """`import random` (aliased or not) or `from random import ...`."""
    return (isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "random")


def test_only_the_sampled_scan_builds_a_random_generator():
    builders = {(module, scope) for module, scope, _ in _uses("Random")}
    assert builders == {("core.py", "sampled_scan")}
    # `from random import Random` would hide a builder from the scan above, and an import
    # outside core could draw without one, e.g. a module-level random.randrange
    imports = {(module, type(node).__name__) for module, _, node in _found(_imports_random)}
    assert imports == {("core.py", "Import")}


def _imported_on_load(node):
    """Top-level names of the modules `node` imports when its module is loaded.

    Imports inside a function, or under `if TYPE_CHECKING:`, wait until they run.
    """
    if isinstance(node, ast.Import):
        yield from (alias.name.split(".")[0] for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        yield (node.module or "").split(".")[0]
    elif isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
        for child in node.orelse:
            yield from _imported_on_load(child)
    elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        for child in ast.iter_child_nodes(node):
            yield from _imported_on_load(child)


def test_no_module_imports_dataclasses_or_fractions_when_loaded():
    # a CLI call pays for what the package imports: values stand on core.Value, not on
    # dataclasses (and inspect), and only a norm needs fractions, so it imports them itself
    slow = {"dataclasses", "fractions", "inspect"}
    found = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _imported_on_load(ast.parse(path.read_text())) if name in slow}
    assert found == set()


def test_only_core_and_the_public_boundaries_build_points():
    builders = {(module, scope) for module, scope, _ in _found(_builds_a_point)}
    assert builders == POINT_BUILDERS | {("core.py", "on_residues")}


def _names_in(tree) -> Iterator[str]:
    """Every name a tree reads, an attribute it takes or an import it makes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def _names_outside_the_package() -> set[str]:
    """Every name `perfbench/*.py` or a code block of the README uses."""
    named = set()
    for path in sorted((REPO / "perfbench").glob("*.py")):
        named.update(_names_in(ast.parse(path.read_text())))
    for block in re.findall(r"^```\w*\n(.*?)^```", (REPO / "README.md").read_text(), re.S | re.M):
        named.update(re.findall(r"\w+", block))
    return named


def test_every_module_level_definition_has_a_caller_outside_tests():
    # test oracles live in tests/; `__all__` and the re-exports in `__init__` name
    # what the package offers, not a caller, and a definition's own body is no caller
    defined, named = [], _names_outside_the_package()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
                named.update(set(_names_in(node)) - {node.name})
            else:
                named.update(_names_in(node))
    assert [(module, name) for module, name in defined if name not in named] == []


def test_every_class_member_has_a_caller_outside_tests():
    # a method or property only tests call is a test oracle too; the language calls the
    # dunders, and a member's own body is no caller
    members, named = [], Counter(_names_outside_the_package())
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        named.update(_names_in(tree))
        members += [(path.name, f"{cls.name}.{item.name}", item)
                    for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for item in cls.body if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    uncalled = [(module, member) for module, member, item in members
                if named[item.name] == list(_names_in(item)).count(item.name)]
    assert uncalled == []


def _classes_defining(method: str):
    """(module, class) for every class in the package whose body defines `method`."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"padicvdp.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == method for item in node.body
            ):
                yield path.name, getattr(module, node.name)


def test_every_class_serving_residues_is_an_evaluator():
    servers = list(_classes_defining("on_residues"))
    assert {(module, cls.__name__) for module, cls in servers} == {
        ("dsl.py", "FuncDef"), ("vdp.py", "VdpTable")}
    assert all(issubclass(cls, Evaluator) for _, cls in servers)


def test_only_the_evaluator_base_defines_call():
    assert [(module, cls) for module, cls in _classes_defining("__call__")] == [
        ("core.py", Evaluator)]


def test_the_compiled_form_of_an_earlier_expression_is_not_kept():
    point = PadicPoint.from_integers((3,), 7, 4)
    body = parse("x1^2 + digitsum(x1, i, 1)", 1)
    FuncDef(1, body)(point)
    FuncDef(1, parse("x1 + 1", 1))(point)
    gone = weakref.ref(body)
    del body
    gc.collect()
    assert gone() is None

    # one compile slot: a held evaluator keeps no compiled form once another is evaluated
    a, b = FuncDef(1, parse("x1^2 + digitsum(x1, i, 1)", 1)), FuncDef(1, parse("x1 + 1", 1))
    compiled = weakref.ref(on_residues(a, 7, 4, 1))
    columns = weakref.ref(a.on_columns(7, 4, 1))
    b(point)
    gc.collect()
    assert compiled() is None
    assert columns() is None
    assert a(point).residue == 3**2  # digitsum weighs digit i by i, and 3 has one digit
