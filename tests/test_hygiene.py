"""Every function, class and method in src/ serves the package.

A module-level function or class that nothing else in src/ names, that
`__all__` does not export and that is not the command-line entry point
`cli.main` is code that only the tests call; it belongs under tests/.  So
is a method of a src/ class whose name nothing in src/ reads, unless it
is a dunder method, which Python calls by protocol.
"""

import ast
from pathlib import Path

import sylowtab

SRC = Path(sylowtab.__file__).resolve().parent


def _names_used(top: ast.stmt) -> set[str]:
    """Names, attributes and imported names read in the statement `top`;
    a definition's own name does not count as a use of itself."""
    out = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    out.discard(getattr(top, "name", None))
    return out


def unused_definitions(modules: dict[str, ast.Module], exported) -> list[str]:
    """module.name of every top-level function or class that no other
    top-level statement names, outside `exported` and `cli.main`.  The
    imports of `__init__` are the exports and do not count as uses."""
    used = set()
    for stem, tree in modules.items():
        if stem != "__init__":
            for top in tree.body:
                used |= _names_used(top)
    return [f"{stem}.{top.name}" for stem, tree in sorted(modules.items())
            for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and top.name not in used and top.name not in exported
            and (stem, top.name) != ("cli", "main")]


def unused_methods(modules: dict[str, ast.Module]) -> list[str]:
    """module.Class.method of every method of a top-level class whose name
    is read nowhere in `modules`; dunder methods are exempt."""
    used = set()
    for tree in modules.values():
        used |= _names_used(tree)
    return [f"{stem}.{top.name}.{fn.name}" for stem, tree in sorted(modules.items())
            for top in tree.body if isinstance(top, ast.ClassDef)
            for fn in top.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in used]


#: methods kept although nothing in src/ calls them: the benchmark tracer
#: (perfbench/tracing.py) patches them by name, to count reductions and
#: cyclotomic operations, until it reads an in-src stats collector instead
#: (ROADMAP.md, item 2)
KEPT_METHODS = {"gfpm.CycReducer.reduce", "cyclo.Cyc.conjugate"}


def _src_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def test_no_src_definition_is_used_only_by_the_tests():
    assert unused_definitions(_src_modules(), sylowtab.__all__) == []


def test_no_src_method_is_used_only_by_the_tests():
    assert sorted(set(unused_methods(_src_modules())) - KEPT_METHODS) == []


def test_the_scan_flags_an_orphan_and_nothing_else():
    modules = {
        "__init__": ast.parse("from .a import api, orphan\n__all__ = ['api']\n"),
        "a": ast.parse("def api():\n    return helper()\n\n"
                       "def helper():\n    return 1\n\n"
                       "def orphan():\n    return orphan\n"),
        "cli": ast.parse("def main():\n    pass\n"),
    }
    assert unused_definitions(modules, ["api"]) == ["a.orphan"]


def test_the_method_scan_flags_an_unread_method_and_nothing_else():
    modules = {
        "a": ast.parse("class A:\n"
                       "    def __init__(self):\n        self.x = self.used()\n\n"
                       "    def used(self):\n        return 1\n\n"
                       "    def orphan(self):\n        return 2\n\n"
                       "def f(b):\n    return b.called()\n"),
        "b": ast.parse("class B:\n    def called(self):\n        return 3\n"),
    }
    assert unused_methods(modules) == ["a.A.orphan"]
