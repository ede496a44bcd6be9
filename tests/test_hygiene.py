"""Every function, class and method in src/ serves the package.

A module-level function or class that nothing else in src/ names, that
`__all__` does not export and that is not the command-line entry point
`cli.main` is code that only the tests call; it belongs under tests/.  So
is a method of a src/ class whose name nothing in src/ reads, unless it
is a dunder method, which Python calls by protocol.  Likewise a parameter
default that no src/ call overrides is an option that only the tests set.
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


def _defaulted(fn: ast.FunctionDef, skip: int) -> list[tuple[float, str]]:
    """(position, name) of each parameter of fn with a default, positions
    counted from the first argument a call passes after `skip` implicit
    ones; keyword-only parameters have position inf."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    return ([(i - skip, p.arg) for i, p in enumerate(pos) if i >= first]
            + [(float("inf"), p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d])


def unset_defaults(modules: dict[str, ast.Module]) -> list[str]:
    """module.function.param, or module.Class.method.param, of every
    parameter with a default that no call in `modules` sets by keyword or
    by position.  Calls are matched by callee name, and a call of a class
    name sets the parameters of its __init__; a call with *args or
    **kwargs sets every parameter it can reach."""
    calls = {}  # callee name -> [(positional arguments, keywords)]
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args),
                     {k.arg for k in node.keywords}))
    out = []
    for stem, tree in sorted(modules.items()):
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defs = [(top.name, top.name, top, 0)]
            elif isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{fn.name}", top.name if fn.name == "__init__" else fn.name,
                         fn, 0 if any(getattr(d, "id", None) == "staticmethod"
                                      for d in fn.decorator_list) else 1)
                        for fn in top.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for qual, callee, fn, skip in defs:
                out += [f"{stem}.{qual}.{param}" for pos, param in _defaulted(fn, skip)
                        if not any(param in kws or None in kws or pos < n
                                   for n, kws in calls.get(callee, []))]
    return out


#: methods kept although nothing in src/ calls them: the benchmark tracer
#: (perfbench/tracing.py) patches them by name, to count reductions and
#: cyclotomic operations, until it reads an in-src stats collector instead
#: (ROADMAP.md, item 2)
KEPT_METHODS = {"gfpm.CycReducer.reduce", "cyclo.Cyc.conjugate"}


#: defaults that no src/ call sets but a test needs: the tests drive the
#: command line through `main(argv)`, and tests/table_reference.py builds
#: reference partitions with a chosen reducer modulus until the reducer
#: goes (ROADMAP.md, item 3)
KEPT_DEFAULTS = {"cli.main.argv", "gfpm.CycReducer.__init__.modulus"}


def _src_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def test_no_src_definition_is_used_only_by_the_tests():
    assert unused_definitions(_src_modules(), sylowtab.__all__) == []


def test_no_src_method_is_used_only_by_the_tests():
    assert sorted(set(unused_methods(_src_modules())) - KEPT_METHODS) == []


def test_every_src_default_is_set_by_some_src_call():
    assert sorted(set(unset_defaults(_src_modules())) - KEPT_DEFAULTS) == []


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


def test_the_default_scan_flags_an_unset_option_and_nothing_else():
    modules = {
        "a": ast.parse("def f(x, by_pos=1, by_kw=2, orphan=3, *, kw=4, kw_orphan=5):\n"
                       "    return x\n\n"
                       "def g(**opts):\n    return f(0, 1, by_kw=5, kw=6), h(**opts)\n\n"
                       "def h(y=0, z=1):\n    return y + z\n\n"
                       "def run(args):\n    return k(*args), A(1).m(2)\n\n"
                       "def k(u=0):\n    return u\n"),
        "b": ast.parse("class A:\n"
                       "    def __init__(self, size=0, unset=1):\n        self.size = size\n\n"
                       "    def m(self, x=0, y=1):\n        return x + y\n"),
    }
    assert unset_defaults(modules) == ["a.f.orphan", "a.f.kw_orphan",
                                       "b.A.__init__.unset", "b.A.m.y"]
