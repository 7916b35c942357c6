"""asmisim has no runtime dependency: every import in the package is
relative or names a module of the standard library. Neither the package,
its tests nor its benchmark carry a dead import: each name a module imports
is read there or exported. A Signal carries its horizon, so no package
function takes a horizon beside a Signal. And what a run fills in is no
constructor option: no dataclass takes a field named with a leading
underscore as an `__init__` parameter. No function keeps its state in a
closure that rebinds it: the package holds no `nonlocal` statement."""

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "asmisim"
PERFBENCH = TESTS.parent / "perfbench"


def foreign_imports(source: str) -> list[str]:
    """The absolute imports in `source` whose top-level module is not in the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]


def test_package_imports_only_itself_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    foreign = {path.name: foreign_imports(path.read_text()) for path in sources}
    assert {name: found for name, found in foreign.items() if found} == {}


def test_a_third_party_import_is_caught():
    source = "import json\nimport numpy.linalg\nfrom . import radio\nfrom .rng import derive_rng\nfrom yaml import load\n"
    assert foreign_imports(source) == ["numpy.linalg", "yaml"]


def unused_imports(source: str) -> list[str]:
    """The names bound by top-level imports in `source` that the module
    never reads and does not list in `__all__`."""
    tree = ast.parse(source)
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read and name not in exported]


def test_every_import_is_read_or_exported():
    sources = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    assert len(sources) >= 25
    unused = {f"{path.parent.name}/{path.name}": unused_imports(path.read_text()) for path in sources}
    assert {name: found for name, found in unused.items() if found} == {}


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\nimport struct\nimport os.path\n"
        "from .rng import derive_rng as rng, derive_seed\nfrom . import radio\n"
        "__all__ = ['derive_seed']\nos.path.join(rng())\nradio = None\n"
    )
    assert unused_imports(source) == ["struct", "radio"]


def horizon_restatements(source: str) -> list[str]:
    """The functions in `source` with both a `Signal`-annotated parameter and one named `horizon`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
        annotations = [p.annotation for p in params if p.annotation is not None]
        takes_signal = any(
            getattr(n, "id", getattr(n, "attr", None)) == "Signal" for ann in annotations for n in ast.walk(ann)
        )
        if takes_signal and any(p.arg == "horizon" for p in params):
            found.append(node.name)
    return found


def test_no_function_takes_a_horizon_beside_a_signal():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = {path.name: horizon_restatements(path.read_text()) for path in sources}
    assert {name: funcs for name, funcs in found.items() if funcs} == {}


def test_a_horizon_beside_a_signal_is_caught():
    source = (
        "def poll(signal: Signal, dt: int, horizon: int): ...\n"
        "def drive(d, signal: signalgen.Signal | None, *, horizon=0): ...\n"
        "class C:\n    def m(self, s: Signal, /, horizon): ...\n"
        "def ok(signal: Signal, dt: int): ...\n"
        "def also_ok(spec: StepLoadSpec, horizon: int): ...\n"
    )
    assert horizon_restatements(source) == ["poll", "drive", "m"]


def private_init_fields(namespace: dict) -> list[str]:
    """Class.field for each dataclass defined in `namespace` whose `__init__` takes a field named `_...`."""
    return [
        f"{cls.__qualname__}.{f.name}"
        for cls in namespace.values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == namespace["__name__"]
        for f in dataclasses.fields(cls)
        if f.init and f.name.startswith("_")
    ]


def test_no_dataclass_takes_run_state_in_its_constructor():
    # Importing __main__ would run the CLI.
    modules = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__main__"]
    assert len(modules) >= 10
    found = {name: private_init_fields(vars(importlib.import_module(f"asmisim.{name}"))) for name in modules}
    assert {name: fields for name, fields in found.items() if fields} == {}


def test_run_state_in_a_constructor_is_caught():
    @dataclasses.dataclass
    class Cache:
        key: int
        _table: dict = dataclasses.field(default_factory=dict)
        _kept: dict = dataclasses.field(default_factory=dict, init=False)

    namespace = {"__name__": __name__, "Cache": Cache}
    assert private_init_fields(namespace) == [f"{Cache.__qualname__}._table"]


def nonlocal_scopes(source: str) -> list[str]:
    """The dotted name of the function around each `nonlocal` statement in `source`."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            elif isinstance(child, ast.Nonlocal):
                found.append(scope)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_no_function_rebinds_an_enclosing_name():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = {path.name: nonlocal_scopes(path.read_text()) for path in sources}
    assert {name: scopes for name, scopes in found.items() if scopes} == {}


def test_a_nonlocal_statement_is_caught():
    source = (
        "def solve(n):\n    k = 0\n    def advance():\n        nonlocal k\n        k += 1\n    advance()\n"
        "class C:\n    def m(self):\n        x = 0\n        async def inner():\n"
        "            if x:\n                nonlocal x\n\n"
        "def ok():\n    global G\n    out = []\n    def add(v):\n        out.append(v)\n"
    )
    assert nonlocal_scopes(source) == ["solve.advance", "C.m.inner"]
