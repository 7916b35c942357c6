"""asmisim has no runtime dependency: every import in the package is
relative or names a module of the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "asmisim"


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
