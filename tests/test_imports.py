"""Every module of the package and of its tests uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for directory in (ROOT / "src", ROOT / "tests")
    for path in directory.rglob("*.py")
    if path.name != "__init__.py"  # the package's re-exports are its API
)


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each imported name that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import math\nimport os.path\nfrom fractions import Fraction as F\nos.path.join\n"
    assert unused_imports(source) == ["line 1: math", "line 3: F"]


def test_no_unused_imports():
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path.read_text()) for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
