"""Declared runtime dependencies match what the package imports."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def third_party_imports() -> set[str]:
    found = set()
    for path in (ROOT / "src" / "quditzx").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(name.split(".")[0] for name in names)
    return found - set(sys.stdlib_module_names) - {"quditzx"}


def test_declared_dependencies_match_imports() -> None:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower()
                for req in project["dependencies"]}
    assert declared == third_party_imports()



# Decorators that register what they decorate, which is a use of it:
# click commands and catalog rules.
REGISTERING_DECORATORS = {"command", "group", "_rule"}


def registered(node: ast.FunctionDef | ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in REGISTERING_DECORATORS:
            return True
    return False


def test_no_module_level_definition_is_dead() -> None:
    """Every function or class defined at module level in the package is
    named somewhere besides its own definition."""
    package = sorted((ROOT / "src" / "quditzx").glob("*.py"))
    others = [path for folder in ("tests", "demos", "bench")
              for path in sorted((ROOT / folder).glob("*.py"))]
    words = Counter(re.findall(r"\w+", "\n".join(p.read_text() for p in package + others)))
    dead = [
        f"{path.name}:{node.name}"
        for path in package
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not registered(node)
        and words[node.name] < 2
    ]
    assert dead == []
