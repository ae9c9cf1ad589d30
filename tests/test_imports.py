"""Every name a module in src/mothfed imports is used there (no linter needed),
and every function perfbench/tracer.py wraps exists there."""
import ast
import importlib
from pathlib import Path

import pytest

import mothfed

PACKAGE = Path(mothfed.__file__).parent


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside a quoted annotation such as "Account | None"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_the_checker_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from typing import Any, Callable\n"
        "def f(x: 'Callable[[], None]') -> None:\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: Any"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> list[tuple[str, str]]:
    """The (module, "Class.method" or "function") pairs in the tracer's TARGETS,
    read from its source, so the benchmark code is neither imported nor run."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} has no TARGETS")


@pytest.mark.parametrize("module,attr", tracer_targets(), ids=lambda value: value)
def test_every_function_the_tracer_wraps_exists(module, attr):
    # A renamed target would only show as "not traced (absent)" in a traced run.
    found = importlib.import_module(f"mothfed.{module}")
    for name in attr.split("."):
        found = getattr(found, name, None)
    assert callable(found), f"mothfed.{module}.{attr} is gone"
