"""Every module of src/fpforms uses each name it imports, rebinds no name
through global or nonlocal, and leaves a form's kept derivative _d to
forms.py; every public name has a user.

The project ships no linter, so this stdlib-only check (the ast module)
keeps dead imports from piling up as code moves between modules.
__init__.py is exempt: its imports are the package's re-exports.  A name
in fpforms.__all__ has to appear in the CLI, a demo, the README or a test,
and the README's list of subcommands names exactly the parser's.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

import fpforms
from fpforms.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fpforms"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree):
    """Name bound by each import -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree):
    """Names read anywhere, including quoted annotations and __all__."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            )
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                )
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(
        (line, name)
        for name, line in _imported_names(tree).items()
        if name not in used
    )


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from json import dumps, loads as parse\n"
        "from typing import Any\n"
        "def f(x: 'Any') -> None:\n"
        "    return os.sep, parse(x)\n"
    )
    assert unused_imports(source) == [(2, "sys"), (3, "dumps")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert unused_imports(source) == [], module


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_global_or_nonlocal_statements(module):
    # module-wide mutable state leaks from one call, or thread, to the
    # next; a scoped setting lives in a ContextVar instead
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    rebinds = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert rebinds == [], module


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_forms_touches_a_kept_derivative(module):
    # the rule that lets a result carry its operands' zero derivative
    # lives in forms.py alone; other modules call d() and
    # _closed_by_construction instead of reading or setting _d
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    touches = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_d"
    ]
    assert bool(touches) == (module == "forms.py"), (module, touches)


def _public_name_users():
    paths = [SRC / "cli.py", ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    paths += [
        path
        for path in sorted((ROOT / "tests").glob("*.py"))
        if path.name != Path(__file__).name
    ]
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


def test_every_public_name_has_a_user():
    text = _public_name_users()
    unused = [
        name
        for name in fpforms.__all__
        if not re.search(r"\b%s\b" % re.escape(name), text)
    ]
    assert unused == []


def test_readme_lists_every_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"Subcommands:(.*?)\.\s", readme, re.S).group(1)
    listed = re.findall(r"`([^`]+)`", section)
    sub = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(sub.choices)
