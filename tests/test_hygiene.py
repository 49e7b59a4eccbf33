"""Every module of src/fpforms uses each name it imports, rebinds no name
through global or nonlocal, writes into no module-level container from a
function, leaves a form's kept derivative _d to forms.py, the message of
a DegreeOverflow to poly.py and the parser's atoms, and the meeting of
two denominators to ratfun.py, and generates code only in poly.py's
kernel generator; every public name has a user, and every function a
mention.  The frozen parser of the tests
borrows no code from fpforms.parser or fpforms.forms but the DiffForm
class, so it stays put when they change.

The project ships no linter, so this stdlib-only check (the ast module)
keeps dead imports from piling up as code moves between modules.
__init__.py is exempt: its imports are the package's re-exports.  A name
in fpforms.__all__ has to be imported, or read as an attribute of
fpforms, by the CLI, a demo or a test, or shown in the README's code, and
the README's list of subcommands names exactly the parser's.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
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


# methods that change a list, dict, set or deque in place
MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
    "__delitem__",
    "__setitem__",
}


def _root_name(node):
    """The name at the bottom of a chain like name.attr[key].attr, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _imports(node):
    return {alias.asname or alias.name.split(".")[0] for alias in node.names}


def _module_names(tree):
    """Names bound at module level, outside every def and class body."""
    names = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= _imports(node)
        else:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            pending.extend(ast.iter_child_nodes(node))
    return names


def _local_names(function):
    """Names a function binds anywhere inside it, nested scopes included:
    arguments, assignment, loop, with and except targets, imports, defs."""
    bound = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= _imports(node)
    return bound


def module_state_writes(source):
    """(line, name) of every write from inside a function into a
    module-level name: a subscript or attribute store or delete on it, or
    a mutating method call on it, where the function has no local of the
    same name."""
    tree = ast.parse(source)
    module_names = _module_names(tree)
    writes = set()
    # a nested function sees its enclosing functions' locals, so the unit
    # is the outermost def, nested defs included
    functions = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
        else:
            pending.extend(ast.iter_child_nodes(node))
    for function in functions:
        shared = module_names - _local_names(function)
        for node in ast.walk(function):
            if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                name = _root_name(node.value)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
            ):
                name = _root_name(node.func.value)
            else:
                continue
            if name in shared:
                writes.add((node.lineno, name))
    return sorted(writes)


def test_detector_flags_writes_into_module_containers():
    source = (
        "import sys\n"
        "_INV = {}\n"
        "_SEEN = []\n"
        "class Table:\n"
        "    rows = {}\n"
        "def f(r, out):\n"
        "    _INV[r] = 1\n"
        "    _SEEN.append(r)\n"
        "    Table.rows.setdefault(r, []).append(r)\n"
        "    del sys.modules[r]\n"
        "    out[r] = _INV.get(r)\n"
        "    out.update(_INV)\n"
        "def g(r):\n"
        "    _INV = {}\n"
        "    _INV[r] = 1\n"
        "    def h():\n"
        "        _INV.pop(r)\n"
        "    return h\n"
    )
    assert module_state_writes(source) == [
        (7, "_INV"),
        (8, "_SEEN"),
        (9, "Table"),
        (10, "sys"),
    ]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_writes_into_module_level_containers(module):
    # global and nonlocal are banned above, but a function can still
    # share state through a module-level dict or list it fills in place;
    # a per-call table (the inverses of integrate) must stay per call
    source = (SRC / module).read_text(encoding="utf-8")
    assert module_state_writes(source) == [], module


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


def _callee(call):
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


_CAP_CHECKS = {
    "_check_cap", "_check_degree", "_check_maxima", "_check_power", "_check_product",
    "_degree_overflow",
}


@pytest.mark.parametrize("module", MODULES)
def test_only_poly_and_parser_name_an_overflow(module):
    # poly.py keeps the one rule that names the overflow of a computed
    # result, and the parser's atoms are input, named where they stand;
    # no function that checks the cap sorts monomials to re-make a product
    # in another order, or keeps an order dict, to pick the exponent named
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    refers = "_degree_overflow" in _used_names(tree) | set(_imported_names(tree))
    assert refers == (module in ("poly.py", "parser.py")), module
    sorted_monomials = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
        if not any(_callee(call) in _CAP_CHECKS for call in calls):
            continue
        sorted_monomials += [
            (function.name, call.lineno)
            for call in calls
            if _callee(call) == "sorted"
            and any(
                getattr(node, "id", None) == "terms" or getattr(node, "attr", None) == "terms"
                for node in ast.walk(call)
            )
        ]
        sorted_monomials += [
            (function.name, call.lineno)
            for call in calls
            if _callee(call) in _CAP_CHECKS
            and any(
                isinstance(node, ast.Call) and _callee(node) == "sorted"
                for arg in call.args
                for node in ast.walk(arg)
            )
        ]
    assert sorted_monomials == [], module
    overflow_names = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and "overflow" in node.id.lower()
    ]
    assert overflow_names == [], module


_DENOMINATOR_RULES = {"_pair", "_quotient"}


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_ratfun_meets_two_denominators(module):
    # where two denominators meet is decided in ratfun.py alone: the other
    # modules add and compare through RatFun and clear through
    # clear_denominators
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    names = _used_names(tree) | set(_imported_names(tree))
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert bool(names & _DENOMINATOR_RULES) == (module == "ratfun.py"), module


_CODE_BUILTINS = {"eval", "exec", "compile"}


def _string_constants(tree):
    """Names bound at module level to a str literal."""
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def generated_code(source):
    """(function, line, from a template) of every name eval, exec or
    compile (the builtins; re.compile is an attribute), with the innermost
    def around it, or "" at module level.  A name is from a template when
    it is called on CONSTANT.format(...), CONSTANT a module-level str
    literal."""
    tree = ast.parse(source)
    constants = _string_constants(tree)
    owner = {}
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                owner[node] = function.name
    templated = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _CODE_BUILTINS:
            first = node.args[0] if node.args else None
            if (
                isinstance(first, ast.Call)
                and isinstance(first.func, ast.Attribute)
                and first.func.attr == "format"
                and getattr(first.func.value, "id", None) in constants
            ):
                templated.add(node.func)
    return sorted(
        (owner.get(node, ""), node.lineno, node in templated)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in _CODE_BUILTINS
    )


def test_detector_flags_code_built_from_anything_but_a_template():
    source = (
        "import re\n"
        "_T = 'lambda a: {x}'\n"
        "_P = re.compile('x')\n"
        "def gen(x):\n"
        "    return eval(_T.format(x=x)), eval(x), exec('pass')\n"
        "run = compile\n"
    )
    assert generated_code(source) == [
        ("", 6, False),
        ("gen", 5, False),
        ("gen", 5, False),
        ("gen", 5, True),
    ]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_code_is_generated_only_from_the_kernel_templates(module):
    # the exponent kernels are the one generated code: eval runs only in
    # poly._kernels, on a module-level template, and every table comes
    # from module-level strings and a module-level fallback function
    source = (SRC / module).read_text(encoding="utf-8")
    found = generated_code(source)
    if module != "poly.py":
        assert found == [], module
        return
    assert found and all(owner == "_kernels" and ok for owner, _, ok in found)
    tree = ast.parse(source)
    constants = _string_constants(tree)
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_kernels"
    ]
    assert calls
    top_level = [node.value for node in tree.body if isinstance(node, ast.Assign)]
    for call in calls:
        assert call in top_level
        *strings, fallback = call.args
        assert strings and all(getattr(a, "id", None) in constants for a in strings)
        assert getattr(fallback, "id", None) in functions


_LIVE_PARSER = ("fpforms.parser", "fpforms.forms")


def borrowed_from_the_live_parser(source):
    """Every name that source imports from fpforms and that is
    fpforms.parser or fpforms.forms or was defined there; DiffForm aside."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in _LIVE_PARSER]
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("fpforms"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                if inspect.ismodule(value):
                    home = value.__name__
                else:
                    home = getattr(value, "__module__", None)
                if home in _LIVE_PARSER and value is not fpforms.DiffForm:
                    found.append(alias.name)
    return found


def test_detector_flags_code_borrowed_from_the_live_parser():
    source = (
        "import fpforms.parser\n"
        "from fpforms import forms, parse_form, MultiPoly\n"
        "from fpforms.forms import DiffForm, merge_indices\n"
        "from fpforms.parser import _residue\n"
        "from fpforms.poly import _nonzero\n"
    )
    assert borrowed_from_the_live_parser(source) == [
        "fpforms.parser",
        "forms",
        "parse_form",
        "merge_indices",
        "_residue",
    ]


def test_the_frozen_parser_borrows_only_diffform_from_parser_and_forms():
    # the oracle compares the live parser with itself if it shares code
    source = (ROOT / "tests" / "frozen_parser.py").read_text(encoding="utf-8")
    assert borrowed_from_the_live_parser(source) == []


def _imported_or_read(tree, names):
    """Which of names the module imports from fpforms or one of its
    modules, relative imports of the package included, or reads as an
    attribute of a name bound to the fpforms package."""
    package = set()
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            package |= {a.asname or a.name for a in node.names if a.name == "fpforms"}
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "fpforms"
        ):
            found |= {a.name for a in node.names}
    found |= {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in package
    }
    return found & names


def _readme_code_words():
    """Every word in a code span or a fenced block of the README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    fence = re.compile(r"^```.*?^```", re.S | re.M)
    fenced = fence.findall(readme)
    spans = re.findall(r"`([^`\n]+)`", fence.sub("", readme))
    return set(re.findall(r"\w+", "\n".join(fenced + spans)))


def public_name_users():
    """The names of fpforms.__all__ that cli.py, a demo or a test (this
    one aside) imports or reads as an attribute of fpforms, or that the
    README shows in code."""
    names = set(fpforms.__all__)
    paths = [SRC / "cli.py", *sorted((ROOT / "demos").glob("*.py"))]
    paths += [
        path
        for path in sorted((ROOT / "tests").glob("*.py"))
        if path.name != Path(__file__).name
    ]
    used = names & _readme_code_words()
    for path in paths:
        used |= _imported_or_read(ast.parse(path.read_text(encoding="utf-8")), names)
    return used


def test_detector_counts_only_imports_and_package_attributes():
    source = (
        "import fpforms as ff\n"
        "from fpforms import wedge\n"
        "from fpforms.cartier import gamma0\n"
        "def f(form):\n"
        "    return ff.phi(form), form.integrate(), cartier\n"
    )
    names = {"wedge", "gamma0", "phi", "integrate", "cartier"}
    assert _imported_or_read(ast.parse(source), names) == {"wedge", "gamma0", "phi"}


def test_every_public_name_has_a_user():
    # a method of the same name, or a mention in prose, is no user
    unused = sorted(set(fpforms.__all__) - public_name_users())
    assert unused == []


def _defined_functions():
    """(module, name, line) of every function or method of src/fpforms,
    dunders aside."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.append((path.name, node.name, node.lineno))
    return found


def test_every_function_is_named_outside_its_def_line():
    # a function nothing names is dead code; a name shared by two defs
    # (a method of two classes) counts once the name appears elsewhere
    paths = [ROOT / "README.md", *sorted(SRC.glob("*.py"))]
    for folder in ("tests", "demos", "bench"):
        paths += sorted((ROOT / folder).glob("*.py"))
    lines = [
        line
        for path in paths
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    unnamed = []
    for module, name, lineno in _defined_functions():
        word = re.compile(r"\b%s\b" % re.escape(name))
        own = re.compile(r"^\s*(async\s+)?def\s+%s\b" % re.escape(name))
        if not any(word.search(line) and not own.match(line) for line in lines):
            unnamed.append((module, name, lineno))
    assert unnamed == []


def test_the_audit_loads_only_for_check():
    # every command but check runs without the audit and its samplers;
    # run_audit stays reachable by every route of the public API
    script = (
        "import sys, fpforms.cli\n"
        "print(sorted({'fpforms.audit', 'fpforms.sampling'} & set(sys.modules)))\n"
        "import fpforms\n"
        "from fpforms import run_audit\n"
        "from fpforms import *\n"
        "import fpforms.audit\n"
        "assert run_audit is fpforms.run_audit is fpforms.audit.run_audit\n"
        "assert 'run_audit' in dir() and 'run_audit' in fpforms.__all__\n"
        "try:\n"
        "    fpforms.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ)
    src = str(SRC.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]",
        "module 'fpforms' has no attribute 'no_such_name'",
    ]


def test_readme_lists_every_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"Subcommands:(.*?)\.\s", readme, re.S).group(1)
    listed = re.findall(r"`([^`]+)`", section)
    command = next(
        action for action in build_parser()._actions if action.dest == "command"
    )
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(command.choices)
