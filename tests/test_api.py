"""The public surface: every exported name exists, every public function has a user,
and the README's examples run."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import warnings
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

LIBRARY = [f"rosmac.{name}"
           for name in ("ensemble", "equilibria", "model", "ode", "sde", "verification")]
MODULES = ["rosmac", *LIBRARY, "rosmac.svgplot"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    exported = importlib.import_module(module_name).__all__
    assert len(exported) == len(set(exported))
    namespace = {}
    exec(f"from {module_name} import *", namespace)  # AttributeError on a stale entry
    assert set(exported) <= namespace.keys()


def test_package_exports_the_union_of_the_library_modules():
    lists = [importlib.import_module(name).__all__ for name in LIBRARY]
    union = {name for names in lists for name in names}
    assert sum(map(len, lists)) == len(union)  # no name is public in two modules
    assert set(importlib.import_module("rosmac").__all__) == union


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 3
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].passed
    assert namespace["path"].dt == namespace["cfg"].delta and len(namespace["stats"].times) == 4001
    assert namespace["field"].shape == (400, 4)


def _names_called_outside_their_own_def(node, enclosing=frozenset()):
    """Names of the functions that the calls under `node` reach, except a call
    from inside a def of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing | {node.name}
    called = set()
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name not in enclosing:
            called.add(name)
    for child in ast.iter_child_nodes(node):
        called |= _names_called_outside_their_own_def(child, enclosing)
    return called


def test_every_public_function_has_a_user():
    # A public function that the package never calls and the README never
    # names as code (a backtick span or a python block, not prose) is an API
    # kept for nothing.  nondimensionalize is the paper's rescaling, kept for
    # users who start from dimensional rates.
    rosmac = importlib.import_module("rosmac")
    called = set()
    for path in Path(rosmac.__file__).parent.glob("*.py"):
        called |= _names_called_outside_their_own_def(ast.parse(path.read_text()))
    fenced = re.compile(r"^```(\w*)\n(.*?)^```", flags=re.M | re.S)
    readme = README.read_text()
    code = [body for language, body in fenced.findall(readme) if language == "python"]
    code += re.findall(r"`([^`\n]+)`", fenced.sub("", readme))
    unused = {
        name for name in rosmac.__all__
        if inspect.isfunction(getattr(rosmac, name))
        and name not in called and not re.search(rf"\b{name}\b", "\n".join(code))
    }
    assert unused == {"nondimensionalize"}
