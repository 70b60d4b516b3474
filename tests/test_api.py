"""The public surface: every exported name exists, and the README's examples run."""

from __future__ import annotations

import importlib
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
    assert namespace["stats"].runs == 2000
    assert namespace["field"].shape == (400, 4)
