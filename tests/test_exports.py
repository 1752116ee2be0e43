"""Every exported name resolves, so star imports work for each module, and
every exported name has a reader outside the module that defines it."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cesaro

MODULES = ("weights", "criteria", "sections", "spectral", "ergodic", "cli")
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(cesaro.__file__).resolve().parent

#: exported names whose one reader is a test that uses them as an oracle,
#: each with that test
ORACLES = {
    "cesaro_section": "test_acceptance.py::test_exact_algebra_suite",
    "kernel_bound_am": "test_ergodic.py::test_kernel_bound_dominates_entries",
    "resolvent_condition":
        "test_spectral.py::test_cascade_agrees_with_full_scan_reference",
    "weighted_norm": "test_ergodic.py::test_averages_rational_mode_exact",
}


def test_package_exports_resolve():
    missing = [name for name in cesaro.__all__ if not hasattr(cesaro, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # a module without __all__ exports its public names, which resolve
    module = importlib.import_module(f"cesaro.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from cesaro.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_cli_import_leaves_thread_pools_out():
    """The helper thread of the suffix kernel is a plain threading.Thread;
    importing the CLI must not pull in concurrent.futures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cesaro.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, cesaro.cli; "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def identifiers(tree: ast.AST) -> set:
    """The names a piece of code reads: loaded names and attributes,
    imported names and whole string constants (a name looked up by its
    string)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def defining_module(name: str) -> str:
    for mod in MODULES:
        if name in getattr(importlib.import_module(f"cesaro.{mod}"),
                           "__all__", ()):
            return mod
    return getattr(cesaro, name).__module__.rsplit(".", 1)[-1]


def test_every_export_has_a_reader():
    """An exported name is read by the README, by another module of the
    package, by the benchmark, or by the oracle test ORACLES names; a name
    nothing reads is deleted, not exported."""
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(
        encoding="utf-8")))
    modules = {path.stem: identifiers(ast.parse(path.read_text()))
               for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    bench = set().union(*(identifiers(ast.parse(path.read_text()))
                          for path in (ROOT / "perfbench").glob("*.py")))
    exported = set(cesaro.__all__).union(*(
        getattr(importlib.import_module(f"cesaro.{mod}"), "__all__", ())
        for mod in MODULES))
    unread = []
    for name in sorted(exported):
        # a dunder such as __version__ is read by tools, not by code
        if name.startswith("__") or name in ORACLES:
            continue
        home = defining_module(name)
        others = set().union(*(ids for mod, ids in modules.items()
                               if mod != home))
        if not (name in readme or name in others or name in bench):
            unread.append(f"{home}.{name}")
    assert unread == [], unread


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_names_are_read_by_their_test(name):
    path, test = ORACLES[name].split("::")
    tree = ast.parse((ROOT / "tests" / path).read_text())
    [body] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == test]
    assert name in identifiers(body)
