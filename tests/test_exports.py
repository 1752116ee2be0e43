"""Every exported name resolves, so star imports work for each module."""

import importlib
import os
import subprocess
import sys

import pytest

import cesaro

MODULES = ("weights", "criteria", "sections", "spectral", "ergodic", "cli")


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
