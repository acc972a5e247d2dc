"""What importing the package costs, and that every public name still loads.

A sweep's parent process imports ``repro.cli`` and nothing else of the
package's analysis side: trace forensics, code counting, view charts and the
scenario miner load on first use, through the packages' PEP 562
``__getattr__``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

#: Modules only ``inspect``, ``mine`` and the paper scripts read.
LEAVES = (
    "repro.observability.causality",
    "repro.observability.inspect",
    "repro.observability.phases",
    "repro.analysis.compute",
    "repro.analysis.loc",
    "repro.analysis.viewtrace",
    "repro.scenarios.search",
)

PACKAGES = ("repro", "repro.observability", "repro.analysis", "repro.scenarios")


def _fresh_interpreter(code: str) -> str:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return done.stdout


def test_importing_the_cli_loads_no_leaf():
    loaded = json.loads(_fresh_interpreter(
        "import json, sys, repro.cli; "
        f"print(json.dumps([m for m in {LEAVES!r} if m in sys.modules]))"
    ))
    assert loaded == []


def test_reading_a_lazy_name_loads_its_module_once():
    loaded = json.loads(_fresh_interpreter(
        "import json, sys, repro.observability as o; "
        "first = o.analyze_trace; "
        "print(json.dumps([o.analyze_trace is first, "
        "'repro.observability.inspect' in sys.modules, "
        "'analyze_trace' in vars(o), "
        "'repro.observability.causality' in sys.modules]))"
    ))
    assert loaded == [True, True, True, False]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
