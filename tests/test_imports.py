"""Each puncstream module imports on its own, so an import cycle fails here."""

import os
import pkgutil
import subprocess
import sys

import pytest

import puncstream

_MODULES = sorted(m.name for m in pkgutil.iter_modules(puncstream.__path__))
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(puncstream.__file__)))


def test_every_module_is_listed():
    assert set(_MODULES) >= {"numcore", "masks", "data", "model", "decoding",
                             "evaluation", "training", "cli"}


@pytest.mark.parametrize("module", _MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import puncstream.{module}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
