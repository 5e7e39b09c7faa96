"""Every example and benchmark script still imports.

Nothing else in the test suite imports ``examples/*.py`` or
``benchmarks/bench_*.py``, so a public name deleted from the package
would otherwise first fail in a user's shell.  Each script is loaded
under a non-``__main__`` name: module-level imports run, ``main()``
does not.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("examples/*.py")) + sorted(ROOT.glob("benchmarks/bench_*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) > 10


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[str(p.relative_to(ROOT)) for p in SCRIPTS]
)
def test_script_imports(path, monkeypatch):
    name = f"_script_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
