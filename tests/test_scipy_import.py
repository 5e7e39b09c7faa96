"""SciPy is loaded only by the code that calls it.

``repro.control.qp`` (the SLSQP hand-over) and ``repro.sysid.fit`` (the
bounded ARX fit) import SciPy inside the function that uses it, so the
entry modules and every large-scale or sharded run leave it unloaded:
its ≈49 MiB stays out of each run process and out of every pool worker
forked from one.  A testbed run reaches the import when it identifies
its model at build or hands a QP to SLSQP.  Each check runs in a fresh interpreter, since this
suite's own process has long since loaded SciPy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_ENV = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))


def _scipy_loaded_after(body):
    script = textwrap.dedent(body) + "\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_ENV, cwd=_ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_entry_modules_and_backends_load_no_scipy():
    assert not _scipy_loaded_after("""
        import sys
        import repro.cli, repro.service.cli, repro.service.runner
        import repro.engine.largescale_backend, repro.engine.sharded_backend
        import repro.engine.testbed_backend
    """)


@pytest.mark.parametrize(
    "scenario, loads_scipy",
    [("largescale-small", False), ("sharded-small", False), ("testbed-small", True)],
)
def test_a_run_loads_scipy_only_when_it_calls_it(scenario, loads_scipy):
    # testbed-small has a fixed model; its MPC reaches the SLSQP
    # hand-over of control/qp.py during the run.
    assert _scipy_loaded_after(f"""
        import sys
        from repro.engine.kernel import run_session
        from repro.engine.scenario import builtin_registry

        engine, backend = builtin_registry().get({scenario!r}).build()
        with run_session(engine, backend):
            engine.run()
            backend.result()
    """) is loads_scipy


def test_identification_at_build_loads_scipy():
    # Without a model the testbed identifies one at build: the bounded
    # fit of sysid/fit.py reaches its import before any period runs.
    assert _scipy_loaded_after("""
        import sys
        from repro.engine.scenario import ScenarioSpec, builtin_registry

        doc = builtin_registry().get("testbed-small").to_dict()
        doc["model"] = None
        ScenarioSpec.from_dict(doc).build()
    """)
