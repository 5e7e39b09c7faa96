"""Shared fixtures for the figure-reproduction benchmarks.

Every bench prints the rows/series of the paper figure it regenerates
(directly to the terminal, bypassing capture) and also times the
underlying computation through pytest-benchmark.

Set ``REPRO_BENCH_FULL=1`` for full-resolution runs (all 54 data-center
sizes of Fig. 6, the full 1500 s testbed traces); the default
configuration is scaled to finish the whole suite in a few minutes while
preserving every qualitative shape.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.testbed_backend import identify_testbed_model
from repro.sim.testbed import TestbedConfig
from repro.traces import TraceConfig, generate_trace

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


@pytest.fixture(scope="session")
def full_mode() -> bool:
    """True when REPRO_BENCH_FULL requests paper-scale runs."""
    return FULL


@pytest.fixture(scope="session")
def shared_model():
    """One system-identification pass shared by all testbed benches,
    exactly as the paper identifies once and reuses the model."""
    return identify_testbed_model(TestbedConfig()).model


@pytest.fixture(scope="session")
def fig6_trace(full_mode):
    """The synthetic stand-in for the paper's 5,415-server trace."""
    n = 5415 if full_mode else 2100
    days = 7 if full_mode else 3
    return generate_trace(TraceConfig(n_servers=n, n_days=days), rng=2008)


@pytest.fixture
def report(capsys):
    """Print *text* to the real terminal, bypassing pytest capture."""

    def _print(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _print
