"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures with the
experiment harness and prints the resulting rows/series, so running

    pytest benchmarks/ --benchmark-only -s

both times the harness and shows the reproduced data.  The configurations
are deliberately small (small workload suite, a few runs per cell) so the
whole harness completes in minutes on a laptop; pass ``--repro-runs`` to
increase the statistical quality.
"""

from __future__ import annotations

import pytest

from repro.apps import SUITES
from repro.service.spec import CampaignSpec


def pytest_addoption(parser):
    parser.addoption("--repro-runs", action="store", type=int, default=4,
                     help="injected runs per measurement cell")
    parser.addoption("--repro-suite", action="store", default="small",
                     choices=list(SUITES),
                     help="workload suite used by the experiment benchmarks")


@pytest.fixture(scope="session")
def campaign_spec(request) -> CampaignSpec:
    return CampaignSpec(
        suite=request.config.getoption("--repro-suite"),
        runs_per_cell=request.config.getoption("--repro-runs"),
    )


@pytest.fixture(scope="session")
def show():
    """Print a reproduced table/figure below the benchmark output."""
    def _show(text: str) -> None:
        print("\n" + text + "\n")
    return _show
