"""The seven benchmark applications studied by the paper.

Instances come from the registry: :func:`suite_apps` for a suite's
(cached, warm) applications, :func:`create_app` for a custom-sized one.
"""

from .registry import APP_ORDER, SUITES, TABLE1_FIDELITY, create_app, suite_apps

__all__ = ["APP_ORDER", "SUITES", "TABLE1_FIDELITY", "create_app", "suite_apps"]
