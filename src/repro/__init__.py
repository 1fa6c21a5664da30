"""repro: reproduction of "Characterization of Error-Tolerant Applications
when Protecting Control Data" (Thaker et al., IISWC 2006).

The package is organised as:

* :mod:`repro.isa` — the MIPS-like virtual instruction set;
* :mod:`repro.assembler` — programmatic builder and text assembler;
* :mod:`repro.compiler` — the MiniC compiler and the control-data tagging
  static analysis (the paper's contribution);
* :mod:`repro.sim` — the functional simulator and soft-error injector;
* :mod:`repro.core` — protection configurations, fault-injection campaigns,
  outcome classification and reporting;
* :mod:`repro.fidelity` — application fidelity measures (Table 1);
* :mod:`repro.apps` — the seven benchmark applications;
* :mod:`repro.workloads` — synthetic workload generators;
* :mod:`repro.experiments` — one module per paper table/figure;
* :mod:`repro.api` — the campaign facade (``submit``/``status``/
  ``results``/``tables``/``figures``) shared by the CLI, the campaign
  daemon and library users;
* :mod:`repro.service` — the campaign daemon (``python -m repro serve``),
  its :class:`~repro.service.spec.CampaignSpec` codec and HTTP client.
"""

from .compiler import compile_source, tag_control_data
from .sim import Machine, Outcome, ProtectionMode

__version__ = "1.0.0"

#: repro.api names re-exported lazily (PEP 562): ``import repro`` must
#: stay cheap (the simulator core only), while ``repro.CampaignSpec``
#: and friends still work for interactive use.
_API_EXPORTS = ("CampaignSpec", "submit", "status", "results", "tables",
                "figures")

__all__ = [
    "Machine",
    "Outcome",
    "ProtectionMode",
    "compile_source",
    "tag_control_data",
    "__version__",
    *_API_EXPORTS,
]


def __getattr__(name: str):
    """Resolve :mod:`repro.api` re-exports on first access."""
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
