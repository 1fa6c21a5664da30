"""Static susceptibility oracle: predict injection outcomes before running.

This package turns the compiler's interprocedural def-use/lifetime facts
(:mod:`repro.compiler.passes.defuse`, ``dominators``) into a rankable
per-site susceptibility estimate (:mod:`susceptibility <repro.analysis.susceptibility>`),
packages it as a deterministic report (:mod:`report <repro.analysis.report>`),
and closes the loop against measured campaigns by attributing stored run
outcomes back to the static sites their first flip corrupted
(:mod:`attribution <repro.analysis.attribution>`).  Table 5
(``experiments/tables.py``) is the falsification harness: Spearman rank
correlation between static score and measured per-site failure rate.

See ``docs/STATIC_ANALYSIS.md``.
"""

from .attribution import SiteTally, attribute_first_flips, exposed_site_stream
from .oracle import SUITES, build_report
from .report import SCHEMA_VERSION, StaticSusceptibilityReport
from .susceptibility import (
    FATE_CONTROL,
    FATE_DATA,
    FATE_DEAD,
    FATE_MASKED,
    FATE_RISK,
    FATES,
    LOOP_BASE,
    WINDOW_CAP,
    SiteSusceptibility,
    classify_fate,
    score_sites,
    site_risk,
)

__all__ = [
    "FATES",
    "FATE_CONTROL",
    "FATE_DATA",
    "FATE_DEAD",
    "FATE_MASKED",
    "FATE_RISK",
    "LOOP_BASE",
    "SCHEMA_VERSION",
    "SUITES",
    "SiteSusceptibility",
    "SiteTally",
    "StaticSusceptibilityReport",
    "WINDOW_CAP",
    "attribute_first_flips",
    "build_report",
    "classify_fate",
    "exposed_site_stream",
    "score_sites",
    "site_risk",
]
