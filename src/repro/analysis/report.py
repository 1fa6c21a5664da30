"""Deterministic report codec for the static susceptibility oracle.

:class:`StaticSusceptibilityReport` is the JSON-facing artifact of
``repro.api.analyze()`` / ``python -m repro analyze``: every site row
plus app-level rollups, encoded with the same contract as
:class:`~repro.core.outcomes.RunRecord` — ``from_json(to_json(r)) == r``
bit-for-bit, and two reports computed from the same inputs serialize to
identical bytes (all mappings are emitted in sorted-key order, all
sequences in site-index order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .susceptibility import FATES, SiteSusceptibility

#: Bumped whenever the report schema or scoring model changes meaning.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StaticSusceptibilityReport:
    """Per-site static susceptibility estimates plus per-app rollups."""

    app: str
    suite: str
    model: str
    options: Dict[str, bool]
    static_total: int
    sites: Tuple[SiteSusceptibility, ...]
    schema_version: int = SCHEMA_VERSION

    def ranked(self) -> List[SiteSusceptibility]:
        """Sites by descending score; ties broken by ascending index."""
        return sorted(self.sites, key=lambda site: (-site.score, site.index))

    def fate_counts(self) -> Dict[str, int]:
        """Number of sites in each fate class (all classes present)."""
        counts = {fate: 0 for fate in FATES}
        for site in self.sites:
            counts[site.fate] += 1
        return counts

    def tagged_count(self) -> int:
        """How many sites the control-tagging decision would protect."""
        return sum(1 for site in self.sites if site.tagged)

    def score_mass(self) -> float:
        """Total score over all sites (the ranking's normalizer)."""
        return sum(site.score for site in self.sites)

    def top_sites(self, count: int) -> List[SiteSusceptibility]:
        """The ``count`` highest-scoring sites (budgeted-protection view)."""
        return self.ranked()[:max(count, 0)]

    def site_scores(self) -> Dict[int, float]:
        """Map of instruction index to score, for rank-vs-measured joins."""
        return {site.index: site.score for site in self.sites}

    def to_json(self) -> Dict:
        """Plain-dict form; stable field order, rollups precomputed."""
        return {
            "schema_version": self.schema_version,
            "app": self.app,
            "suite": self.suite,
            "model": self.model,
            "options": {key: self.options[key] for key in sorted(self.options)},
            "static_total": self.static_total,
            "site_count": len(self.sites),
            "tagged_count": self.tagged_count(),
            "fate_counts": self.fate_counts(),
            "score_mass": self.score_mass(),
            "sites": [site.to_json() for site in self.sites],
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "StaticSusceptibilityReport":
        """Rebuild a report from :meth:`to_json` output.

        Derived rollup fields (``site_count`` etc.) are recomputed, not
        trusted; a version mismatch is a hard error rather than a silent
        misread.
        """
        version = payload.get("schema_version", 0)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported susceptibility report schema {version}; "
                f"expected {SCHEMA_VERSION}")
        return cls(
            app=payload["app"],
            suite=payload["suite"],
            model=payload["model"],
            options=dict(payload["options"]),
            static_total=payload["static_total"],
            sites=tuple(SiteSusceptibility.from_json(site)
                        for site in payload["sites"]),
            schema_version=version,
        )


__all__ = ["SCHEMA_VERSION", "StaticSusceptibilityReport"]
