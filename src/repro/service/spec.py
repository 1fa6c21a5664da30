"""`CampaignSpec`: the one canonical description of a campaign.

Every entry surface describes "which campaign" with the same object and
the same codec:

* the HTTP API (``POST /v1/campaigns``) takes a ``CampaignSpec`` JSON
  body;
* the CLI argument resolver (``python -m repro sweep/submit``) produces a
  ``CampaignSpec`` from flags and store metadata;
* the shard store's ``meta.json`` parameter pin is derived from the spec
  (:meth:`CampaignSpec.store_meta`), byte-identical to what the
  pre-service orchestrator wrote;
* library users hand a ``CampaignSpec`` to :mod:`repro.api`.

The spec splits a campaign's parameters into two classes.  *Content*
parameters — suite, seeds, workloads, fault model, run counts or
stopping rule — determine the record bytes; they are pinned in
``meta.json`` and hashed into :meth:`store_key`.  *Coverage* parameters
— apps, modes, error axis, Table 2 points — select which grid cells the
campaign wants; they change what is computed but never how any record
looks.  Two specs with equal ``store_key`` can therefore share one shard
store, and overlapping coverage becomes cache hits: this is the
invariant the service daemon's content-addressed cache is built on.

``cache_key`` hashes the whole spec (content + coverage) and identifies
a *job* — resubmitting a byte-identical spec coalesces onto the same
job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import CampaignConfig, StoppingRule
from ..sim import ProtectionMode

#: Suites :meth:`CampaignSpec.validate` accepts (mirrors
#: ``ExperimentConfig.suite``).
SUITE_NAMES = ("small", "standard")

#: Protection modes a spec's grid may cover (the paper grid's two).
SPEC_MODES = (ProtectionMode.PROTECTED.value, ProtectionMode.UNPROTECTED.value)


def canonical_json(data: Dict) -> str:
    """The deterministic encoding shared by specs, frames and shards."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CampaignSpec:
    """Canonical, hashable description of one fault-injection campaign.

    ``apps=None`` means every application of the suite; ``errors=None``
    means each app's default figure series (plus the Table 2 operating
    points when ``include_table2``).  ``stopping`` switches the campaign
    to adaptive sampling; ``runs_per_cell`` is ignored (and elided from
    the codec) while it is set.
    """

    # --- content parameters (pinned in meta.json, hashed in store_key) ---
    suite: str = "small"
    runs_per_cell: int = 8
    base_seed: int = 2006
    workloads: int = 1
    model: str = "control-bit"
    stopping: Optional[StoppingRule] = None
    # --- coverage parameters (which cells; never affect record bytes) ---
    apps: Optional[Tuple[str, ...]] = None
    modes: Tuple[str, ...] = SPEC_MODES
    errors: Optional[Tuple[int, ...]] = None
    include_table2: bool = True

    def __post_init__(self) -> None:
        # Normalise sequences to tuples so frozen specs hash and compare
        # by value whatever the caller passed.
        for name in ("apps", "modes", "errors"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if self.stopping is not None:
            # Adaptive campaigns take their run counts from the stopping
            # rule; pin the ignored field to its default so two specs
            # that differ only in it are equal (and hash equal).
            object.__setattr__(self, "runs_per_cell",
                               type(self).runs_per_cell)
        self.validate()

    def validate(self) -> None:
        """Reject malformed specs with actionable messages.

        Runs at construction *and* therefore on every ``from_json`` —
        the HTTP daemon's request validation is exactly this method.
        """
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; "
                             f"expected one of {SUITE_NAMES}")
        if self.stopping is None and self.runs_per_cell < 1:
            raise ValueError(f"runs_per_cell must be >= 1, "
                             f"got {self.runs_per_cell}")
        if self.workloads < 1:
            raise ValueError(f"workloads must be >= 1, got {self.workloads}")
        if not self.modes:
            raise ValueError("modes must name at least one protection mode")
        for mode in self.modes:
            if mode not in SPEC_MODES:
                raise ValueError(f"unknown protection mode {mode!r}; "
                                 f"expected one of {SPEC_MODES}")
        if self.errors is not None:
            for errors in self.errors:
                if not isinstance(errors, int) or errors < 0:
                    raise ValueError(f"error counts must be non-negative "
                                     f"integers, got {errors!r}")
        if self.apps is not None and not self.apps:
            raise ValueError("apps=() selects no cells; pass None for "
                             "every application of the suite")

    # ------------------------------------------------------------------
    # Canonical JSON codec (HTTP body == CLI output == stored spec).
    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        """JSON-safe dict; defaults elided so equal specs encode equally.

        Eliding defaults keeps the canonical form stable as fields grow:
        a spec written before a new field existed hashes the same as one
        written after, as long as the value is the default.
        """
        data: Dict = {}
        defaults = {field.name: field.default
                    for field in dataclasses.fields(CampaignSpec)}
        for name in ("suite", "base_seed", "workloads", "model",
                     "include_table2"):
            value = getattr(self, name)
            if value != defaults[name]:
                data[name] = value
        if self.stopping is not None:
            data["stopping"] = self.stopping.as_meta()
        elif self.runs_per_cell != defaults["runs_per_cell"]:
            data["runs_per_cell"] = self.runs_per_cell
        if self.apps is not None:
            data["apps"] = list(self.apps)
        if tuple(self.modes) != SPEC_MODES:
            data["modes"] = list(self.modes)
        if self.errors is not None:
            data["errors"] = list(self.errors)
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "CampaignSpec":
        """Decode and validate a spec; unknown keys are refused.

        Refusing unknown keys (instead of dropping them) is deliberate:
        the HTTP API must not silently ignore a misspelled parameter and
        run a different campaign than the client asked for.
        """
        if not isinstance(data, dict):
            raise ValueError(f"campaign spec must be a JSON object, "
                            f"got {type(data).__name__}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown campaign spec field(s) {unknown}; "
                             f"expected a subset of {sorted(known)}")
        kwargs = dict(data)
        stopping = kwargs.pop("stopping", None)
        if stopping is not None:
            if not isinstance(stopping, dict):
                raise ValueError("'stopping' must be an object with "
                                 "ci_width/run_floor/run_cap/confidence")
            try:
                kwargs["stopping"] = StoppingRule.from_meta(stopping)
            except KeyError as exc:
                raise ValueError(f"'stopping' is missing field {exc}") from exc
        for name in ("apps", "modes", "errors"):
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)

    def canonical(self) -> str:
        """The canonical encoding this spec hashes and travels as."""
        return canonical_json(self.to_json())

    # ------------------------------------------------------------------
    # Content addressing.
    # ------------------------------------------------------------------
    @property
    def cache_key(self) -> str:
        """Content address of the whole spec — the service's job id.

        Byte-identical specs (content *and* coverage) share a key, so a
        resubmission coalesces onto the already-running or already-cached
        job.
        """
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    @property
    def store_key(self) -> str:
        """Content address of the record-determining parameters only.

        Two specs with equal ``store_key`` produce byte-identical records
        for any cell they share, so the daemon files them into one shard
        store and overlapping coverage is served from disk.
        """
        return hashlib.sha256(
            canonical_json(self.store_meta()).encode("utf-8")).hexdigest()

    @property
    def store_dir(self) -> str:
        """Directory name of this spec's shard store under the daemon root.

        A 16-hex-digit prefix of :attr:`store_key` — long enough that
        collisions are out of reach, short enough for readable paths;
        the daemon and the journal replay must agree on it, so it lives
        here rather than in the daemon.
        """
        return self.store_key[:16]

    # ------------------------------------------------------------------
    # Derived configuration objects.
    # ------------------------------------------------------------------
    def store_meta(self) -> Dict:
        """The ``meta.json`` parameter pin this campaign writes.

        Byte-identical to what the pre-service orchestrator pinned
        (asserted in ``tests/test_service.py``), so existing stores
        resume cleanly under spec-driven sweeps and vice versa.
        """
        meta = {
            "suite": self.suite,
            "base_seed": self.base_seed,
            "workloads": self.workloads,
            "model": self.model,
        }
        if self.stopping is not None:
            meta["schema"] = "sweep-store-v2-adaptive"
            meta.update(self.stopping.as_meta())
        else:
            meta["schema"] = "sweep-store-v1"
            meta["runs_per_cell"] = self.runs_per_cell
        return meta

    def experiment_config(self):
        """The equivalent :class:`~repro.experiments.ExperimentConfig`.

        Adaptive specs report the rule's floor as ``runs_per_cell`` —
        the per-cell minimum every converged cell satisfies, which is
        what the artefact completeness checks need (matching the CLI's
        historical resolution).
        """
        from ..experiments.config import ExperimentConfig

        runs = (self.stopping.floor if self.stopping is not None
                else self.runs_per_cell)
        return ExperimentConfig(suite_name=self.suite, runs_per_cell=runs,
                                base_seed=self.base_seed, model=self.model)

    def campaign_config(self, **execution) -> CampaignConfig:
        """A :class:`CampaignConfig` for this spec plus execution options.

        ``execution`` holds the knobs that choose *where and how fast*
        the records are produced (``workers``, ``parallel``, ``engine``,
        ``worker_secret``, ...) — never what they contain;
        the spec owns everything record-determining.
        """
        runs = (self.stopping.cap if self.stopping is not None
                else self.runs_per_cell)
        return CampaignConfig(runs=runs, base_seed=self.base_seed,
                              workloads=self.workloads, model=self.model,
                              **execution)

    def grid_modes(self) -> Tuple[ProtectionMode, ...]:
        """The spec's protection modes as enum members."""
        return tuple(ProtectionMode(mode) for mode in self.modes)

    def cells(self) -> List:
        """The grid cells this spec covers, in deterministic paper order."""
        from ..experiments.sweep import paper_grid

        return paper_grid(self.experiment_config(),
                          apps=self.apps, modes=self.grid_modes(),
                          errors_axis=self.errors,
                          include_table2=self.include_table2)

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def from_store_meta(cls, meta: Dict,
                        apps: Optional[Sequence[str]] = None,
                        modes: Optional[Sequence[str]] = None,
                        errors: Optional[Sequence[int]] = None,
                        include_table2: bool = True) -> "CampaignSpec":
        """Rebuild the content parameters a store's ``meta.json`` pinned.

        Coverage parameters are not pinned in the meta (they never affect
        record bytes), so the caller supplies them.
        """
        stopping = (StoppingRule.from_meta(meta) if "ci_width" in meta
                    else None)
        return cls(
            suite=meta.get("suite", "small"),
            runs_per_cell=meta.get("runs_per_cell", 8),
            base_seed=meta.get("base_seed", 2006),
            workloads=meta.get("workloads", 1),
            model=meta.get("model", "control-bit"),
            stopping=stopping,
            apps=tuple(apps) if apps is not None else None,
            modes=tuple(modes) if modes is not None else SPEC_MODES,
            errors=tuple(errors) if errors is not None else None,
            include_table2=include_table2,
        )
