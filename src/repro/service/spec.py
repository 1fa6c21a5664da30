"""`CampaignSpec`: the one description of a campaign.

Every surface describes "which campaign" with the same object and the
same codec:

* the HTTP API (``POST /v1/campaigns``) takes a ``CampaignSpec`` JSON
  body;
* the CLI resolves its flags over a store's pinned spec
  (:meth:`CampaignSpec.from_store_meta`) into a ``CampaignSpec``;
* the sweep orchestrator, the grid walk (:meth:`CampaignSpec.cells`) and
  the table and figure builders take the spec whole, and the shard
  store's ``meta.json`` parameter pin is :meth:`CampaignSpec.store_meta`;
* library users hand a ``CampaignSpec`` to :mod:`repro.api`.

How the records are produced (engine, executor, workers) is not part of
the spec: :meth:`CampaignSpec.campaign_config` adds those options to
derive a :class:`~repro.core.campaign.CampaignConfig`.

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
from functools import cached_property, partial
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from ..apps.registry import APP_ORDER, SUITES, app_class, suite_apps
from ..core import CampaignConfig, StoppingRule
from ..sim import ProtectionMode

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
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; "
                             f"expected one of {tuple(SUITES)}")
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
        for name in self.apps or ():
            app_class(name)  # an unknown name raises a ValueError

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
    # The keys are computed once per instance: ``cached_property`` stores
    # them in the instance ``__dict__``, which a frozen dataclass leaves
    # writable and which equality and hashing (fields only) never read.
    @cached_property
    def cache_key(self) -> str:
        """Content address of the whole spec — the service's job id.

        Byte-identical specs (content *and* coverage) share a key, so a
        resubmission coalesces onto the already-running or already-cached
        job.
        """
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    @cached_property
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

        Its bytes are pinned as literals in ``tests/test_service.py``, so
        existing stores keep resuming.
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

    def experiment_config(self) -> SimpleNamespace:
        """An object whose ``suite()`` returns this spec's applications
        (:func:`~repro.apps.registry.suite_apps`).

        Kept only for the end-to-end benchmark under ``e2ebench/``, which
        calls ``spec.experiment_config().suite()``; nothing in the package
        calls it.  It goes away with the next change to that benchmark.
        """
        return SimpleNamespace(suite=partial(suite_apps, self.suite))

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

    def cells(self) -> List:
        """The grid cells this spec covers, in deterministic paper order.

        Each application's error axis is class data (its figure series,
        plus its Table 2 points with ``include_table2``), so planning
        builds no application.  A cell named twice is listed once.
        """
        from ..experiments.sweep import SweepCell, grid_errors_axis

        cells = []
        for name in self.apps if self.apps is not None else APP_ORDER:
            axis = (list(self.errors) if self.errors is not None
                    else grid_errors_axis(app_class(name),
                                          self.include_table2))
            for mode in map(ProtectionMode, self.modes):
                for errors in axis:
                    cells.append(SweepCell(name, mode, errors))
        return list(dict.fromkeys(cells))

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def from_store_meta(cls, meta: Dict) -> "CampaignSpec":
        """The spec whose content a store's ``meta.json`` pinned.

        Coverage is not pinned (it never affects record bytes), so the
        result covers the default grid; ``dataclasses.replace`` narrows
        it.  Keys a meta lacks (stores written before a field existed)
        take the field's default.
        """
        content = {name: meta[name] for name in ("suite", "runs_per_cell",
                                                 "base_seed", "workloads",
                                                 "model") if name in meta}
        stopping = (StoppingRule.from_meta(meta) if "ci_width" in meta
                    else None)
        return cls(stopping=stopping, **content)
