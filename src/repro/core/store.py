"""On-disk JSONL shard store for campaign run records.

A *shard* holds all records of one campaign cell — one ``(app, mode,
errors)`` combination under one fault model — as JSON lines sorted by
``run_index``::

    <root>/meta.json
    <root>/.lock                                   # advisory write lock (exclusive_lock)
    <root>/<app>/<mode>-e<errors>.jsonl            # default control-bit model
    <root>/<app>/<mode>-e<errors>@<model>.jsonl    # any other fault model

Each line is one :class:`~repro.core.outcomes.RunRecord` in its
``to_json`` form, serialised deterministically (sorted keys, compact
separators).  Records are pure functions of ``(base_seed, run_index,
errors, model)``, so a store written by any executor backend — serial,
process pool, TCP workers — and over any number of
interrupted-and-resumed sessions is **byte-identical** to one written by
a single uninterrupted serial sweep (asserted in
``tests/test_sweep_store.py``).

A store instance is bound to one fault model (``ShardStore(root,
model=...)``): shards of other models are invisible to it and its
``meta.json`` pins the model alongside the campaign parameters, so two
models can never silently mix records.  Stores written before the model
subsystem existed carry no ``model`` key in their metadata and default to
``control-bit`` — the migration-safe reading of what they contain.

Crash safety: appends happen a whole line at a time; appenders first
truncate a partially-written trailing line (the only corruption a
mid-write kill can cause) while readers merely skip it in memory — read
paths never mutate the store, so concurrent cache readers (the campaign
daemon) can race an appending sweep safely.  A resumed sweep therefore
recomputes exactly the runs whose records never made it to disk.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..sim import ProtectionMode
from .outcomes import CampaignResult, RunRecord, SweepResult
from .stats import StoppingRule

META_FILENAME = "meta.json"

#: Advisory lock file a store's exclusive writers take (``flock``); see
#: :meth:`ShardStore.exclusive_lock`.  Dot-named so byte-identity
#: comparisons and shard iteration never see it.
LOCK_FILENAME = ".lock"

#: Fleet-health sidecar written next to ``meta.json`` by distributed
#: sweeps.  Operational telemetry only — never part of the record-stream
#: byte-identity contract (comparisons exclude it).
FLEET_FILENAME = "fleet.json"

#: The default fault model, elided from shard filenames and assumed for
#: pre-model stores whose ``meta.json`` has no ``model`` key.
DEFAULT_MODEL = "control-bit"

#: Parsed ``meta.json`` files of this process, keyed by path, each with
#: the ``(st_ino, st_mtime_ns, st_size)`` it was parsed at; see
#: :meth:`ShardStore.read_meta`.
_META_CACHE: Dict[str, Tuple[Tuple[int, int, int], Dict]] = {}


def _normalise_meta(meta: Dict) -> Dict:
    """Fill the migration-safe ``model`` default into a metadata dict.

    Stores written before the fault-model subsystem carry no ``model``
    key; they hold control-bit records by construction, so comparisons
    treat the missing key as ``"control-bit"``.
    """
    normalised = dict(meta)
    normalised.setdefault("model", DEFAULT_MODEL)
    return normalised


class MissingCellError(KeyError):
    """A requested cell has no (or not enough) records in the store.

    Carries user guidance ("run `python -m repro sweep` first"); the CLI
    catches exactly this type so unrelated ``KeyError`` bugs still surface
    as tracebacks.
    """

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return self.args[0]


class StoreMismatchError(ValueError):
    """The store was created under different campaign parameters."""


def _encode_line(record: RunRecord) -> str:
    return json.dumps(record.to_json(), sort_keys=True,
                      separators=(",", ":")) + "\n"


#: The top-level ``run_index`` of a shard line.  Inside a JSON string a
#: quote is escaped, so ``"run_index":`` only matches an object key; the
#: one nested object with free-form keys (``fidelity.detail``) holds
#: floats, whose JSON never follows its leading digits with ``,`` or
#: ``}`` (``1.0``, ``1e-05``).
_RUN_INDEX = re.compile(rb'"run_index":(\d+)[,}]')


#: Bytes read per step while a torn tail is scanned back for its last
#: complete line.
_TAIL_BLOCK = 1 << 16


def append_jsonl(path: Path, payload: str) -> None:
    """Append whole JSONL lines to ``path`` in one fsynced write.

    A partially-written trailing line left by a mid-write kill (the one
    corruption a whole-line-at-a-time appender can suffer) is truncated
    first: the appender owns that repair.  Readers must use
    :func:`read_jsonl` instead, which skips the torn tail in memory
    without mutating the file.  Only the file's last byte is read unless
    the tail is torn, so an append costs the same however long the file
    has grown.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                handle.truncate(_last_line_end(handle, end - 1))
        handle.write(payload.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())


def _last_line_end(handle, end: int) -> int:
    """Offset just past the last newline before ``end`` (0 if none)."""
    while end > 0:
        start = max(0, end - _TAIL_BLOCK)
        handle.seek(start)
        newline = handle.read(end - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        end = start
    return 0


def _complete_lines(path: Path) -> bytes:
    """The bytes of ``path`` up to its last newline (``b""`` if missing).

    A trailing line without its newline (mid-write kill, or an append
    racing this read from another process) is cut in memory, never
    truncated on disk — so concurrent readers can't race an appender.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return b""
    if data and not data.endswith(b"\n"):
        data = data[:data.rfind(b"\n") + 1]
    return data


def read_jsonl(path: Path) -> List[Dict]:
    """Parse a JSONL file's complete lines; read-only and torn-tail safe.

    A torn trailing line is skipped in memory (:func:`_complete_lines`).
    Returns ``[]`` for a missing file.
    """
    return [json.loads(line) for line
            in _complete_lines(path).decode("utf-8").splitlines() if line]



@contextlib.contextmanager
def advisory_lock(path: Path) -> Iterator[None]:
    """Hold a cross-process exclusive advisory lock on ``path``.

    Blocks until the lock is free.  Backed by ``flock`` where the
    platform has it (per open-file-description, so it also excludes two
    holders inside one process); degrades to a no-op where ``fcntl`` is
    unavailable — in-process callers are expected to hold their own
    mutual exclusion (the campaign daemon's per-store asyncio locks) so
    only the multi-process guarantee is lost there.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        import fcntl
    except ImportError:  # pragma: no cover — non-POSIX platforms
        yield
        return
    with path.open("a") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class ShardStore:
    """Resumable record store keyed by ``(app, mode, errors, run_index)``.

    One store instance reads and writes the shards of a single fault
    model (``model=``, default ``control-bit``); see the module docstring
    for the on-disk layout.
    """

    def __init__(self, root, model: str = DEFAULT_MODEL) -> None:
        # The directory is created lazily by the write paths so read-only
        # consumers (status/tables/figures on a mistyped path) never leave
        # empty directories behind.
        self.root = Path(root)
        self.model = model

    # ------------------------------------------------------------------
    # Store metadata: guards against resuming with a mismatched grid.
    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        """Path of the store's ``meta.json`` parameter pin."""
        return self.root / META_FILENAME

    def read_meta(self) -> Optional[Dict]:
        """The pinned campaign parameters, or ``None`` for a fresh store.

        One parse per process, shared by every store instance on this
        root (the daemon and :func:`repro.api.submit` build a store per
        request): each call checks the cached parse with one ``os.stat``
        of ``(st_ino, st_mtime_ns, st_size)``.  :meth:`ensure_meta`
        writes through ``os.replace``, so a rewrite always carries a new
        inode and is parsed afresh; a deleted ``meta.json`` reads
        ``None``.
        """
        path = os.fspath(self.meta_path)
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            _META_CACHE.pop(path, None)
            return None
        signature = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        cached = _META_CACHE.get(path)
        if cached is None or cached[0] != signature:
            with open(path, "rb") as handle:
                cached = _META_CACHE[path] = (signature, json.load(handle))
        return dict(cached[1])

    def stopping_rule(self) -> Optional[StoppingRule]:
        """The adaptive stopping rule this store pins, or ``None``.

        The single owner of "is this an adaptive store?": every consumer
        (artefact completeness checks, CLI flag conflicts, confidence
        resolution) asks here, so the v2-adaptive schema discriminator
        lives in exactly one place.
        """
        meta = self.read_meta() or {}
        if "ci_width" not in meta:
            return None
        return StoppingRule.from_meta(meta)

    def ensure_meta(self, meta: Dict) -> None:
        """Record ``meta`` on first use; refuse to resume under different
        campaign parameters (records would not be comparable).

        Comparison treats a missing ``model`` key as the ``control-bit``
        default on both sides, so stores written before the fault-model
        subsystem resume cleanly under the default model and refuse any
        other.
        """
        existing = self.read_meta()
        if existing is None:
            # Atomic write: a kill mid-write must not leave a truncated
            # meta.json that poisons every later invocation.
            self.root.mkdir(parents=True, exist_ok=True)
            scratch = self.meta_path.with_suffix(".json.tmp")
            scratch.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
            os.replace(scratch, self.meta_path)
        elif _normalise_meta(existing) != _normalise_meta(meta):
            raise StoreMismatchError(
                f"store {self.root} was created with {existing}; "
                f"refusing to resume with {meta}"
            )

    # ------------------------------------------------------------------
    # Shard layout.
    # ------------------------------------------------------------------
    def shard_path(self, app_name: str, mode: ProtectionMode, errors: int) -> Path:
        """Path of one cell's shard under this store's fault model.

        The default model keeps the historical ``<mode>-e<errors>.jsonl``
        name (existing stores stay valid byte-for-byte); any other model
        is appended as ``@<model>`` so shards of different models can
        never collide in one directory.
        """
        stem = f"{mode.value}-e{errors}"
        if self.model != DEFAULT_MODEL:
            stem += f"@{self.model}"
        return self.root / app_name / f"{stem}.jsonl"

    def shards(self) -> Iterator[Tuple[str, ProtectionMode, int, Path]]:
        """Iterate ``(app, mode, errors, path)`` for every existing shard
        of this store's fault model (other models' shards are skipped)."""
        if not self.root.exists():
            return
        for app_dir in sorted(path for path in self.root.iterdir()
                              if path.is_dir()):
            for shard in sorted(app_dir.glob("*-e*.jsonl")):
                stem, _, shard_model = shard.stem.partition("@")
                if (shard_model or DEFAULT_MODEL) != self.model:
                    continue
                mode_value, _, errors_text = stem.rpartition("-e")
                yield (app_dir.name, ProtectionMode(mode_value),
                       int(errors_text), shard)

    # ------------------------------------------------------------------
    # Cross-process exclusion.
    # ------------------------------------------------------------------
    def exclusive_lock(self):
        """Context manager holding this store's advisory write lock.

        Blocks until no other holder — in this process or any other —
        has the store's ``.lock`` file locked.  The campaign daemon
        wraps each job's execution in this so two daemons (or a daemon
        racing a CLI sweep) sharing one store root never compute a cell
        twice; plain readers never take it.
        """
        return advisory_lock(self.root / LOCK_FILENAME)

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def load_records(self, app_name: str, mode: ProtectionMode,
                     errors: int) -> List[RunRecord]:
        """All persisted records of one cell, sorted by run index.

        Read-only: a partially-written trailing line (mid-write kill, or
        an append racing this read in another process — the campaign
        daemon serves cache reads while a sweep appends) is *skipped in
        memory*, never truncated on disk.  Only the append path repairs
        the file, under the writer's ownership of the shard.
        """
        path = self.shard_path(app_name, mode, errors)
        records = [RunRecord.from_json(line) for line in read_jsonl(path)]
        records.sort(key=lambda record: record.run_index)
        return records

    def present_indices(self, app_name: str, mode: ProtectionMode,
                        errors: int) -> Set[int]:
        """Run indices of one cell that already have persisted records.

        Read from the shard's complete lines alone, under
        :func:`read_jsonl`'s torn-tail rule: no record is decoded, so
        planning a cached cell costs one file read and one scan however
        large its records are.
        """
        data = _complete_lines(self.shard_path(app_name, mode, errors))
        return {int(index) for index in _RUN_INDEX.findall(data)}

    def missing_indices(self, app_name: str, mode: ProtectionMode,
                        errors: int, runs: int) -> List[int]:
        """Run indices of the cell not yet persisted, in ascending order."""
        present = self.present_indices(app_name, mode, errors)
        return [index for index in range(runs) if index not in present]

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------
    def append_records(self, app_name: str, mode: ProtectionMode, errors: int,
                       records: Sequence[RunRecord]) -> None:
        """Append ``records`` to the cell's shard (one fsynced write).

        Callers must append records in ascending ``run_index`` order across
        the lifetime of a shard — the orchestrator's chunks do — so the
        file stays sorted and byte-comparable against an uninterrupted
        sweep.
        """
        if not records:
            return
        append_jsonl(self.shard_path(app_name, mode, errors),
                     "".join(_encode_line(record) for record in records))

    # ------------------------------------------------------------------
    # Fleet health telemetry (distributed sweeps).
    # ------------------------------------------------------------------
    @property
    def fleet_path(self) -> Path:
        """Path of the store's ``fleet.json`` fleet-health sidecar."""
        return self.root / FLEET_FILENAME

    def read_fleet_stats(self) -> Dict:
        """Accumulated fleet-health counters, ``{}`` when never written."""
        if not self.fleet_path.exists():
            return {}
        return json.loads(self.fleet_path.read_text())

    def record_fleet_stats(self, stats: Dict) -> None:
        """Merge one sweep's fleet counters into ``fleet.json``.

        Counters accumulate across resumed sessions (a worker that needed
        three reconnects over two sessions shows three), keyed per worker
        address, plus the store-wide ``fallback_runs`` tally of runs the
        socket executor had to execute locally after losing its fleet.
        Written atomically like ``meta.json``.
        """
        merged = self.read_fleet_stats()
        workers = merged.setdefault("workers", {})
        for address, counters in (stats.get("workers") or {}).items():
            slot = workers.setdefault(address, {})
            for key, value in counters.items():
                slot[key] = slot.get(key, 0) + value
        merged["fallback_runs"] = (merged.get("fallback_runs", 0)
                                   + stats.get("fallback_runs", 0))
        self.root.mkdir(parents=True, exist_ok=True)
        scratch = self.fleet_path.with_suffix(".json.tmp")
        scratch.write_text(json.dumps(merged, sort_keys=True, indent=2) + "\n")
        os.replace(scratch, self.fleet_path)

    # ------------------------------------------------------------------
    # Aggregate views consumed by the tables/figures harness.
    # ------------------------------------------------------------------
    def load_campaign(self, app_name: str, mode: ProtectionMode, errors: int,
                      expect_runs: Optional[int] = None) -> CampaignResult:
        """One cell's persisted records as a :class:`CampaignResult`.

        Raises :class:`MissingCellError` when the cell has no records, or
        fewer than ``expect_runs`` — artefact builders pass the sweep's
        runs-per-cell so an incomplete sweep cannot silently produce
        tables from partial data.  When this store's ``meta.json`` pins
        an adaptive stopping rule, the cell must additionally *satisfy*
        that rule: an interrupted adaptive cell can hold more than the
        run floor while its intervals are still wider than the pinned
        target, and rendering artefacts from it would defeat the
        precision contract the sweep promised.
        """
        records = self.load_records(app_name, mode, errors)
        if not records:
            raise MissingCellError(
                f"store {self.root} has no records for "
                f"({app_name}, {mode.value}, {errors} errors); "
                f"run `python -m repro sweep` first"
            )
        if expect_runs is not None and len(records) < expect_runs:
            raise MissingCellError(
                f"cell ({app_name}, {mode.value}, {errors} errors) is "
                f"incomplete: {len(records)}/{expect_runs} records; "
                f"resume the sweep with `python -m repro sweep`"
            )
        result = CampaignResult(app_name=app_name, mode=mode,
                                errors_requested=errors)
        result.records.extend(records)
        rule = self.stopping_rule()
        if rule is not None and not rule.satisfied_by(result):
            raise MissingCellError(
                f"cell ({app_name}, {mode.value}, {errors} errors) is "
                f"unconverged under the store's adaptive stopping rule "
                f"({len(records)} runs, target CI ±{rule.ci_width:g} pp); "
                f"resume the sweep with `python -m repro sweep`"
            )
        return result

    def load_sweep(self, app_name: str, mode: ProtectionMode,
                   errors_axis: Sequence[int],
                   expect_runs: Optional[int] = None) -> SweepResult:
        """An error-count series of cells, loaded via :meth:`load_campaign`."""
        sweep = SweepResult(app_name=app_name, mode=mode)
        for errors in errors_axis:
            sweep.cells.append(
                self.load_campaign(app_name, mode, errors,
                                   expect_runs=expect_runs)
            )
        return sweep
