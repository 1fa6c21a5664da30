"""Record bytes pinned across changes.

Every other determinism test compares backends, engines or sessions with
each other, so a change that alters every store's bytes the same way
passes them all.  This test compares stores with SHA-256 digests
committed in ``tests/fixtures/record_digests.json``: the default paper
grid at one run per cell under each fault model, and one small adaptive
grid, which pins the stopping rule's prefix too.  Each grid is rebuilt
through :func:`repro.api.submit`, alternately in-process
(``parallel=1``) and on the default process pool.

Regenerate the fixture only on purpose, when a change is meant to alter
record bytes, and say why in the changelog::

    PYTHONPATH=src python tests/test_record_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import CampaignSpec, submit
from repro.core import StoppingRule
from repro.sim import MODEL_NAMES

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "record_digests.json"

#: Grid name -> the spec it stores.
GRIDS = {
    **{model: CampaignSpec(runs_per_cell=1, model=model)
       for model in MODEL_NAMES},
    "adaptive": CampaignSpec(apps=("adpcm", "gsm"), include_table2=False,
                             stopping=StoppingRule(ci_width=25.0, floor=2,
                                                   cap=6)),
}

#: Grid name -> ``submit`` options: every other grid runs on the pool.
BACKENDS = {name: ({"parallel": 1} if index % 2 == 0 else {})
            for index, name in enumerate(GRIDS)}


def store_digests(root: Path) -> dict:
    """``{"cells": {shard path: digest prefix}, "total": digest}`` of the
    ``*.jsonl`` shards under ``root``; the total covers paths and bytes."""
    cells = {}
    total = hashlib.sha256()
    for path in sorted(root.rglob("*.jsonl")):
        name = path.relative_to(root).as_posix()
        data = path.read_bytes()
        cells[name] = hashlib.sha256(data).hexdigest()[:16]
        total.update(name.encode() + b"\0" + data + b"\0")
    return {"cells": cells, "total": total.hexdigest()}


def build(name: str, root: Path, **execution) -> dict:
    job = submit(GRIDS[name], str(root), **execution)
    assert job["state"] == "complete", job
    return store_digests(root)


def first_difference(expected: dict, actual: dict) -> str:
    """The first shard, in path order, whose digest differs."""
    for name in sorted(expected.keys() | actual.keys()):
        if expected.get(name) != actual.get(name):
            return (f"{name}: expected {expected.get(name)}, "
                    f"got {actual.get(name)}")
    return "no shard differs"


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("name", list(GRIDS))
def test_store_bytes_match_the_fixture(name, fixture, tmp_path):
    expected = fixture[name]
    actual = build(name, tmp_path / name, **BACKENDS[name])
    assert actual["total"] == expected["total"], (
        f"{name} grid ({BACKENDS[name] or 'default pool'}) wrote different "
        f"record bytes; first differing shard: "
        f"{first_difference(expected['cells'], actual['cells'])}")


def test_the_fixture_covers_every_grid(fixture):
    assert sorted(fixture) == sorted(GRIDS)
    for name, digests in fixture.items():
        assert digests["cells"], name


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {name: build(name, Path(scratch) / name, parallel=1)
                   for name in GRIDS}
    FIXTURE_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True)
                            + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
